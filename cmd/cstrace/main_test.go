package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cstrace/internal/analysis"
	"cstrace/internal/sched"
)

// TestMain lets a test run the real command line: re-executed with
// CSTRACE_TEST_CLI set, the test binary is cstrace itself.
func TestMain(m *testing.M) {
	if os.Getenv("CSTRACE_TEST_CLI") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestRemovedFlagsAreUnknown: a flag whose mechanism is gone is rejected by
// name, not accepted and ignored (-genworkers sized the deleted worker-pool
// fill stage).
func TestRemovedFlagsAreUnknown(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-mode", "quick", "-duration", "1m", "-genworkers", "4")
	cmd.Env = append(os.Environ(), "CSTRACE_TEST_CLI=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("-genworkers was accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "flag provided but not defined: -genworkers") {
		t.Errorf("-genworkers failed for another reason (%v):\n%s", err, out)
	}
}

// TestGenBytesIdenticalAcrossParallel: -mode gen sizes the writer's
// compression pool from -parallel, and the file is the same bytes at every
// value.
func TestGenBytesIdenticalAcrossParallel(t *testing.T) {
	dir := t.TempDir()
	var want []byte
	for _, parallel := range []int{1, 4, sched.Auto} {
		path := filepath.Join(dir, fmt.Sprintf("gen-%d.cst", parallel))
		if err := runGen(5, 2*time.Minute, path, 4, 0, parallel); err != nil {
			t.Fatalf("-parallel %d: %v", parallel, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("-parallel %d: %d-byte trace differs from the -parallel 1 file (%d bytes)", parallel, len(got), len(want))
		}
	}
}

// captureStdout runs fn with os.Stdout redirected through a pipe and
// returns what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", ferr, out)
	}
	return out
}

// TestDepthsEndToEnd closes the latent gap that ShardedSuite.Depths was
// never exercised through the harness: generate a real trace with the auto
// worker knobs, analyze it sharded with -depths, and assert the printed
// statistics parse and are non-degenerate — every group named, every group
// fed every block, means and maxima inside the channel bound.
func TestDepthsEndToEnd(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "depths.cst")
	if err := runGen(5, time.Minute, traceFile, 4, 0, sched.Auto); err != nil {
		t.Fatalf("gen: %v", err)
	}

	out := captureStdout(t, func() error {
		return runAnalyze(traceFile, 4, 0, 0, true)
	})

	type row struct {
		name        string
		blocks, max int64
		mean        float64
	}
	var rows []row
	sc := bufio.NewScanner(strings.NewReader(out))
	inTable := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "Collector group depths") {
			var bound int
			if _, err := fmt.Sscanf(line, "Collector group depths (channel bound %d)", &bound); err != nil {
				t.Fatalf("unparseable depths header %q: %v", line, err)
			}
			if bound != analysis.ShardChanDepth {
				t.Errorf("printed channel bound %d, want %d", bound, analysis.ShardChanDepth)
			}
			inTable = true
			sc.Scan() // column header line
			continue
		}
		if !inTable {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			break // end of the table
		}
		var r row
		r.name = fields[0]
		if _, err := fmt.Sscanf(fields[1]+" "+fields[2]+" "+fields[3], "%d %f %d",
			&r.blocks, &r.mean, &r.max); err != nil {
			t.Fatalf("unparseable depths row %q: %v", line, err)
		}
		rows = append(rows, r)
	}
	if !inTable {
		t.Fatalf("-depths printed no depth table; output:\n%s", out)
	}
	if len(rows) < 2 {
		t.Fatalf("depth table has %d groups, want at least 2:\n%s", len(rows), out)
	}

	for _, r := range rows {
		if r.name == "" {
			t.Errorf("unnamed group in depth table")
		}
		if r.blocks <= 0 {
			t.Errorf("group %q saw %d blocks, want > 0", r.name, r.blocks)
		}
		if r.mean < 0 || r.mean > float64(analysis.ShardChanDepth) {
			t.Errorf("group %q mean depth %.2f outside [0, %d]", r.name, r.mean, analysis.ShardChanDepth)
		}
		if r.max < 0 || r.max > analysis.ShardChanDepth {
			t.Errorf("group %q max depth %d outside [0, %d]", r.name, r.max, analysis.ShardChanDepth)
		}
		if float64(r.max) < r.mean {
			t.Errorf("group %q max %d below mean %.2f", r.name, r.max, r.mean)
		}
	}
	// Every group is fed by the same fan-out, so all must have enqueued the
	// same block count.
	for _, r := range rows[1:] {
		if r.blocks != rows[0].blocks {
			t.Errorf("groups disagree on block count: %q %d vs %q %d", r.name, r.blocks, rows[0].name, rows[0].blocks)
		}
	}
}

// TestDepthsTableAligns: the name column is as wide as the longest group
// name, so a long name (the 2-worker deal's first group is 31 characters)
// shifts no column to its right — the right-aligned blocks column ends at
// the same offset on the header and on every row.
func TestDepthsTableAligns(t *testing.T) {
	var buf bytes.Buffer
	fprintDepths(&buf, []analysis.GroupDepth{
		{Name: "count+sizes+flows+kinds+minutes", Blocks: 284, SumDepth: 100, MaxDepth: 3},
		{Name: "vt+windows+gaps+tick", Blocks: 284, SumDepth: 50, MaxDepth: 2},
		{Name: "gaps", Blocks: 7, SumDepth: 0, MaxDepth: 0},
	})
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")[1:] // drop the title
	if len(lines) != 4 {
		t.Fatalf("want a header and 3 rows, got:\n%s", buf.String())
	}
	// blocksEnd is where the second space-separated field of a line ends.
	blocksEnd := func(line string) int {
		rest, off := line, 0
		for field := 0; field < 2; field++ {
			trimmed := strings.TrimLeft(rest, " ")
			off += len(rest) - len(trimmed)
			n := strings.IndexByte(trimmed, ' ')
			if n < 0 {
				n = len(trimmed)
			}
			off += n
			rest = trimmed[n:]
		}
		return off
	}
	want := blocksEnd(lines[0])
	for _, line := range lines[1:] {
		if got := blocksEnd(line); got != want {
			t.Errorf("blocks column ends at %d, header's at %d:\n%s", got, want, buf.String())
		}
	}
}

// TestRejectedInvocations is the table of command lines that must fail
// before they touch anything: a rejected gen leaves a pre-existing -out
// file byte-for-byte alone, and a rejected analyze prints no report.
func TestRejectedInvocations(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "existing.cst")
	if err := runGen(5, time.Minute, traceFile, 4, 0, 1); err != nil {
		t.Fatalf("gen: %v", err)
	}
	before, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		run  func() error
		want string
	}{
		{"gen negative duration", func() error { return runGen(5, -time.Minute, traceFile, 4, 0, 1) },
			"gen: gamesim: Duration must be positive"},
		{"gen unknown format", func() error { return runGen(5, time.Minute, traceFile, 9, 0, 1) },
			"gen: unknown -format 9"},
		{"gen bad compress", func() error { return runGen(5, time.Minute, traceFile, 4, 11, 1) },
			"gen: invalid -compress 11"},
		{"gen compress on v2", func() error { return runGen(5, time.Minute, traceFile, 2, 6, 1) },
			"gen: -compress needs -format 3 or 4"},
		{"analyze inverted slice", func() error { return runAnalyze(traceFile, 1, 90*time.Second, 30*time.Second, false) },
			"analyze: -from must precede -to"},
		{"analyze empty slice", func() error { return runAnalyze(traceFile, 1, 30*time.Second, 30*time.Second, false) },
			"analyze: -from must precede -to"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var runErr error
			out := captureStdout(t, func() error { runErr = tc.run(); return nil })
			if runErr == nil || !strings.Contains(runErr.Error(), tc.want) {
				t.Errorf("error %v, want one containing %q", runErr, tc.want)
			}
			if out != "" {
				t.Errorf("rejected invocation printed a report:\n%s", out)
			}
			after, err := os.ReadFile(traceFile)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatalf("pre-existing trace went from %d to %d bytes", len(before), len(after))
			}
		})
	}
}
