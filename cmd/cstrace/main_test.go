package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"cstrace/internal/analysis"
	"cstrace/internal/gamesim"
	"cstrace/internal/metricstore"
	"cstrace/internal/trace"
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

// runCLI runs cstrace with args as a child process and returns its stdout,
// its stderr and its exit code.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CSTRACE_TEST_CLI=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// runMode parses args as the command line does and runs the chosen mode in
// this process, returning what it printed to stdout.
func runMode(t *testing.T, args ...string) string {
	t.Helper()
	_, run, err := parse(args)
	if err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	return captureStdout(t, run)
}

// TestRemovedFlagsAreUnknown: a flag whose mechanism is gone is rejected by
// name, not accepted and ignored: -genworkers sized the deleted worker-pool
// fill stage, and -perserver picked the deleted full per-box suites.
func TestRemovedFlagsAreUnknown(t *testing.T) {
	for flag, args := range map[string][]string{
		"-genworkers": {"-mode", "quick", "-duration", "1m", "-genworkers", "4"},
		"-perserver":  {"-mode", "scenario", "-servers", "2", "-duration", "1m", "-perserver"},
	} {
		t.Run(flag, func(t *testing.T) {
			stdout, stderr, code := runCLI(t, args...)
			if code != 2 {
				t.Errorf("%s: exit %d, want 2 (a flag error)", flag, code)
			}
			if !strings.Contains(stderr, "flag provided but not defined: "+flag) {
				t.Errorf("%s failed for another reason:\n%s", flag, stderr)
			}
			if stdout != "" {
				t.Errorf("%s: printed a report:\n%s", flag, stdout)
			}
		})
	}
}

// TestNegativeDurationRejected: -duration 0 means each mode's default
// length, and a negative one is an error in every mode that reads it,
// caught before the mode opens a file.
func TestNegativeDurationRejected(t *testing.T) {
	out := filepath.Join(t.TempDir(), "never")
	for _, mode := range []string{"week", "quick", "web", "scenario", "gen", "pcap"} {
		t.Run(mode, func(t *testing.T) {
			args := []string{"-mode", mode, "-duration", "-1m"}
			if mode == "scenario" || mode == "gen" || mode == "pcap" {
				args = append(args, "-out", out)
			}
			stdout, stderr, code := runCLI(t, args...)
			if code != 1 {
				t.Errorf("exit %d, want 1", code)
			}
			if !strings.Contains(stderr, "-duration: negative duration -1m0s") {
				t.Errorf("stderr does not name the bad -duration:\n%s", stderr)
			}
			if stdout != "" {
				t.Errorf("printed a report:\n%s", stdout)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("-out file exists after the rejection (stat: %v)", err)
			}
		})
	}
}

// TestGenBytesIdenticalAcrossParallel: -mode gen sizes the writer's
// compression pool from -parallel, and the file is the same bytes at every
// value.
func TestGenBytesIdenticalAcrossParallel(t *testing.T) {
	dir := t.TempDir()
	var want []byte
	for _, parallel := range []string{"1", "4", "auto"} {
		path := filepath.Join(dir, "gen-"+parallel+".cst")
		runMode(t, "-mode", "gen", "-seed", "5", "-duration", "2m", "-out", path, "-parallel", parallel)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("-parallel %s: %d-byte trace differs from the -parallel 1 file (%d bytes)", parallel, len(got), len(want))
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
	runMode(t, "-mode", "gen", "-seed", "5", "-duration", "1m", "-out", traceFile)

	out := runMode(t, "-mode", "analyze", "-in", traceFile, "-parallel", "4", "-depths")

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
// name, so a long name (a group of five units) shifts no column to its
// right — the right-aligned blocks column ends at the same offset on the
// header and on every row.
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
// before they touch anything: a rejected gen, pcap, scenario, serve or load
// leaves the files it names byte-for-byte alone, and a rejected analyze
// prints no report.
func TestRejectedInvocations(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "existing.cst")
	runMode(t, "-mode", "gen", "-seed", "5", "-duration", "1m", "-out", traceFile, "-parallel", "1")
	before, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	// load -trace P writes P-0.trace, P-1.trace, ...: old captures sit there.
	prefix := filepath.Join(dir, "P")
	files := []string{traceFile, prefix + "-0.trace", prefix + "-1.trace"}
	for _, f := range files[1:] {
		if err := os.WriteFile(f, before, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	busy, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()

	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"gen negative duration", []string{"-mode", "gen", "-seed", "5", "-duration", "-1m", "-out", traceFile, "-parallel", "1"},
			"-duration: negative duration -1m0s"},
		{"gen unknown format", []string{"-mode", "gen", "-seed", "5", "-duration", "1m", "-out", traceFile, "-format", "9"},
			"gen: unknown -format 9"},
		{"gen bad compress", []string{"-mode", "gen", "-seed", "5", "-duration", "1m", "-out", traceFile, "-compress", "11"},
			"gen: invalid -compress 11"},
		{"gen compress on v2", []string{"-mode", "gen", "-seed", "5", "-duration", "1m", "-out", traceFile, "-format", "2", "-compress", "6"},
			"gen: -compress needs -format 3 or 4"},
		{"pcap negative duration", []string{"-mode", "pcap", "-seed", "5", "-duration", "-1m", "-out", traceFile},
			"-duration: negative duration -1m0s"},
		{"scenario no servers", []string{"-mode", "scenario", "-seed", "5", "-servers", "0", "-duration", "1m", "-parallel", "1", "-out", traceFile},
			"scenario: Servers must be positive"},
		{"scenario negative stagger", []string{"-mode", "scenario", "-seed", "5", "-servers", "2", "-duration", "1m", "-stagger", "-1s", "-parallel", "1", "-out", traceFile},
			"scenario: server 1 (srv01): negative StartOffset"},
		{"analyze inverted slice", []string{"-mode", "analyze", "-in", traceFile, "-parallel", "1", "-from", "90s", "-to", "30s"},
			"analyze: -from must precede -to"},
		{"analyze empty slice", []string{"-mode", "analyze", "-in", traceFile, "-parallel", "1", "-from", "30s", "-to", "30s"},
			"analyze: -from must precede -to"},
		{"serve bad port", []string{"-mode", "serve", "-addr", "127.0.0.1:99999", "-trace", traceFile},
			"invalid port"},
		{"serve busy port", []string{"-mode", "serve", "-addr", busy.LocalAddr().String(), "-trace", traceFile},
			"address already in use"},
		{"load kill out of range", []string{"-mode", "load", "-spawn", "2", "-bots", "2", "-kill", "5", "-kill-after", "1s", "-trace", prefix, "-for", "1s"},
			"-kill 5 names no spawned server"},
		{"load zero rate", []string{"-mode", "load", "-spawn", "2", "-bots", "2", "-rate", "0", "-trace", prefix, "-for", "1s"},
			"-bots and -rate must be positive"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runCLI(t, tc.args...)
			if code != 1 || !strings.Contains(stderr, tc.want) {
				t.Errorf("exit %d, stderr:\n%s\nwant exit 1 and an error containing %q", code, stderr, tc.want)
			}
			if stdout != "" {
				t.Errorf("rejected invocation printed a report:\n%s", stdout)
			}
			for _, f := range files {
				after, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(before, after) {
					t.Fatalf("pre-existing %s went from %d to %d bytes", filepath.Base(f), len(before), len(after))
				}
			}
		})
	}
}

// modeFlags is every mode's flag set: a mode accepts these flags and no
// others.
var modeFlags = map[string][]string{
	"week":      {"depths", "duration", "parallel", "seed"},
	"quick":     {"depths", "duration", "parallel", "seed"},
	"nat":       {"seed"},
	"gen":       {"compress", "duration", "format", "out", "parallel", "seed"},
	"analyze":   {"depths", "from", "in", "parallel", "to"},
	"index":     {"in"},
	"salvage":   {"in", "out", "parallel"},
	"pcap":      {"duration", "out", "seed"},
	"web":       {"duration", "seed"},
	"aggregate": {"seed"},
	"provision": {"players"},
	"scenario":  {"depths", "duration", "label", "out", "parallel", "perslim", "seed", "servers", "spike", "stagger", "store"},
	"ingest":    {"in", "label", "parallel", "store"},
	"list":      {"json", "store"},
	"show":      {"json", "run", "store"},
	"trend":     {"json", "kinds", "last", "metric", "store"},
	"serve":     {"addr", "heartbeat", "map", "master", "name", "slots", "stats", "tick", "timeout", "trace"},
	"master":    {"addr", "stats", "ttl"},
	"metricsd":  {"cadence", "for", "label", "parallel", "report", "spool", "store", "window"},
	"load": {"bots", "compare", "connburst", "connrate", "drop", "for", "heartbeat", "jitter", "kill", "kill-after",
		"master", "monitor", "rate", "seed", "slots", "spawn", "stats", "targets", "tick", "trace"},
}

// TestModeFlags goes through the flag parser of every mode: -h exits 0 and
// lists exactly the mode's flags, a flag the mode does not declare exits 2
// and is named, and a stray argument exits 2 (ingest alone takes trace
// files). `cstrace -h` lists every mode.
func TestModeFlags(t *testing.T) {
	if len(modes) != len(modeFlags) {
		t.Errorf("%d modes, %d rows in modeFlags", len(modes), len(modeFlags))
	}
	stdout, stderr, code := runCLI(t, "-h")
	if code != 0 || stdout != "" {
		t.Errorf("-h: exit %d, stdout %q", code, stdout)
	}
	for _, m := range modes {
		if !strings.Contains(stderr, "\n  "+m.name+" ") {
			t.Errorf("-h does not list mode %s:\n%s", m.name, stderr)
		}
	}

	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			want, ok := modeFlags[m.name]
			if !ok {
				t.Fatalf("no modeFlags row")
			}
			_, help, code := runCLI(t, "-mode", m.name, "-h")
			var got []string
			for _, line := range strings.Split(help, "\n") {
				if name, ok := strings.CutPrefix(line, "  -"); ok {
					got = append(got, strings.Fields(name)[0])
				}
			}
			if code != 0 || strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("-h: exit %d, flags %q, want exit 0 and %q", code, got, want)
			}

			// A flag some other mode declares.
			undeclared := "no-such-flag"
		search:
			for _, other := range modes {
				for _, f := range modeFlags[other.name] {
					if !slices.Contains(want, f) {
						undeclared = f
						break search
					}
				}
			}
			stdout, stderr, code := runCLI(t, "-mode", m.name, "-"+undeclared+"=1")
			if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined: -"+undeclared) {
				t.Errorf("-%s: exit %d, stdout %q, stderr:\n%s", undeclared, code, stdout, stderr)
			}

			if m.name == "ingest" {
				return
			}
			stdout, stderr, code = runCLI(t, "-mode", m.name, "stray")
			if code != 2 || stdout != "" || !strings.Contains(stderr, `takes no arguments, got "stray"`) {
				t.Errorf("stray argument: exit %d, stdout %q, stderr:\n%s", code, stdout, stderr)
			}
		})
	}
}

// TestFlagsOfOtherModesRejected: flags that only some other mode reads
// used to be accepted and ignored; now the command line fails on the first
// one and runs nothing.
func TestFlagsOfOtherModesRejected(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.pcap")
	for _, args := range [][]string{
		{"-mode", "nat", "-duration", "1m"},
		{"-mode", "provision", "-duration", "1m", "-out", out, "-perslim", "-json", "-seed", "3"},
	} {
		stdout, stderr, code := runCLI(t, args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined: -duration") {
			t.Errorf("%q: exit %d, stdout %q, stderr:\n%s", args, code, stdout, stderr)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("-out file exists after the rejection (stat: %v)", err)
	}
}

// TestQueryModesNeedAStore: list, show and trend on a store path that does
// not exist fail, naming the path, and create nothing; ingest creates the
// store.
func TestQueryModesNeedAStore(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "nope.csms")
	for _, args := range [][]string{
		{"-mode", "list", "-store", storePath},
		{"-mode", "show", "-store", storePath, "-run", "1a2b"},
		{"-mode", "trend", "-store", storePath},
	} {
		stdout, stderr, code := runCLI(t, args...)
		if code != 1 || stdout != "" || !strings.Contains(stderr, storePath) {
			t.Errorf("%q: exit %d, stdout %q, stderr:\n%s", args, code, stdout, stderr)
		}
		if _, err := os.Stat(storePath); !os.IsNotExist(err) {
			t.Fatalf("%q left a store behind (stat: %v)", args, err)
		}
	}

	traceFile := filepath.Join(dir, "t.cst")
	runMode(t, "-mode", "gen", "-seed", "5", "-duration", "1m", "-out", traceFile)
	runMode(t, "-mode", "ingest", "-store", storePath, traceFile)
	if out := runMode(t, "-mode", "list", "-store", storePath); !strings.Contains(out, ": 1 runs") {
		t.Errorf("list after ingest:\n%s", out)
	}
}

// TestRunSpoolToStore drives the daemon's whole life — open the store,
// sweep the spool, stop at the -for deadline, flush — over a spool holding
// one small generated trace: the store must end with one trace row, the
// rolling windows and one service row, the service summary must be
// printed, and a second session over the same spool must re-ingest nothing.
func TestRunSpoolToStore(t *testing.T) {
	spool := t.TempDir()
	f, err := os.Create(filepath.Join(spool, "day1.cst"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := gamesim.PaperConfig(11)
	cfg.Duration = 90 * time.Second
	cfg.Outages = nil
	w := trace.NewWriter(f)
	if _, err := gamesim.Run(cfg, w, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	storePath := filepath.Join(t.TempDir(), "m.csms")
	session := func() (printed string, kinds map[string]int) {
		t.Helper()
		printed = runMode(t, "-mode", "metricsd", "-store", storePath, "-spool", spool, "-cadence", "20ms",
			"-report", "-1ns", "-window", "30s", "-parallel", "1", "-label", "test", "-for", "300ms")
		st, err := metricstore.Open(storePath)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		kinds = map[string]int{}
		for _, r := range st.Runs() {
			kinds[r.Kind]++
		}
		return printed, kinds
	}

	printed, kinds := session()
	if kinds[metricstore.KindTrace] != 1 || kinds[metricstore.KindWindow] < 1 || kinds[metricstore.KindService] != 1 {
		t.Errorf("store rows after one session: %v; want 1 trace, >= 1 window, 1 service", kinds)
	}
	if !strings.Contains(printed, "("+metricstore.KindService+")") || !strings.Contains(printed, "  records ") {
		t.Errorf("service summary not printed; output:\n%s", printed)
	}

	_, kinds = session()
	if kinds[metricstore.KindTrace] != 1 {
		t.Errorf("second session over the same spool left %d trace rows, want 1", kinds[metricstore.KindTrace])
	}
}
