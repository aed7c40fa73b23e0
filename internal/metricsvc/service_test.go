package metricsvc_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	cstrace "cstrace"
	"cstrace/internal/analysis"
	"cstrace/internal/metricstore"
	"cstrace/internal/metricsvc"
	"cstrace/internal/trace"
)

// spoolRecords builds one spool file's worth of records: deterministic,
// multi-kind, both directions, ending exactly at span.
func spoolRecords(seed, count int, span time.Duration) []trace.Record {
	kinds := []trace.Kind{trace.KindGame, trace.KindGame, trace.KindGame,
		trace.KindHandshake, trace.KindText, trace.KindVoice}
	recs := make([]trace.Record, count)
	for i := range recs {
		recs[i] = trace.Record{
			T:      span * time.Duration(i) / time.Duration(count-1),
			Dir:    trace.Direction((i + seed) & 1),
			Kind:   kinds[(i*7+seed)%len(kinds)],
			Client: uint32((i*3+seed)%17 + 1),
			App:    uint16(30 + (i*11+seed*5)%200),
		}
	}
	return recs
}

func writeSpoolFile(t *testing.T, dir, name string, recs []trace.Record) {
	t.Helper()
	writeSpoolWith(t, dir, name, recs, trace.NewWriter, 512)
}

// writeSpoolWith writes recs into dir/name with a writer from newWriter cut
// into segments of segPayload bytes. The file arrives whole, by rename, as
// the spool contract asks.
func writeSpoolWith(t *testing.T, dir, name string, recs []trace.Record, newWriter func(io.Writer) *trace.Writer, segPayload int) {
	t.Helper()
	var buf bytes.Buffer
	w := newWriter(&buf)
	w.SegmentPayload = segPayload
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	part := filepath.Join(dir, name+".part")
	if err := os.WriteFile(part, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(part, filepath.Join(dir, name)); err != nil {
		t.Fatal(err)
	}
}

func fixedClock() func() time.Time {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	return func() time.Time { return base }
}

// TestServiceMatchesOneShotAnalysis is the golden-equality check the
// package doc promises: a spool of traces fed through the engine must
// leave the cumulative suite in exactly the state one-shot AnalyzeTrace
// reaches on the concatenation of those traces rebased onto one timeline.
func TestServiceMatchesOneShotAnalysis(t *testing.T) {
	spool := t.TempDir()
	files := [][]trace.Record{
		spoolRecords(1, 3000, 150*time.Second),
		spoolRecords(2, 2000, 100*time.Second),
		spoolRecords(3, 2500, 130*time.Second),
	}
	for i, recs := range files {
		writeSpoolFile(t, spool, string(rune('a'+i))+".cst", recs)
	}

	// Golden: the concatenation, each file shifted by the running offset.
	var concat bytes.Buffer
	cw := trace.NewWriter(&concat)
	var offset time.Duration
	for _, recs := range files {
		var end time.Duration
		for _, r := range recs {
			if r.T > end {
				end = r.T
			}
			r.T += offset
			if err := cw.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		offset += end
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	ta, err := cstrace.AnalyzeTrace(bytes.NewReader(concat.Bytes()), 4)
	if err != nil {
		t.Fatal(err)
	}
	want := analysis.Summarize(ta.Suite, 0)

	st, err := metricstore.Open(filepath.Join(t.TempDir(), "m.csms"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng, err := metricsvc.New(metricsvc.Config{
		Store:       st,
		Spool:       spool,
		Window:      time.Minute,
		Parallelism: 4,
		Label:       "golden",
		Now:         fixedClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := eng.Sweep(); err != nil || n != 3 {
		t.Fatalf("Sweep = %d, %v; want 3, nil", n, err)
	}
	svc, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if svc == nil || svc.Kind != metricstore.KindService {
		t.Fatalf("service row = %+v", svc)
	}
	got := svc.Summary

	if !reflect.DeepEqual(got, want) {
		t.Errorf("service summary diverges from one-shot analysis:\n got %+v\nwant %+v", got, want)
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if !bytes.Equal(gj, wj) {
		t.Errorf("summary JSON diverges:\n got %s\nwant %s", gj, wj)
	}

	if svc.Records != 7500 {
		t.Errorf("service row records = %d, want 7500", svc.Records)
	}
	// 380s of rebased trace time at 1-minute windows: windows 0..6, the
	// last flushed partial on Close.
	if eng.Windows() != 7 {
		t.Errorf("windows = %d, want 7", eng.Windows())
	}
	var traces, wins, svcs int
	for _, r := range st.Runs() {
		switch r.Kind {
		case metricstore.KindTrace:
			traces++
		case metricstore.KindWindow:
			wins++
		case metricstore.KindService:
			svcs++
		}
	}
	if traces != 3 || wins != 7 || svcs != 1 {
		t.Errorf("store rows: %d traces, %d windows, %d service; want 3, 7, 1",
			traces, wins, svcs)
	}
}

// TestServiceReplayIsIdempotent re-runs a fresh engine over the same spool
// and store: every file row, window row, and the service row must dedupe
// on content hash, leaving the store byte-for-byte unchanged.
func TestServiceReplayIsIdempotent(t *testing.T) {
	spool := t.TempDir()
	writeSpoolFile(t, spool, "a.cst", spoolRecords(1, 2000, 90*time.Second))
	writeSpoolFile(t, spool, "b.cst", spoolRecords(2, 1500, 70*time.Second))
	storePath := filepath.Join(t.TempDir(), "m.csms")

	runOnce := func() *metricstore.Run {
		st, err := metricstore.Open(storePath)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		eng, err := metricsvc.New(metricsvc.Config{
			Store: st, Spool: spool, Window: time.Minute,
			Parallelism: 2, Now: fixedClock(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Sweep(); err != nil {
			t.Fatal(err)
		}
		svc, err := eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}

	svc1 := runOnce()
	before, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := runOnce()
	after, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("store file changed on replay: %d -> %d bytes", len(before), len(after))
	}
	if svc1 == nil || svc2 == nil || svc1.Hash != svc2.Hash || svc1.Seq != svc2.Seq {
		t.Errorf("service rows differ across replay: %+v vs %+v", svc1, svc2)
	}
}

// TestServiceRunLoop drives the polling loop itself: files dropped into
// the spool while Run is live are picked up, and cancellation stops it.
func TestServiceRunLoop(t *testing.T) {
	spool := t.TempDir()
	writeSpoolFile(t, spool, "a.cst", spoolRecords(1, 1000, 30*time.Second))

	st, err := metricstore.Open(filepath.Join(t.TempDir(), "m.csms"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var report strings.Builder
	eng, err := metricsvc.New(metricsvc.Config{
		Store: st, Spool: spool, Poll: 5 * time.Millisecond,
		Window: time.Minute, Report: &report, Now: fixedClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- eng.Run(ctx) }()

	deadline := time.After(5 * time.Second)
	for st.Len() < 1 {
		select {
		case <-deadline:
			t.Fatal("first file never ingested")
		case <-time.After(5 * time.Millisecond):
		}
	}
	writeSpoolFile(t, spool, "b.cst", spoolRecords(2, 1000, 30*time.Second))
	for st.Len() < 2 {
		select {
		case <-deadline:
			t.Fatal("second file never ingested")
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if _, err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "files=") {
		t.Errorf("no report lines emitted: %q", report.String())
	}
}

// TestSweepSkipsNonTrace: a spool file that is not a trace is logged and
// marked seen; the files after it are still ingested, and later sweeps do
// not trip over it again.
func TestSweepSkipsNonTrace(t *testing.T) {
	spool := t.TempDir()
	writeSpoolFile(t, spool, "a.cst", spoolRecords(1, 1000, 30*time.Second))
	if err := os.WriteFile(filepath.Join(spool, "b.cst"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	writeSpoolFile(t, spool, "c.cst", spoolRecords(3, 1000, 30*time.Second))
	st, err := metricstore.Open(filepath.Join(t.TempDir(), "m.csms"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var log strings.Builder
	eng, err := metricsvc.New(metricsvc.Config{
		Store: st, Spool: spool, Now: fixedClock(),
		Logf: func(format string, args ...any) { fmt.Fprintf(&log, format+"\n", args...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := eng.Sweep(); err != nil || n != 2 {
		t.Fatalf("Sweep = %d, %v; want 2, nil", n, err)
	}
	if !strings.Contains(log.String(), "skipping b.cst") || !strings.Contains(log.String(), "bad magic") {
		t.Errorf("b.cst not logged as skipped: %q", log.String())
	}
	if n, err := eng.Sweep(); err != nil || n != 0 {
		t.Fatalf("second Sweep = %d, %v; want 0, nil", n, err)
	}
	if _, err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepWaitsForRename: a file still being written under its .part name
// is not read, however torn; once renamed it is ingested whole.
func TestSweepWaitsForRename(t *testing.T) {
	spool := t.TempDir()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, r := range spoolRecords(2, 1000, 30*time.Second) {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	part := filepath.Join(spool, "b.cst.part")
	if err := os.WriteFile(part, buf.Bytes()[:buf.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := metricstore.Open(filepath.Join(t.TempDir(), "m.csms"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng, err := metricsvc.New(metricsvc.Config{Store: st, Spool: spool, Now: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := eng.Sweep(); err != nil || n != 0 || st.Len() != 0 {
		t.Fatalf("Sweep over a torn .part = %d, %v (%d rows); want 0, nil and no rows", n, err, st.Len())
	}
	if err := os.WriteFile(part, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(part, filepath.Join(spool, "b.cst")); err != nil {
		t.Fatal(err)
	}
	if n, err := eng.Sweep(); err != nil || n != 1 {
		t.Fatalf("Sweep after the rename = %d, %v; want 1, nil", n, err)
	}
	if run := st.Runs()[0]; run.Records != 1000 || run.Warning != "" {
		t.Errorf("ingested %d records (warning %q), want all 1000", run.Records, run.Warning)
	}
	if _, err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceRowsPinned pins what a seeded three-file spool leaves in the
// store: the window rows (bounds, counts, rates and content hashes), the
// service row (hash, records and cumulative summary) and the per-file rows,
// at every parallelism. The files mix a v4 file cut into full-size segments, a v2
// file and a v4 file cut small, so the rows cover column and record
// delivery alike. A change that moves either digest changes store bytes.
func TestServiceRowsPinned(t *testing.T) {
	const (
		pinnedWindowRows = "aa8e13be629182441b99f78a3bf80e3ec8b0cbe4214a38bbe82aecdd40f6ce75"
		pinnedServiceRow = "11db5049b76b1e20d38ff585a3742223c1aef8b3887a7ca04e5bc3b06cc99d54"
		pinnedFileRows   = "c409844d368bb6838c4585aef3036a56aa4bd25c90cba8bc33c26abd520e41c4"
	)
	spool := t.TempDir()
	writeSpoolWith(t, spool, "a.cst", spoolRecords(11, 12000, 150*time.Second), trace.NewWriter, trace.DefaultSegmentPayload)
	writeSpoolWith(t, spool, "b.cst", spoolRecords(12, 5000, 100*time.Second), trace.NewWriterV2, 2048)
	writeSpoolWith(t, spool, "c.cst", spoolRecords(13, 8000, 130*time.Second), trace.NewWriter, 4096)

	for _, par := range []int{1, 2, cstrace.AutoWorkers} {
		st, err := metricstore.Open(filepath.Join(t.TempDir(), "m.csms"))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := metricsvc.New(metricsvc.Config{
			Store: st, Spool: spool, Window: 20 * time.Second,
			Parallelism: par, Now: fixedClock(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if n, err := eng.Sweep(); err != nil || n != 3 {
			t.Fatalf("parallelism %d: Sweep = %d, %v; want 3, nil", par, n, err)
		}
		if _, err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		wins, svc, files := sha256.New(), sha256.New(), sha256.New()
		for _, r := range st.Runs() {
			row, err := json.Marshal(struct {
				Hash    string
				Records int64
				Summary analysis.Summary
				Window  *analysis.WindowStats
			}{r.Hash, r.Records, r.Summary, r.Window})
			if err != nil {
				t.Fatal(err)
			}
			switch r.Kind {
			case metricstore.KindWindow:
				wins.Write(row)
			case metricstore.KindService:
				svc.Write(row)
			case metricstore.KindTrace:
				files.Write(row)
			}
		}
		st.Close()
		if got := hex.EncodeToString(wins.Sum(nil)); got != pinnedWindowRows {
			t.Errorf("parallelism %d: window rows digest %s, pinned %s", par, got, pinnedWindowRows)
		}
		if got := hex.EncodeToString(svc.Sum(nil)); got != pinnedServiceRow {
			t.Errorf("parallelism %d: service row digest %s, pinned %s", par, got, pinnedServiceRow)
		}
		if got := hex.EncodeToString(files.Sum(nil)); got != pinnedFileRows {
			t.Errorf("parallelism %d: file rows digest %s, pinned %s", par, got, pinnedFileRows)
		}
	}
}

// TestEngineHoldsNoGoroutines: between calls the engine holds no
// goroutines at any parallelism — not after New, not after a Sweep (the
// per-file decode workers are gone when IngestFile returns), not after
// Close.
func TestEngineHoldsNoGoroutines(t *testing.T) {
	for _, par := range []int{1, 4, cstrace.AutoWorkers} {
		spool := t.TempDir()
		writeSpoolWith(t, spool, "a.cst", spoolRecords(21, 6000, 90*time.Second), trace.NewWriter, 4096)
		st, err := metricstore.Open(filepath.Join(t.TempDir(), "m.csms"))
		if err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		check := func(when string) {
			t.Helper()
			if n := settledGoroutines(base); n != base {
				t.Errorf("parallelism %d, %s: %d goroutines, want %d as before New", par, when, n, base)
			}
		}
		eng, err := metricsvc.New(metricsvc.Config{
			Store: st, Spool: spool, Window: 20 * time.Second,
			Parallelism: par, Now: fixedClock(),
		})
		if err != nil {
			t.Fatal(err)
		}
		check("after New")
		if n, err := eng.Sweep(); err != nil || n != 1 {
			t.Fatalf("parallelism %d: first Sweep = %d, %v; want 1, nil", par, n, err)
		}
		check("after the first Sweep")
		writeSpoolWith(t, spool, "b.cst", spoolRecords(22, 3000, 60*time.Second), trace.NewWriterV2, 2048)
		if n, err := eng.Sweep(); err != nil || n != 1 {
			t.Fatalf("parallelism %d: second Sweep = %d, %v; want 1, nil", par, n, err)
		}
		check("after the second Sweep")
		// Three new files: the lookahead hashes the next file while one is
		// read.
		writeSpoolWith(t, spool, "c.cst", spoolRecords(23, 4000, 60*time.Second), trace.NewWriter, 4096)
		writeSpoolWith(t, spool, "d.cst", spoolRecords(24, 3000, 50*time.Second), trace.NewWriter, 4096)
		writeSpoolWith(t, spool, "e.cst", spoolRecords(25, 5000, 70*time.Second), trace.NewWriter, 4096)
		if n, err := eng.Sweep(); err != nil || n != 3 {
			t.Fatalf("parallelism %d: three-file Sweep = %d, %v; want 3, nil", par, n, err)
		}
		check("after the three-file Sweep")
		if _, err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		check("after Close")
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// settledGoroutines returns the goroutine count once it is back to base, or
// after a second: a joined worker may still be returning from its last
// call.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n != base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestSweepDedupesIdenticalFiles: two byte-identical spool files under
// different names make one file row. The second is a dedupe, its records
// never reach the cumulative suite, and the service row's hash still
// chains both file hashes.
func TestSweepDedupesIdenticalFiles(t *testing.T) {
	spool := t.TempDir()
	writeSpoolFile(t, spool, "a.cst", spoolRecords(31, 4000, 80*time.Second))
	body, err := os.ReadFile(filepath.Join(spool, "a.cst"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(spool, "b.cst"), body, 0o644); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(body)
	fileHash := hex.EncodeToString(sum[:])
	chain := sha256.Sum256([]byte(fileHash + fileHash))

	for _, par := range []int{1, cstrace.AutoWorkers} {
		st, err := metricstore.Open(filepath.Join(t.TempDir(), "m.csms"))
		if err != nil {
			t.Fatal(err)
		}
		var report strings.Builder
		eng, err := metricsvc.New(metricsvc.Config{
			Store: st, Spool: spool, Window: 20 * time.Second,
			Parallelism: par, Report: &report, Now: fixedClock(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if n, err := eng.Sweep(); err != nil || n != 1 {
			t.Fatalf("parallelism %d: Sweep = %d, %v; want 1, nil", par, n, err)
		}
		svc, err := eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		var files []*metricstore.Run
		for _, r := range st.Runs() {
			if r.Kind == metricstore.KindTrace {
				files = append(files, r)
			}
		}
		st.Close()
		if len(files) != 1 || files[0].Hash != fileHash || filepath.Base(files[0].Source) != "a.cst" {
			t.Fatalf("parallelism %d: file rows %+v, want one for a.cst", par, files)
		}
		if !strings.Contains(report.String(), "files=1 dedup=1 ") {
			t.Errorf("parallelism %d: report %q, want files=1 dedup=1", par, report.String())
		}
		if svc.Records != files[0].Records || !reflect.DeepEqual(svc.Summary, files[0].Summary) {
			t.Errorf("parallelism %d: service row %d records, %+v; want the one file's %d, %+v",
				par, svc.Records, svc.Summary, files[0].Records, files[0].Summary)
		}
		if want := hex.EncodeToString(chain[:]); svc.Hash != want {
			t.Errorf("parallelism %d: service hash %s, want %s over both file hashes", par, svc.Hash, want)
		}
	}
}

// TestSweepStopsAtUnreadableFile: a dangling symlink between two traces
// stops the sweep with an error naming it, after the file before it is
// ingested and before the file after it is, and leaves no goroutine behind.
func TestSweepStopsAtUnreadableFile(t *testing.T) {
	spool := t.TempDir()
	writeSpoolFile(t, spool, "a.cst", spoolRecords(41, 3000, 60*time.Second))
	if err := os.Symlink(filepath.Join(spool, "missing"), filepath.Join(spool, "b.cst")); err != nil {
		t.Skipf("symlink: %v", err)
	}
	writeSpoolFile(t, spool, "c.cst", spoolRecords(43, 3000, 60*time.Second))

	for _, par := range []int{1, cstrace.AutoWorkers} {
		st, err := metricstore.Open(filepath.Join(t.TempDir(), "m.csms"))
		if err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		eng, err := metricsvc.New(metricsvc.Config{
			Store: st, Spool: spool, Window: 20 * time.Second,
			Parallelism: par, Now: fixedClock(),
		})
		if err != nil {
			t.Fatal(err)
		}
		n, err := eng.Sweep()
		if err == nil || !strings.Contains(err.Error(), "b.cst") || n != 1 {
			t.Fatalf("parallelism %d: Sweep = %d, %v; want 1 and an error naming b.cst", par, n, err)
		}
		if got := settledGoroutines(base); got != base {
			t.Errorf("parallelism %d: %d goroutines after the failed Sweep, want %d as before New", par, got, base)
		}
		var sources []string
		for _, r := range st.Runs() {
			if r.Kind == metricstore.KindTrace {
				sources = append(sources, filepath.Base(r.Source))
			}
		}
		if !reflect.DeepEqual(sources, []string{"a.cst"}) {
			t.Errorf("parallelism %d: file rows for %v, want a.cst only", par, sources)
		}
		if _, err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
}

// TestRowsLandInReadOrder: a file's run row follows every window row its
// records closed and precedes the next file's, at every parallelism: the
// stages are joined before the row is appended, so the store holds its
// rows in the order a window swept on the delivery path leaves them.
func TestRowsLandInReadOrder(t *testing.T) {
	const want = "wwwwwwwtwwwwwtwwwwwwwtws" // w window, t trace file, s service
	spool := t.TempDir()
	writeSpoolWith(t, spool, "a.cst", spoolRecords(11, 12000, 150*time.Second), trace.NewWriter, trace.DefaultSegmentPayload)
	writeSpoolWith(t, spool, "b.cst", spoolRecords(12, 5000, 100*time.Second), trace.NewWriterV2, 2048)
	writeSpoolWith(t, spool, "c.cst", spoolRecords(13, 8000, 130*time.Second), trace.NewWriter, 4096)
	for _, par := range []int{1, 2, cstrace.AutoWorkers} {
		st, err := metricstore.Open(filepath.Join(t.TempDir(), "m.csms"))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := metricsvc.New(metricsvc.Config{
			Store: st, Spool: spool, Window: 20 * time.Second,
			Parallelism: par, Now: fixedClock(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if n, err := eng.Sweep(); err != nil || n != 3 {
			t.Fatalf("parallelism %d: Sweep = %d, %v; want 3, nil", par, n, err)
		}
		if _, err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		var order strings.Builder
		for _, r := range st.Runs() {
			order.WriteByte(r.Kind[0])
		}
		st.Close()
		if order.String() != want {
			t.Errorf("parallelism %d: rows in order %s, want %s", par, order.String(), want)
		}
	}
}
