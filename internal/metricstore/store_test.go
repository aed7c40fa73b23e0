package metricstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cstrace/internal/analysis"
	"cstrace/internal/gamesim"
	"cstrace/internal/scenario"
	"cstrace/internal/sched"
	"cstrace/internal/trace"
)

// testTrace writes a small v4 (or v1) trace file and returns its path.
func testTrace(t *testing.T, name string, v1 bool, count int, gap time.Duration) string {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if v1 {
		w = trace.NewWriterV1(&buf)
	}
	w.SegmentPayload = 512 // several segments even for small counts
	for i := 0; i < count; i++ {
		if err := w.Write(trace.Record{
			T:      time.Duration(i) * gap,
			Dir:    trace.Direction(i & 1),
			Kind:   trace.KindGame,
			Client: uint32(i%10 + 1),
			App:    uint16(40 + i%80),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func openStore(t *testing.T, path string) *Store {
	t.Helper()
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestIngestIdempotent(t *testing.T) {
	path := testTrace(t, "a.cst", false, 4000, time.Millisecond)
	st := openStore(t, filepath.Join(t.TempDir(), "m.csms"))

	run1, added, err := IngestTraceFile(st, path, IngestOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !added {
		t.Fatal("first ingest reported added=false")
	}
	if run1.Records != 4000 || run1.Kind != KindTrace || run1.Warning != "" {
		t.Fatalf("run = %+v", run1)
	}

	run2, added, err := IngestTraceFile(st, path, IngestOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if added {
		t.Fatal("re-ingest of identical content reported added=true")
	}
	if st.Len() != 1 {
		t.Fatalf("store rows = %d, want 1", st.Len())
	}

	// Byte-identical show output across the dedupe.
	var b1, b2 bytes.Buffer
	run1.WriteText(&b1)
	run2.WriteText(&b2)
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("show output differs after re-ingest:\n%s\n----\n%s", b1.String(), b2.String())
	}

	// A byte-identical copy under another name still dedupes (content
	// addressing, not path addressing).
	copyPath := filepath.Join(filepath.Dir(path), "copy.cst")
	data, _ := os.ReadFile(path)
	os.WriteFile(copyPath, data, 0o644)
	_, added, err = IngestTraceFile(st, copyPath, IngestOptions{})
	if err != nil || added {
		t.Fatalf("copy ingest: added=%v err=%v, want dedupe", added, err)
	}
}

func TestStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	spath := filepath.Join(dir, "m.csms")
	p1 := testTrace(t, "a.cst", false, 1000, time.Millisecond)
	p2 := testTrace(t, "b.cst", true, 500, 2*time.Millisecond)

	st := openStore(t, spath)
	r1, _, err := IngestTraceFile(st, p1, IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := IngestTraceFile(st, p2, IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.TraceVersion != 1 || r1.TraceVersion != 4 {
		t.Fatalf("trace versions = %d, %d", r1.TraceVersion, r2.TraceVersion)
	}
	var before bytes.Buffer
	r1.WriteText(&before)
	r2.WriteText(&before)
	st.Close()

	st2 := openStore(t, spath)
	if st2.Len() != 2 {
		t.Fatalf("reopened store rows = %d, want 2", st2.Len())
	}
	var after bytes.Buffer
	g1, err := st2.Find(r1.ID)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := st2.Find(r2.Hash)
	if err != nil {
		t.Fatal(err)
	}
	g1.WriteText(&after)
	g2.WriteText(&after)
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("rows changed across reopen:\n%s\n----\n%s", before.String(), after.String())
	}

	if _, err := st2.Find("deadbeef0000"); err == nil {
		t.Fatal("Find of unknown id succeeded")
	}
}

func TestStoreTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	spath := filepath.Join(dir, "m.csms")
	p1 := testTrace(t, "a.cst", false, 800, time.Millisecond)

	st := openStore(t, spath)
	if _, _, err := IngestTraceFile(st, p1, IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Simulate a crash mid-append: garbage past the last valid row.
	f, err := os.OpenFile(spath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x55, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02})
	f.Close()
	torn, _ := os.Stat(spath)

	st2 := openStore(t, spath)
	if st2.Len() != 1 {
		t.Fatalf("rows after torn tail = %d, want 1", st2.Len())
	}
	repaired, _ := os.Stat(spath)
	if repaired.Size() >= torn.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", torn.Size(), repaired.Size())
	}

	// The repaired store accepts further appends.
	p2 := testTrace(t, "b.cst", false, 900, time.Millisecond)
	if _, added, err := IngestTraceFile(st2, p2, IngestOptions{}); err != nil || !added {
		t.Fatalf("append after repair: added=%v err=%v", added, err)
	}
	st2.Close()
	if st3 := openStore(t, spath); st3.Len() != 2 {
		t.Fatalf("rows after repair+append = %d, want 2", st3.Len())
	}
}

// TestIngestSalvagesCrashedCapture: a torn capture ingests as its exact
// intact prefix, and — the store row being content-addressed — as the same
// row whatever parallelism read it: one record count, one warning, one
// summary.
func TestIngestSalvagesCrashedCapture(t *testing.T) {
	path := testTrace(t, "crash.cst", false, 6000, time.Millisecond)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the file mid-segment: no footer, no index, torn final frame.
	if err := os.WriteFile(path, data[:len(data)*6/10], 0o644); err != nil {
		t.Fatal(err)
	}
	var first *Run
	var firstSummary []byte
	for _, par := range []int{1, 2, sched.Auto} {
		st := openStore(t, filepath.Join(t.TempDir(), "m.csms"))
		run, added, err := IngestTraceFile(st, path, IngestOptions{Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !added {
			t.Fatalf("parallelism %d: salvaged ingest not added", par)
		}
		if run.Warning == "" {
			t.Fatalf("parallelism %d: salvaged ingest carries no warning", par)
		}
		if run.Records == 0 || run.Records >= 6000 {
			t.Fatalf("parallelism %d: salvaged records = %d, want 0 < n < 6000", par, run.Records)
		}
		summary, err := json.Marshal(run.Summary)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first, firstSummary = run, summary
			continue
		}
		if run.Records != first.Records {
			t.Errorf("parallelism %d: %d records, parallelism 1 ingested %d", par, run.Records, first.Records)
		}
		if run.Warning != first.Warning {
			t.Errorf("parallelism %d: warning %q, parallelism 1 said %q", par, run.Warning, first.Warning)
		}
		if !bytes.Equal(summary, firstSummary) {
			t.Errorf("parallelism %d: summary diverges from parallelism 1:\n got %s\nwant %s", par, summary, firstSummary)
		}
	}
}

func TestRecordWindowAndTrend(t *testing.T) {
	st := openStore(t, filepath.Join(t.TempDir(), "m.csms"))
	var wins []analysis.WindowStats
	rw := analysis.NewRollingWindow(time.Minute, func(w analysis.WindowStats) { wins = append(wins, w) })
	for i := 0; i < 5000; i++ {
		rw.Handle(trace.Record{
			T:   time.Duration(i) * 50 * time.Millisecond, // ~4 minutes
			Dir: trace.Direction(i & 1),
			App: uint16(60 + i%40),
		})
	}
	rw.Close()
	if len(wins) < 3 {
		t.Fatalf("windows = %d, want several", len(wins))
	}
	for _, w := range wins {
		if _, _, err := RecordWindow(st, w, "test", "", time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	// Re-recording the same windows dedupes on the window content hash.
	for _, w := range wins {
		if _, added, err := RecordWindow(st, w, "test", "", time.Time{}); err != nil || added {
			t.Fatalf("window re-record: added=%v err=%v", added, err)
		}
	}
	if st.Len() != len(wins) {
		t.Fatalf("store rows = %d, want %d", st.Len(), len(wins))
	}

	pts, err := Trend(st, "meankbs", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("trend points = %d, want 2 (last-n cut)", len(pts))
	}
	if pts[0].Value <= 0 || pts[1].Value <= 0 {
		t.Fatalf("trend values = %+v", pts)
	}
	if _, err := Trend(st, "nosuchmetric", 0); err == nil {
		t.Fatal("unknown metric accepted")
	}
	// Window rows carry no minute series: percentile metrics skip them.
	if pts, err := Trend(st, "p95kbs", 0); err != nil || len(pts) != 0 {
		t.Fatalf("p95kbs over window rows = %d points, err %v; want 0, nil", len(pts), err)
	}
}

func TestRecordScenarioSlotClasses(t *testing.T) {
	st := openStore(t, filepath.Join(t.TempDir(), "m.csms"))
	suite, err := analysis.NewSuite(analysis.SuiteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	suite.HandleBatch([]trace.Record{
		{T: time.Second, Dir: trace.In, App: 40},
		{T: 2 * time.Second, Dir: trace.Out, App: 200},
	})
	servers := []scenario.ServerResult{
		{Name: "s0", Game: gamesim.Config{Slots: 22}, Stats: gamesim.Stats{
			Duration: time.Hour, PacketsIn: 100, PacketsOut: 200, AppBytesIn: 4000, AppBytesOut: 40000, Established: 5,
		}},
		{Name: "s1", Game: gamesim.Config{Slots: 22}, Stats: gamesim.Stats{
			Duration: time.Hour, PacketsIn: 120, PacketsOut: 240, AppBytesIn: 5000, AppBytesOut: 50000, Established: 6,
		}},
		{Name: "s2", Game: gamesim.Config{Slots: 32}, Stats: gamesim.Stats{
			Duration: time.Hour, PacketsIn: 300, PacketsOut: 600, AppBytesIn: 9000, AppBytesOut: 90000, Established: 9,
		}},
	}
	hasher := NewStreamHasher()
	hasher.HandleBatch([]trace.Record{{T: time.Second, App: 40}})
	run, added, err := RecordScenario(st, ScenarioInfo{
		Hash:    hasher.Sum(),
		Source:  "test-spec",
		Label:   "launch",
		Horizon: time.Hour,
		Suite:   suite,
		Servers: servers,
	})
	if err != nil || !added {
		t.Fatalf("record scenario: added=%v err=%v", added, err)
	}
	if len(run.Servers) != 3 || run.TotalSlots() != 76 {
		t.Fatalf("servers = %+v", run.Servers)
	}
	if len(run.SlotClasses) != 2 {
		t.Fatalf("slot classes = %+v", run.SlotClasses)
	}
	if run.SlotClasses[0].Slots != 22 || run.SlotClasses[0].Servers != 2 {
		t.Fatalf("slot class 0 = %+v", run.SlotClasses[0])
	}
	if run.SlotClasses[1].Slots != 32 || run.SlotClasses[1].Servers != 1 {
		t.Fatalf("slot class 1 = %+v", run.SlotClasses[1])
	}
	// Per-slot trend picks up scenario rows only.
	pts, err := Trend(st, "perslotkbs", 0)
	if err != nil || len(pts) != 1 {
		t.Fatalf("perslotkbs trend = %v, %v", pts, err)
	}

	// show mentions the label and the classes.
	var buf bytes.Buffer
	run.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"launch", "slot class", "22-slot", "32-slot"} {
		if !strings.Contains(out, want) {
			t.Errorf("show output missing %q:\n%s", want, out)
		}
	}
}

func TestIngestRejectsBadHash(t *testing.T) {
	st := openStore(t, filepath.Join(t.TempDir(), "m.csms"))
	if _, _, err := st.Ingest(&Run{Hash: "short"}); err == nil {
		t.Fatal("short hash accepted")
	}
	if _, _, err := st.Ingest(&Run{Hash: "ZZZZZZZZZZZZZZZZ"}); err == nil {
		t.Fatal("non-hex hash accepted")
	}
}
