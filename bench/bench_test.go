package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cstrace/internal/analysis"
	"cstrace/internal/trace"
)

// tinyPlan does every phase once or twice at a size that takes a moment.
var tinyPlan = plan{setups: 1, measure: true, minReps: 2, traced: true, legReps: 1, probeReps: 1}

const tinyScale = 0.02

func tinyEnv(t *testing.T, w *workload) *runEnv {
	return &runEnv{dir: t.TempDir(), seed: 11, sz: w.size(tinyScale)}
}

// TestWorkloads runs every workload end to end: digests agree across reps,
// legs and the serial twin (the torn file's salvaged prefix and the replay
// that must add nothing are checked inside the ingest job), and every named
// metric comes out once, with its unit and a finite value.
func TestWorkloads(t *testing.T) {
	emitted := map[string]string{}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, tinyEnv(t, w), tinyPlan)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 || res.FailRatio != 0 {
				t.Fatalf("attempted %d failed %d: %v", res.Attempted, res.Failed, res.Failures)
			}
			if res.Reps != tinyPlan.minReps || res.Quiet > res.Reps || res.Records == 0 || res.Digest == "" {
				t.Fatalf("reps %d (%d quiet) records %d digest %q", res.Reps, res.Quiet, res.Records, res.Digest)
			}
			if w.name == "ingest" && res.Attempted%(res.Sizes.Files+1) != 0 {
				t.Errorf("ingest attempted %d ops, not a multiple of %d files", res.Attempted, res.Sizes.Files+1)
			}

			defs := map[string]metricDef{}
			for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
				if _, dup := defs[d.Name]; dup {
					t.Errorf("metric %s is defined twice", d.Name)
				}
				defs[d.Name] = d
			}
			for _, d := range endToEnd {
				if v, ok := res.EndToEnd[d.Name]; !ok || v.Value <= 0 {
					t.Errorf("end-to-end %s = %+v, want a positive reading", d.Name, v)
				}
			}
			for name, v := range mergeValues(res.EndToEnd, res.PerLayer) {
				d, ok := defs[name]
				if !ok {
					t.Errorf("%s is emitted but not in the registry", name)
					continue
				}
				if v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.N == 0 {
					t.Errorf("%s = %+v, want a finite value in %s with a sample count", name, v, d.Unit)
				}
				emitted[name] = w.name
			}
			line := driverResult(res, "both")
			if len(line.Metrics) != len(defs) || !line.Correct {
				t.Errorf("driver line has %d metrics (correct=%v), want %d", len(line.Metrics), line.Correct, len(defs))
			}
			if n := len(driverResult(res, "0").Metrics); n != len(endToEnd) {
				t.Errorf("-trace 0 prints %d metrics, want %d", n, len(endToEnd))
			}
			if n := len(driverResult(res, "1").Metrics); n != len(perLayer) {
				t.Errorf("-trace 1 prints %d metrics, want %d", n, len(perLayer))
			}

			// Results and trace files survive a round trip.
			dir := t.TempDir()
			file := resultsFile{Env: readEnvironment(), Seed: 11, Workloads: []*workloadResult{res}}
			path := filepath.Join(dir, "results.json")
			if err := writeJSON(path, &file); err != nil {
				t.Fatal(err)
			}
			back, err := loadResults(path)
			if err != nil {
				t.Fatal(err)
			}
			res.trace = nil
			if !reflect.DeepEqual(&file, back) {
				t.Errorf("results file changed in a round trip:\n%+v\n%+v", file.Workloads[0], back.Workloads[0])
			}
		})
	}
	for _, d := range perLayer {
		if emitted[d.Name] == "" {
			t.Errorf("no workload emits %s", d.Name)
		}
	}
}

func mergeValues(ms ...map[string]value) map[string]value {
	out := map[string]value{}
	for _, m := range ms {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}

func TestTraceFileRoundTrip(t *testing.T) {
	w := findWorkload("analyze")
	res, err := runWorkload(w, tinyEnv(t, w), plan{setups: 1, traced: true, legReps: 2, probeReps: 1})
	if err != nil {
		t.Fatal(err)
	}
	tf := traceFile{Workload: w.name, Seed: 11, Spans: res.trace.spans, Self: res.trace.selfTimes(), Counts: res.trace.counts, Probes: res.Probes}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeJSON(path, &tf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back traceFile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tf, back) {
		t.Error("trace file changed in a round trip")
	}

	// Both legs, both reps; every span closed inside its parent; self time
	// never exceeds the span's own.
	byID := map[int]span{}
	seen := map[string]int{}
	for _, s := range back.Spans {
		byID[s.ID] = s
		if s.Name == "job" {
			seen[s.Leg]++
		}
	}
	if seen[serial.name] != 2 || seen[auto.name] != 2 {
		t.Errorf("job spans per leg = %v, want 2 and 2", seen)
	}
	for _, s := range back.Spans {
		if s.EndNS < s.StartNS || s.BusyNS > s.EndNS-s.StartNS {
			t.Errorf("span %+v is inside out", s)
		}
		if p, ok := byID[s.Parent]; s.Parent != 0 && (!ok || s.StartNS < p.StartNS || s.EndNS > p.EndNS) {
			t.Errorf("span %+v is not inside its parent %+v", s, p)
		}
	}
	for _, st := range back.Self {
		if st.SelfNS > st.TimeNS || st.SelfNS < 0 {
			t.Errorf("self time %+v", st)
		}
	}
	if back.Counts["analysis.sink.records"] != 4*res.Records {
		t.Errorf("sinks saw %d records over 4 traced reps of %d", back.Counts["analysis.sink.records"], res.Records)
	}
}

// TestTimedSinkKeepsDeliveryPath: the reader picks its path from the
// interfaces its sink offers, so the interposed sink must offer exactly what
// it wraps.
func TestTimedSinkKeepsDeliveryPath(t *testing.T) {
	w := findWorkload("analyze")
	env := tinyEnv(t, w)
	if err := w.setup(env); err != nil {
		t.Fatal(err)
	}
	read := func(sink trace.Handler, workers int) (*boundary, int64) {
		f, err := os.Open(env.path("analyze.cst"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		b := (&legTrace{t: newTracer()}).boundary("sink", 0)
		n, err := trace.NewReader(f).ReadAllSharded(timedSink(sink, b), workers)
		if err != nil {
			t.Fatal(err)
		}
		return b, n
	}

	// Bare, a null ColumnIngester gets columns; wrapped, it still does.
	bare := &nullColumns{}
	f, err := os.Open(env.path("analyze.cst"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	total, err := trace.NewReader(f).ReadAllSharded(bare, 2)
	if err != nil || bare.cols == 0 {
		t.Fatalf("bare column sink: %d column blocks, err %v", bare.cols, err)
	}
	inner := &nullColumns{}
	b, n := read(inner, 2)
	if n != total || b.columns == 0 || b.columns != inner.cols || b.blocks+b.batches != 0 || b.records != total {
		t.Errorf("wrapped column sink: %+v, inner saw %d column blocks of %d records", b, inner.cols, total)
	}

	// The real thing: a sharded suite behind the wrapper ingests columns.
	suite, err := analysis.NewSuite(analysis.SuiteConfig{SortedInput: true})
	if err != nil {
		t.Fatal(err)
	}
	sink, closeSink := suite.Sink(2)
	b, n = read(sink, 2)
	closeSink()
	if b.columns == 0 || n != total || suite.Count.Packets() != total {
		t.Errorf("sharded suite behind the wrapper: %+v, counted %d of %d", b, suite.Count.Packets(), total)
	}

	// One interface fewer each time, and the wrapper follows.
	if b, _ := read(nullBlocks{}, 2); b.blocks == 0 || b.columns != 0 {
		t.Errorf("block sink: %+v", b)
	}
	if b, _ := read(nullBatch{}, 2); b.batches == 0 || b.blocks+b.columns != 0 {
		t.Errorf("batch sink: %+v", b)
	}
	var h trace.Handler = timedSink(nullBatch{}, &boundary{})
	if _, ok := h.(trace.BlockIngester); ok {
		t.Error("wrapper around a batch sink offers IngestBlock")
	}
	h = timedSink(trace.HandlerFunc(func(trace.Record) {}), &boundary{})
	if _, ok := h.(trace.BatchHandler); ok {
		t.Error("wrapper around a record sink offers HandleBatch")
	}
}

// TestTimedFileKeepsSync: a Writer with SyncEvery only fsyncs a destination
// that has a Sync method.
func TestTimedFileKeepsSync(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "t.cst"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tf := &timedFile{f: f}
	w := trace.NewWriter(tf)
	w.SyncEvery = 1
	w.SegmentPayload = 1 << 10
	for i := range 2000 {
		w.Handle(trace.Record{T: time.Duration(i) * time.Millisecond, Client: uint32(i % 7), App: 40})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(tf.syncs) < 2 || tf.bytes == 0 {
		t.Errorf("%d syncs over %d bytes, want one per sealed segment", len(tf.syncs), tf.bytes)
	}
}

func TestTearFileLeavesASalvageablePrefix(t *testing.T) {
	w := findWorkload("ingest")
	env := tinyEnv(t, w)
	if err := w.setup(env); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(env.path("spool"), tornName)
	f, err := os.Open(torn)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, _ := f.Stat()
	if _, err := trace.ReadIndex(f, st.Size()); err == nil {
		t.Fatal("torn file still has a readable index")
	}
	ix, rep, err := trace.Recover(f, st.Size())
	if err != nil || rep.Sealed || rep.Records == 0 || rep.DroppedBytes() == 0 || len(ix.Segments) == 0 {
		t.Errorf("recover: %v %v", rep, err)
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the tables in
// metrics.go and workloads.go saying the same thing.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if errors.Is(err, os.ErrNotExist) {
		t.Skip("no BENCHMARK.json above the benchmark directory")
	}
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%+v\n%+v", spec.PerLayer, perLayer)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
}

func TestCompare(t *testing.T) {
	def := metricDef{Name: "mrec_s", Unit: "Mrec/s", Better: higher, Bound: 0.10}
	steady := func(m float64) value {
		xs := []float64{m * 0.99, m, m * 1.01, m, m * 1.005}
		return sampled(def.Unit, xs)
	}
	wide := sampled(def.Unit, []float64{2, 6, 10, 14, 18})
	for _, c := range []struct {
		name string
		a, b value
		want string
	}{
		{"same", steady(10), steady(10), "ok"},
		{"inside the bound", steady(10), steady(9.2), "ok"},
		{"past the bound", steady(10), steady(8.5), "regressed"},
		{"better", steady(10), steady(13), "ok"},
		{"own spread wider than the bound", wide, steady(10), "unresolved"},
		{"wide but every reading better", wide, steady(20), "ok"},
	} {
		if got, _ := verdict(def, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	low := metricDef{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25}
	if got, worse := verdict(low, value{Value: 1}, value{Value: 1.3}); got != "regressed" || math.Abs(worse-0.3) > 1e-9 {
		t.Errorf("lower-is-better: %s %v", got, worse)
	}

	// Files that did not run the same jobs are refused.
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := writeJSON(spec, map[string]any{"end_to_end": endToEnd}); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]value{}
	for _, d := range endToEnd {
		e2e[d.Name] = value{Value: 1, Unit: d.Unit, N: 1}
	}
	base := resultsFile{Env: environment{GOMAXPROCS: 2}, Seed: 11, Workloads: []*workloadResult{
		{Name: "persist", Sizes: sizes{Duration: 60}, EndToEnd: e2e}}}
	write := func(name string, edit func(*resultsFile)) string {
		r := base
		r.Workloads = []*workloadResult{{Name: "persist", Sizes: sizes{Duration: 60}, EndToEnd: e2e}}
		edit(&r)
		path := filepath.Join(dir, name)
		if err := writeJSON(path, &r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", func(*resultsFile) {})
	var out strings.Builder
	if code, err := compareFiles(&out, spec, a, a); code != 0 || err != nil {
		t.Errorf("a file against itself: code %d, %v\n%s", code, err, out.String())
	}
	if n := strings.Count(out.String(), " ok\n"); n != len(endToEnd) {
		t.Errorf("%d ok verdicts, want %d:\n%s", n, len(endToEnd), out.String())
	}
	for name, edit := range map[string]func(*resultsFile){
		"procs": func(r *resultsFile) { r.Env.GOMAXPROCS = 4 },
		"seed":  func(r *resultsFile) { r.Seed = 12 },
		"sizes": func(r *resultsFile) { r.Workloads[0].Sizes.Duration = 120 },
	} {
		if code, err := compareFiles(&out, spec, a, write(name+".json", edit)); code != 2 || err == nil {
			t.Errorf("differing %s: code %d, %v; want a refusal", name, code, err)
		}
	}
	slow := write("slow.json", func(r *resultsFile) {
		m := mergeValues(e2e)
		m["mrec_s"] = value{Value: 0.5, Unit: "Mrec/s", N: 1}
		r.Workloads[0].EndToEnd = m
	})
	out.Reset()
	if code, _ := compareFiles(&out, spec, a, slow); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("halved throughput: code %d\n%s", code, out.String())
	}
}
