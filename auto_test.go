package cstrace

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"cstrace/internal/trace"
)

// TestAutoParallelByteIdentical is the self-tuning determinism contract,
// end to end: the full gen → scenario-merge → persist → analyze pipeline
// produces byte-identical scenario reports, byte-identical trace files and
// byte-identical re-analysis reports whether every worker knob is serial,
// hand-tuned, or AutoWorkers — and whatever the machine looks like
// (GOMAXPROCS 1, 4, 8, which also moves the auto worker budget). Run under
// -race in CI, this is the harness that locks down the adaptive shard, the
// worker budget and the tournament merge at once.
func TestAutoParallelByteIdentical(t *testing.T) {
	spec := Scenario{
		Seed:       17,
		Servers:    3,
		Duration:   90 * time.Second,
		Warmup:     time.Minute,
		SlotMix:    []int{22, 32, 16},
		Stagger:    10 * time.Second,
		SpikeMult:  4,
		SpikeDecay: time.Minute,
		RateScale:  5,
	}
	modes := []struct {
		name string
		par  int
	}{
		{"serial", 1},
		{"tuned", 4},
		{"auto", AutoWorkers},
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var wantReport, wantTrace, wantAnalysis []byte
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, m := range modes {
			var traceBuf bytes.Buffer
			w := trace.NewWriter(&traceBuf)
			w.SortWindow = 200 * time.Millisecond
			w.Workers = m.par

			res, err := RunScenario(ScenarioConfig{
				Spec:        spec,
				Parallelism: m.par,
				Extra:       w,
			})
			if err != nil {
				t.Fatalf("procs=%d %s: %v", procs, m.name, err)
			}
			if err := w.Flush(); err != nil {
				t.Fatalf("procs=%d %s: flush: %v", procs, m.name, err)
			}
			var report bytes.Buffer
			if err := res.WriteReport(&report); err != nil {
				t.Fatal(err)
			}

			a, err := AnalyzeTrace(bytes.NewReader(traceBuf.Bytes()), m.par)
			if err != nil {
				t.Fatalf("procs=%d %s: analyze: %v", procs, m.name, err)
			}
			var analysisOut bytes.Buffer
			if err := a.WriteReport(&analysisOut); err != nil {
				t.Fatal(err)
			}

			if wantReport == nil {
				wantReport = report.Bytes()
				wantTrace = traceBuf.Bytes()
				wantAnalysis = analysisOut.Bytes()
				continue
			}
			if !bytes.Equal(report.Bytes(), wantReport) {
				t.Errorf("procs=%d %s: scenario report differs from serial/1-proc reference", procs, m.name)
			}
			if !bytes.Equal(traceBuf.Bytes(), wantTrace) {
				t.Errorf("procs=%d %s: persisted trace differs from serial/1-proc reference", procs, m.name)
			}
			if !bytes.Equal(analysisOut.Bytes(), wantAnalysis) {
				t.Errorf("procs=%d %s: re-analysis report differs from serial/1-proc reference", procs, m.name)
			}
		}
	}
}
