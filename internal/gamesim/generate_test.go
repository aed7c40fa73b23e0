package gamesim

import (
	"testing"
	"time"

	"cstrace/internal/sched"
	"cstrace/internal/trace"
)

// hashRun executes the config and returns a record count, an order-sensitive
// stream hash and the run statistics.
func hashRun(t *testing.T, cfg Config) (int, uint64, Stats) {
	t.Helper()
	var n int
	var sum uint64
	st, err := Run(cfg, trace.HandlerFunc(func(r trace.Record) {
		n++
		sum = streamHash(sum, r)
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	return n, sum, st
}

// streamHash folds one record into an order-sensitive stream hash.
func streamHash(sum uint64, r trace.Record) uint64 {
	return sum*1099511628211 ^ uint64(r.T) ^ uint64(r.App)<<32 ^ uint64(r.Client) ^ uint64(r.Kind)<<48 ^ uint64(r.Dir)<<52
}

// TestParallelGenerationByteIdentical is the determinism contract of the
// worker-based fill stage: the record stream and statistics are identical at
// every Workers setting, including across an outage and a map change, after
// a warm-up that crosses a map change itself (the survivors' catch-up spans
// a pause and recording starts mid-map).
func TestParallelGenerationByteIdentical(t *testing.T) {
	base := shortConfig(21, 8*time.Minute)
	base.Warmup = 6 * time.Minute
	base.Outages = []Outage{{At: 3 * time.Minute, Duration: 10 * time.Second}}

	wantN, wantSum, wantSt := 0, uint64(0), Stats{}
	for i, workers := range []int{0, 1, 2, 4, 8, sched.Auto} {
		cfg := base
		cfg.Workers = workers
		n, sum, st := hashRun(t, cfg)
		if i == 0 {
			wantN, wantSum, wantSt = n, sum, st
			if n == 0 {
				t.Fatal("no traffic generated")
			}
			continue
		}
		if n != wantN || sum != wantSum {
			t.Errorf("Workers=%d: stream differs from serial (n=%d/%d hash=%x/%x)", workers, n, wantN, sum, wantSum)
		}
		if st != wantSt {
			t.Errorf("Workers=%d: stats differ:\nserial:   %+v\nparallel: %+v", workers, st, wantSt)
		}
	}
}

// TestStreamStrictlyTimeOrdered pins the new ordering contract: the
// generator's emitted stream is globally non-decreasing in time (each window
// is sorted before delivery and window ranges never overlap), so downstream
// consumers — the trace writer, the NAT queueing model, the order-sensitive
// collectors — need no SortBuffer.
func TestStreamStrictlyTimeOrdered(t *testing.T) {
	for _, workers := range []int{0, 3} {
		cfg := shortConfig(11, 6*time.Minute)
		cfg.Workers = workers
		var prev time.Duration
		var n int
		if _, err := Run(cfg, trace.HandlerFunc(func(r trace.Record) {
			if r.T < prev {
				t.Fatalf("Workers=%d: record at %v after %v", workers, r.T, prev)
			}
			prev = r.T
			n++
		}), nil); err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("no traffic generated")
		}
	}
}

// TestParallelGenerationBlocksArePerWindow checks the block contract the
// scenario merge depends on: each delivered batch spans less than one tick
// window, at every Workers setting.
func TestParallelGenerationBlocksArePerWindow(t *testing.T) {
	for _, workers := range []int{0, 4} {
		cfg := shortConfig(13, 4*time.Minute)
		cfg.Workers = workers
		var worst time.Duration
		if _, err := Run(cfg, batchSpan(&worst), nil); err != nil {
			t.Fatal(err)
		}
		if worst >= cfg.TickInterval {
			t.Errorf("Workers=%d: a delivered block spans %v, want < one tick (%v)", workers, worst, cfg.TickInterval)
		}
	}
}

type batchSpanHandler struct{ worst *time.Duration }

func batchSpan(worst *time.Duration) *batchSpanHandler { return &batchSpanHandler{worst: worst} }

func (b *batchSpanHandler) Handle(trace.Record) {}

func (b *batchSpanHandler) HandleBatch(rs []trace.Record) {
	if len(rs) == 0 {
		return
	}
	span := rs[len(rs)-1].T - rs[0].T
	if span > *b.worst {
		*b.worst = span
	}
}
