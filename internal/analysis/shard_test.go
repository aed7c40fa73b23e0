package analysis

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"cstrace/internal/gamesim"
	"cstrace/internal/sched"
	"cstrace/internal/trace"
)

func shardWorkload(t testing.TB) gamesim.Config {
	cfg := gamesim.PaperConfig(11)
	cfg.Duration = 3 * time.Minute
	cfg.Warmup = 2 * time.Minute
	cfg.Outages = nil
	cfg.AttemptRate *= 5
	cfg.DiurnalAmp = 0
	return cfg
}

// suiteFingerprint extracts every collector result the reports are built
// from, so DeepEqual across pipeline modes is a whole-suite comparison.
func suiteFingerprint(s *Suite) map[string]any {
	tick, corr := s.Tick.Tick()
	fp := map[string]any{
		"tableII":  s.Count.TableII(s.Duration()),
		"tableIII": s.Count.TableIII(),
		"sizesIn":  s.Sizes.In.CDF(),
		"sizesOut": s.Sizes.Out.CDF(),
		"minutes":  s.Minutes.KbsTotal(),
		"pps":      s.Minutes.PPSTotal(),
		"flows":    s.Flows.NumFlows(),
		"flowHist": s.Flows.Histogram(30*time.Second, 150e3, 30).PDF(),
		"vt":       s.VT.Points(),
		"kinds":    s.Kinds.Rows(),
		"gapsInCV": s.Gaps.CV(trace.In),
		"gapsOut":  s.Gaps.Mean(trace.Out),
		"tick":     tick,
		"tickCorr": corr,
	}
	for _, w := range s.Windows {
		fp["window-"+w.Interval().String()] = w.TotalPPS()
	}
	return fp
}

func newTestSuite(t *testing.T, sc SuiteConfig) *Suite {
	t.Helper()
	s, err := NewSuite(sc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// workloadRecords generates the shard workload once, with the fingerprint
// of a serial suite fed the same records.
func workloadRecords(t *testing.T) (SuiteConfig, []trace.Record, map[string]any) {
	t.Helper()
	cfg := shardWorkload(t)
	sc := DefaultSuiteConfig(cfg.Duration)
	var recs trace.Collect
	if _, err := gamesim.Run(cfg, &recs, nil); err != nil {
		t.Fatal(err)
	}
	ref := newTestSuite(t, sc)
	ref.HandleBatch(recs.Records)
	ref.Close()
	return sc, recs.Records, suiteFingerprint(ref)
}

// TestShardedMatchesSingleThreaded: the same workload through the
// per-record path, the batch path and the sharded path at every worker
// count from 2 to 10 — every chunk shape of the nine-unit deal, and the
// clamp above it — yields identical collector state: the determinism
// contract of sharded mode. Run with -race to exercise the concurrency.
func TestShardedMatchesSingleThreaded(t *testing.T) {
	cfg := shardWorkload(t)
	sc := DefaultSuiteConfig(cfg.Duration)

	// Reference: per-record delivery (the legacy path) via an adapter that
	// hides the suite's BatchHandler from trace.Dispatch.
	ref := newTestSuite(t, sc)
	if _, err := gamesim.Run(cfg, trace.HandlerFunc(ref.Handle), ref.Observe); err != nil {
		t.Fatal(err)
	}
	ref.Close()
	want := suiteFingerprint(ref)

	batched := newTestSuite(t, sc)
	if _, err := gamesim.Run(cfg, batched, batched.Observe); err != nil {
		t.Fatal(err)
	}
	batched.Close()
	if got := suiteFingerprint(batched); !reflect.DeepEqual(want, got) {
		t.Errorf("batched suite diverges from per-record suite")
		diffFingerprint(t, want, got)
	}

	for workers := 2; workers <= 10; workers++ {
		s := newTestSuite(t, sc)
		sh := Shard(s, workers)
		if _, err := gamesim.Run(cfg, sh, sh.Observe); err != nil {
			t.Fatal(err)
		}
		sh.Close()
		if got := suiteFingerprint(s); !reflect.DeepEqual(want, got) {
			t.Errorf("sharded(%d) suite diverges from per-record suite", workers)
			diffFingerprint(t, want, got)
		}
		ds := sh.Depths()
		if len(ds) != min(workers, 9) {
			t.Errorf("sharded(%d): %d groups, want %d", workers, len(ds), min(workers, 9))
		}
		for _, d := range ds {
			if d.Blocks == 0 || d.Blocks != ds[0].Blocks {
				t.Errorf("sharded(%d): group %q saw %d blocks, group %q %d (every group sees every block)",
					workers, d.Name, d.Blocks, ds[0].Name, ds[0].Blocks)
			}
		}
	}
}

// TestShardDealsEvenChunks pins the deal: the nine units in order, in
// contiguous chunks whose sizes differ by at most one, earlier groups
// taking the remainder, with the worker count clamped to [2, 9].
func TestShardDealsEvenChunks(t *testing.T) {
	for _, c := range []struct {
		workers int
		want    []string
	}{
		{1, []string{"count+sizes+flows+kinds+minutes", "vt+windows+gaps+tick"}},
		{2, []string{"count+sizes+flows+kinds+minutes", "vt+windows+gaps+tick"}},
		{4, []string{"count+sizes+flows", "kinds+minutes", "vt+windows", "gaps+tick"}},
		{12, []string{"count", "sizes", "flows", "kinds", "minutes", "vt", "windows", "gaps", "tick"}},
	} {
		sh := Shard(newTestSuite(t, SuiteConfig{Duration: time.Hour}), c.workers)
		sh.Close()
		var got []string
		for _, d := range sh.Depths() {
			got = append(got, d.Name)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Shard(%d) groups = %v, want %v", c.workers, got, c.want)
		}
	}
}

func diffFingerprint(t *testing.T, want, got map[string]any) {
	t.Helper()
	for k := range want {
		if !reflect.DeepEqual(want[k], got[k]) {
			t.Logf("  %s differs", k)
		}
	}
}

// TestShardedRecordPath: records delivered one at a time into a sharded
// suite re-batch internally and still match.
func TestShardedRecordPath(t *testing.T) {
	sc, recs, want := workloadRecords(t)
	s := newTestSuite(t, sc)
	sh := Shard(s, 3)
	for _, r := range recs {
		sh.Handle(r)
	}
	sh.Close()
	// The record-only feeds carry no session events, so the player series
	// is empty in both; everything else must match exactly.
	if got := suiteFingerprint(s); !reflect.DeepEqual(want, got) {
		t.Errorf("sharded record path diverges")
		diffFingerprint(t, want, got)
	}
}

// TestShardedIngestBlockMatchesHandleBatch: the zero-copy IngestBlock path
// (trace.BlockIngester, fed by the parallel reader's direct decode-to-shard
// delivery) must produce collector state identical to the serial suite —
// including with irregular block sizes like the partial blocks a segment
// decoder emits. Run with -race to exercise the fan-out.
func TestShardedIngestBlockMatchesHandleBatch(t *testing.T) {
	sc, recs, want := workloadRecords(t)
	for _, workers := range []int{2, 4, 5} {
		s := newTestSuite(t, sc)
		sh := Shard(s, workers)
		// Deliver through owned blocks of irregular sizes (a partial block
		// every few, like segment tails).
		for i := 0; i < len(recs); {
			size := trace.BlockSize
			if (i/trace.BlockSize)%3 == 2 {
				size = trace.BlockSize / 5
			}
			size = min(size, len(recs)-i)
			blk := trace.NewBlock()
			*blk = append(*blk, recs[i:i+size]...)
			sh.IngestBlock(blk)
			i += size
		}
		sh.Close()
		if got := suiteFingerprint(s); !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: IngestBlock suite diverges from HandleBatch suite", workers)
			diffFingerprint(t, want, got)
		}
	}
}

// columnsOf transposes records into a pooled column block, as the v4
// decoder would deliver them.
func columnsOf(rs []trace.Record) *trace.ColumnBlock {
	cb := trace.NewColumnBlock()
	for _, r := range rs {
		cb.T = append(cb.T, r.T)
		cb.Flags = append(cb.Flags, uint8(r.Dir)|uint8(r.Kind)<<1)
		cb.Client = append(cb.Client, r.Client)
		cb.App = append(cb.App, r.App)
	}
	return cb
}

// TestShardedMixedFeeds: one shard fed through all four of its entry
// points in turn — single records and a partial batch that leave records
// pending, each followed by an ownership-transferring block or column
// delivery that must flush them first — matches the serial suite at every
// worker count.
func TestShardedMixedFeeds(t *testing.T) {
	sc, recs, want := workloadRecords(t)
	for workers := 2; workers <= 10; workers++ {
		s := newTestSuite(t, sc)
		sh := Shard(s, workers)
		feeds := []struct {
			size int
			feed func([]trace.Record)
		}{
			{701, func(rs []trace.Record) {
				for _, r := range rs {
					sh.Handle(r)
				}
			}},
			{trace.BlockSize / 2, func(rs []trace.Record) {
				blk := trace.NewBlock()
				*blk = append(*blk, rs...)
				sh.IngestBlock(blk)
			}},
			{trace.BlockSize + 333, sh.HandleBatch},
			{trace.BlockSize, func(rs []trace.Record) { sh.IngestColumns(columnsOf(rs)) }},
		}
		for i, k := 0, 0; i < len(recs); k++ {
			f := feeds[k%len(feeds)]
			n := min(f.size, len(recs)-i)
			f.feed(recs[i : i+n])
			i += n
		}
		sh.Close()
		if got := suiteFingerprint(s); !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: mixed-feed shard diverges from the serial suite", workers)
			diffFingerprint(t, want, got)
		}
	}
}

// TestShardedCloseIdempotent: Close twice is safe and the suite finalizes
// once.
func TestShardedCloseIdempotent(t *testing.T) {
	s := newTestSuite(t, DefaultSuiteConfig(time.Minute))
	sh := Shard(s, 3)
	sh.HandleBatch([]trace.Record{{T: time.Second, Dir: trace.Out, App: 100}})
	sh.Close()
	sh.Close()
	if got := s.Count.Packets(); got != 1 {
		t.Fatalf("packets = %d, want 1", got)
	}
}

// TestSinkAutoFollowsBudget: Sink(sched.Auto) must resolve to a plain
// serial suite when the budget is one core (the CI box contract: auto
// equals hand-tuned serial) and to a shard holding exactly its grant when
// cores are free — releasing its budget share at close either way.
func TestSinkAutoFollowsBudget(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(1)
	h, closeSink := newTestSuite(t, SuiteConfig{Duration: time.Hour}).Sink(sched.Auto)
	if _, sharded := h.(*ShardedSuite); sharded {
		t.Error("one-core budget: Sink(Auto) must be the serial suite")
	}
	closeSink()

	runtime.GOMAXPROCS(4)
	h2, closeSink2 := newTestSuite(t, SuiteConfig{Duration: time.Hour}).Sink(sched.Auto)
	sh, sharded := h2.(*ShardedSuite)
	if !sharded {
		t.Fatalf("four-core budget: Sink(Auto) = %T, want *ShardedSuite", h2)
	}
	if free := sched.Default().Free(); free != 4-len(sh.workers) {
		t.Errorf("budget free %d while the auto sink holds %d workers of 4", free, len(sh.workers))
	}
	closeSink2()
	if free := sched.Default().Free(); free != 4 {
		t.Errorf("budget free %d after close, want 4 (lease leaked)", free)
	}
}
