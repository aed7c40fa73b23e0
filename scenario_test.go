package cstrace

import (
	"bytes"
	"testing"
	"time"

	"cstrace/internal/analysis"
	"cstrace/internal/gamesim"
	"cstrace/internal/metricstore"
	"cstrace/internal/scenario"
	"cstrace/internal/trace"
)

// scenarioSpec returns a small heterogeneous fleet for tests: mixed sizes,
// staggered launches, a demand surge — every scenario feature on, short
// enough to run in CI.
func scenarioSpec(seed uint64, n int) Scenario {
	return Scenario{
		Seed:          seed,
		Servers:       n,
		Duration:      4 * time.Minute,
		Warmup:        2 * time.Minute,
		SlotMix:       []int{22, 32, 16},
		Stagger:       30 * time.Second,
		DiurnalSpread: 6 * time.Hour,
		SpikeMult:     4,
		SpikeDecay:    2 * time.Minute,
		RateScale:     5,
	}
}

// TestScenarioOneServerGolden is the merge's identity contract: a
// one-server scenario must produce a report byte-identical to plain
// Reproduce of the same server — the k-way merge degenerates to a
// pass-through.
func TestScenarioOneServerGolden(t *testing.T) {
	base := Quick(3)
	base.Game.Duration = 5 * time.Minute
	base.Game.Warmup = 5 * time.Minute
	base.Suite = analysis.DefaultSuiteConfig(base.Game.Duration)

	res, err := Reproduce(base)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.WriteReport(&want); err != nil {
		t.Fatal(err)
	}

	for _, parallel := range []int{0, 3} {
		sres, err := RunScenario(ScenarioConfig{
			Servers:     []scenario.ServerSpec{{Name: "solo", Game: base.Game}},
			Suite:       base.Suite,
			Parallelism: parallel,
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallel, err)
		}
		var got bytes.Buffer
		if err := sres.Aggregate.WriteReport(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("parallelism %d: one-server scenario report differs from Reproduce", parallel)
		}
	}
}

// TestScenarioDeterminism checks the fleet contract: an N-server scenario
// renders byte-identical reports across runs and Parallelism settings, even
// though the servers generate concurrently.
func TestScenarioDeterminism(t *testing.T) {
	var want []byte
	for run, parallel := range []int{0, 0, 3} {
		res, err := RunScenario(ScenarioConfig{
			Spec:        scenarioSpec(11, 3),
			Parallelism: parallel,
		})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		var buf bytes.Buffer
		if err := res.WriteReport(&buf); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Errorf("run %d (parallelism %d): fleet report not deterministic", run, parallel)
		}
	}
}

// TestScenarioAggregateConservation: every packet a server generates
// reaches its per-box collectors and, through the merge, the aggregate
// suite exactly once.
func TestScenarioAggregateConservation(t *testing.T) {
	res, err := RunScenario(ScenarioConfig{Spec: scenarioSpec(5, 3), PerServer: PerServerSlim})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, s := range res.Servers {
		sum += s.Stats.PacketsIn + s.Stats.PacketsOut
		if got := s.Slim.Count.Packets(); got != s.Stats.PacketsIn+s.Stats.PacketsOut {
			t.Errorf("%s: per-server slim set saw %d packets, generator emitted %d",
				s.Name, got, s.Stats.PacketsIn+s.Stats.PacketsOut)
		}
	}
	if got := res.Aggregate.Suite.Count.Packets(); got != sum {
		t.Errorf("aggregate suite saw %d packets, fleet generated %d", got, sum)
	}
	if res.Aggregate.TableII.TotalPackets != sum {
		t.Errorf("Table II total %d != generated %d", res.Aggregate.TableII.TotalPackets, sum)
	}
	if res.TotalSlots() != 22+32+16 {
		t.Errorf("TotalSlots = %d", res.TotalSlots())
	}
}

// TestScenarioSlimPerServer: each server's slim per-box set must agree
// exactly with a full paper suite fed that server's stream alone — its own
// gamesim.Run on its own clock — on the quantities both collect: counters
// and minute series.
func TestScenarioSlimPerServer(t *testing.T) {
	slim, err := RunScenario(ScenarioConfig{Spec: scenarioSpec(9, 3), PerServer: PerServerSlim})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range slim.Servers {
		if s.Slim == nil {
			t.Fatalf("server %d: slim mode collected nothing", i)
		}
		full, err := analysis.NewSuite(analysis.DefaultSuiteConfig(s.Game.Duration))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gamesim.Run(s.Game, full, full.Observe); err != nil {
			t.Fatal(err)
		}
		full.Close()
		ft2 := full.Count.TableII(s.Game.Duration)
		st2 := s.Slim.TableII()
		if ft2 != st2 {
			t.Errorf("server %d: slim Table II diverges from full suite:\nfull: %+v\nslim: %+v", i, ft2, st2)
		}
		fk, sk := full.Minutes.KbsTotal(), s.Slim.Minutes.KbsTotal()
		if len(fk) != len(sk) {
			t.Fatalf("server %d: minute series lengths %d vs %d", i, len(fk), len(sk))
		}
		for m := range fk {
			if fk[m] != sk[m] {
				t.Errorf("server %d: minute %d diverges: %v vs %v", i, m, fk[m], sk[m])
				break
			}
		}
	}
	none, err := RunScenario(ScenarioConfig{Spec: scenarioSpec(9, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if none.Servers[0].Slim != nil {
		t.Error("PerServerNone collected a slim set")
	}
}

// pinnedFleetSHA256 is the metricstore.StreamHasher digest of
// scenarioSpec(7, 3)'s merged stream (750 377 records) read back from its v4
// file: it pins the records the fleet generates, not the bytes the writer
// stores them as.
const pinnedFleetSHA256 = "defeb7b479bd04c834725e79dfb12f2724d6dba6ff9667ab822ea1657b5a3bf2"

// TestScenarioGenWorkersIsANoOp is the compatibility contract bench/ relies
// on: ScenarioConfig.GenWorkers (and each server's Game.Workers) is accepted
// at every value that used to mean something and changes nothing — the fleet
// stream is the pinned one, record for record.
func TestScenarioGenWorkersIsANoOp(t *testing.T) {
	for _, workers := range []int{0, 1, 4, AutoWorkers} {
		servers, err := scenarioSpec(7, 3).Build()
		if err != nil {
			t.Fatal(err)
		}
		for i := range servers {
			servers[i].Game.Workers = workers
		}
		var file bytes.Buffer
		w := trace.NewWriter(&file)
		w.Workers = 1
		if _, err := RunScenario(ScenarioConfig{
			Servers:     servers,
			Parallelism: 1,
			GenWorkers:  workers,
			PerServer:   PerServerSlim,
			Extra:       w,
		}); err != nil {
			t.Fatalf("GenWorkers %d: %v", workers, err)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("GenWorkers %d: %v", workers, err)
		}
		sh := metricstore.NewStreamHasher()
		n, err := trace.NewReader(&file).ReadAll(sh)
		if err != nil {
			t.Fatalf("GenWorkers %d: %v", workers, err)
		}
		if got := sh.Sum(); got != pinnedFleetSHA256 {
			t.Errorf("GenWorkers %d: %d records hash to %s, want %s", workers, n, got, pinnedFleetSHA256)
		}
	}
}

// TestScenarioExtraStreamIsTheFile: Extra receives the merged fleet stream
// strictly time-ordered, so a strict trace.Writer (no SortWindow) persists
// it as is and the content hash `-mode scenario -store` takes of the stream
// as it flows equals the hash of the records read back from the `-out` file
// — at every Parallelism setting, with identical file bytes.
func TestScenarioExtraStreamIsTheFile(t *testing.T) {
	var wantSum string
	var wantFile []byte
	for _, workers := range []int{1, 4, AutoWorkers} {
		var file bytes.Buffer
		w := trace.NewWriter(&file)
		w.Workers = workers
		flowing := metricstore.NewStreamHasher()
		_, err := RunScenario(ScenarioConfig{
			Spec:        scenarioSpec(7, 3),
			Parallelism: workers,
			PerServer:   PerServerSlim,
			Extra:       trace.Tee(w, flowing),
		})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("workers %d: strict writer refused the merged stream: %v", workers, err)
		}
		if wantFile == nil {
			wantSum, wantFile = flowing.Sum(), file.Bytes()
		} else if flowing.Sum() != wantSum || !bytes.Equal(file.Bytes(), wantFile) {
			t.Errorf("workers %d: merged stream or trace file differs from the serial run's", workers)
		}
		readBack := metricstore.NewStreamHasher()
		n, err := trace.NewReader(bytes.NewReader(file.Bytes())).ReadAll(readBack)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if readBack.Sum() != flowing.Sum() {
			t.Errorf("workers %d: file holds %d records hashing to %s, Extra saw a stream hashing to %s",
				workers, n, readBack.Sum(), flowing.Sum())
		}
	}
}
