package scenario

import (
	"testing"
	"time"

	"cstrace/internal/gamesim"
	"cstrace/internal/trace"
)

func testSpec(seed uint64, n int) Spec {
	return Spec{
		Seed:      seed,
		Servers:   n,
		Duration:  3 * time.Minute,
		Warmup:    time.Minute,
		SlotMix:   []int{22, 32},
		Stagger:   20 * time.Second,
		SpikeMult: 4,
		RateScale: 5,
	}
}

// TestBuildExpandsSpec checks the declarative expansion: seeds diverge,
// slot/tick mixes cycle, demand scales with capacity, offsets stagger.
func TestBuildExpandsSpec(t *testing.T) {
	sp := testSpec(9, 4)
	sp.TickMix = []time.Duration{50 * time.Millisecond, 100 * time.Millisecond}
	servers, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) != 4 {
		t.Fatalf("built %d servers", len(servers))
	}
	base := gamesim.PaperConfig(1)
	for i, s := range servers {
		if s.Game.Seed == base.Seed || (i > 0 && s.Game.Seed == servers[0].Game.Seed) {
			t.Errorf("server %d: seed not derived independently", i)
		}
		wantSlots := sp.SlotMix[i%2]
		if s.Game.Slots != wantSlots {
			t.Errorf("server %d: slots = %d, want %d", i, s.Game.Slots, wantSlots)
		}
		if s.Game.TickInterval != sp.TickMix[i%2] {
			t.Errorf("server %d: tick = %v", i, s.Game.TickInterval)
		}
		if want := time.Duration(i) * sp.Stagger; s.StartOffset != want {
			t.Errorf("server %d: offset = %v, want %v", i, s.StartOffset, want)
		}
		// Demand tracks capacity: the 32-slot boxes draw ~32/22 the rate.
		wantRate := base.AttemptRate * sp.RateScale * float64(wantSlots) / float64(base.Slots)
		if got := s.Game.AttemptRate; got < wantRate*0.999 || got > wantRate*1.001 {
			t.Errorf("server %d: attempt rate %.4f, want %.4f", i, got, wantRate)
		}
		if err := s.Game.Validate(); err != nil {
			t.Errorf("server %d: built config invalid: %v", i, err)
		}
	}
}

// TestBuildRejectsZeroTick: a zero tick must come back as an error from
// Build, not a divide-by-zero panic.
func TestBuildRejectsZeroTick(t *testing.T) {
	sp := testSpec(1, 2)
	sp.TickMix = []time.Duration{0}
	if _, err := sp.Build(); err == nil {
		t.Error("zero tick interval accepted by Build")
	}
}

// TestMergedStreamStrictlyOrdered feeds the merged stream of a staggered,
// mixed-tick fleet — one server on a 250 ms tick, coarser than anything the
// old block merge could take — through an Extra handler and asserts what
// every consumer now relies on: timestamps never decrease, every generated
// record arrives exactly once, and the stream covers the staggered horizon.
func TestMergedStreamStrictlyOrdered(t *testing.T) {
	sp := testSpec(4, 3)
	sp.TickMix = []time.Duration{50 * time.Millisecond, 250 * time.Millisecond, 100 * time.Millisecond}
	servers, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Servers: servers}
	var last time.Duration
	var n, regressions int64
	cfg.Extra = trace.HandlerFunc(func(r trace.Record) {
		if r.T < last {
			regressions++
		}
		last = r.T
		n++
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 0 {
		t.Errorf("merged stream goes back in time %d times", regressions)
	}
	if want := res.Stats.PacketsIn + res.Stats.PacketsOut; n != want || res.Suite.Count.Packets() != want {
		t.Errorf("Extra saw %d records, the aggregate suite %d, the generators emitted %d",
			n, res.Suite.Count.Packets(), want)
	}
	if horizon := cfg.Horizon(); last < horizon-time.Minute {
		t.Errorf("last record at %v, staggered horizon %v: offsets not applied", last, horizon)
	}
	if res.Horizon != 3*time.Minute+2*20*time.Second {
		t.Errorf("horizon = %v", res.Horizon)
	}
}

// TestLaunchSpikeRaisesDemand: the gamesim surge knob must actually surge —
// the same seed with a 6× spike draws substantially more attempts inside
// the decay window than without.
func TestLaunchSpikeRaisesDemand(t *testing.T) {
	base := gamesim.PaperConfig(2)
	base.Duration = 10 * time.Minute
	base.Warmup = 0
	base.Outages = nil
	base.DiurnalAmp = 0

	spiked := base
	spiked.SpikeMult = 6
	spiked.SpikeDecay = 5 * time.Minute

	flat, err := gamesim.Run(base, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	surged, err := gamesim.Run(spiked, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if surged.Attempts < 2*flat.Attempts {
		t.Errorf("spike barely moved demand: %d attempts vs %d flat", surged.Attempts, flat.Attempts)
	}
}

// TestSpikeValidation: a surge without a decay constant is a config error.
func TestSpikeValidation(t *testing.T) {
	cfg := gamesim.PaperConfig(1)
	cfg.SpikeMult = 3
	cfg.SpikeDecay = 0
	if err := cfg.Validate(); err == nil {
		t.Error("SpikeMult > 1 with zero SpikeDecay accepted")
	}
}
