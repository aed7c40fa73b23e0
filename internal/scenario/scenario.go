// Package scenario runs multi-server fleet simulations: N independent
// gamesim servers — each with its own seed, slot count, tickrate, diurnal
// phase and start offset — generated concurrently on worker goroutines and
// merged into one strictly time-ordered record stream by a deterministic
// record-level k-way merge.
//
// This is the "Microsoft or Sony launch" scale the paper's provisioning
// argument (§V) gestures at: the single busy server the paper measured is
// highly predictable, but an operator plans for the aggregate of many such
// servers, with staggered peaks, heterogeneous sizes and release-day demand
// surges. The merged stream feeds a single analysis.Suite (optionally
// sharded across cores), so every table and figure of the paper can be
// produced for the fleet aggregate; per-server suites can be collected
// alongside for per-box vs aggregate comparison.
//
// The merge is deterministic by construction: a tournament over the
// streams' next records emits them in (timestamp, minimum timestamp of the
// record's per-tick block, server index) order, with per-server order
// preserved by the streams' FIFO channels, and re-blocks the result at fixed
// size, so the merged stream — and therefore the rendered report and any
// trace file written from it — is byte-identical across runs and across
// Parallelism settings. A one-server scenario degenerates to exactly the
// records plain Reproduce sees.
package scenario

import (
	"errors"
	"fmt"
	"time"

	"cstrace/internal/analysis"
	"cstrace/internal/gamesim"
	"cstrace/internal/trace"
)

// ServerSpec is one fully-specified server in a fleet.
type ServerSpec struct {
	// Name labels the server in per-server results ("srv03" if empty).
	Name string
	// Game is the server's workload model.
	Game gamesim.Config
	// StartOffset shifts every record and event timestamp: the server's
	// recorded window begins this long after the fleet trace starts.
	StartOffset time.Duration
}

// Spec declares a fleet without spelling out every server: Build expands it
// into per-server gamesim configurations derived from the paper's
// calibration.
type Spec struct {
	// Seed derives every server's independent seed.
	Seed uint64
	// Servers is the fleet size.
	Servers int
	// Duration is each server's recorded window (0 = 30 minutes).
	Duration time.Duration
	// Warmup is each server's warm-up (0 = the paper's one-map-cycle
	// warm-up, so every box starts busy).
	Warmup time.Duration

	// SlotMix assigns server i SlotMix[i % len] player slots; nil keeps
	// the paper's 22. Arrival demand scales with the slot count so every
	// size class runs at the paper's per-slot utilization.
	SlotMix []int
	// TickMix assigns server i TickMix[i % len] as snapshot broadcast
	// period; nil keeps the paper's 50 ms.
	TickMix []time.Duration

	// Stagger starts server i's recorded window i·Stagger into the fleet
	// trace (rolling region launches).
	Stagger time.Duration
	// DiurnalSpread spreads the servers' evening demand peaks evenly
	// across this span (time-zone diversity): server i's DiurnalPeak
	// shifts by i·DiurnalSpread/Servers.
	DiurnalSpread time.Duration

	// SpikeMult > 1 applies a launch-day arrival surge to every server:
	// the attempt rate starts at SpikeMult× and decays with time constant
	// SpikeDecay (default 10 minutes). See gamesim.Config.SpikeMult.
	SpikeMult  float64
	SpikeDecay time.Duration

	// RateScale multiplies every server's arrival rate (0 = 1). Short
	// windows typically use ~5 so the fleet runs at busy-server load, as
	// cstrace.Quick does.
	RateScale float64

	// Tune, if non-nil, edits server i's derived configuration last —
	// the escape hatch for anything the declarative fields don't cover.
	Tune func(i int, cfg *gamesim.Config)
}

// serverSeed derives independent per-server seeds (splitmix increment).
func serverSeed(seed uint64, i int) uint64 {
	return seed + uint64(i+1)*0x9E3779B97F4A7C15
}

// Build expands the declarative spec into concrete per-server specs.
func (sp Spec) Build() ([]ServerSpec, error) {
	if sp.Servers <= 0 {
		return nil, errors.New("scenario: Servers must be positive")
	}
	duration := sp.Duration
	if duration == 0 {
		duration = 30 * time.Minute
	}
	scale := sp.RateScale
	if scale == 0 {
		scale = 1
	}
	spikeDecay := sp.SpikeDecay
	if spikeDecay == 0 {
		spikeDecay = 10 * time.Minute
	}
	servers := make([]ServerSpec, sp.Servers)
	for i := range servers {
		g := gamesim.PaperConfig(serverSeed(sp.Seed, i))
		g.Duration = duration
		if sp.Warmup != 0 {
			g.Warmup = sp.Warmup
		}
		if len(sp.SlotMix) > 0 {
			slots := sp.SlotMix[i%len(sp.SlotMix)]
			if slots <= 0 {
				return nil, fmt.Errorf("scenario: server %d: non-positive slot count", i)
			}
			// Demand tracks capacity: a 64-slot box draws proportionally
			// more arrivals than the paper's 22-slot one.
			g.AttemptRate *= float64(slots) / float64(g.Slots)
			g.Slots = slots
		}
		if len(sp.TickMix) > 0 {
			g.TickInterval = sp.TickMix[i%len(sp.TickMix)]
			if g.TickInterval <= 0 {
				return nil, fmt.Errorf("scenario: server %d: non-positive tick interval", i)
			}
			if g.Warmup%g.TickInterval != 0 {
				// Keep the warm-up a whole number of ticks.
				g.Warmup = g.Warmup / g.TickInterval * g.TickInterval
			}
		}
		if sp.DiurnalSpread > 0 {
			g.DiurnalPeak += time.Duration(i) * sp.DiurnalSpread / time.Duration(sp.Servers)
		}
		if sp.SpikeMult > 1 {
			g.SpikeMult = sp.SpikeMult
			g.SpikeDecay = spikeDecay
		}
		g.AttemptRate *= scale
		// Drop calibrated outages that fall outside the shortened window.
		var outages []gamesim.Outage
		for _, o := range g.Outages {
			if o.At+o.Duration <= g.Duration {
				outages = append(outages, o)
			}
		}
		g.Outages = outages
		if sp.Tune != nil {
			sp.Tune(i, &g)
		}
		servers[i] = ServerSpec{
			Name:        fmt.Sprintf("srv%02d", i),
			Game:        g,
			StartOffset: time.Duration(i) * sp.Stagger,
		}
	}
	return servers, nil
}

// PerServerMode selects what is collected per server alongside the fleet
// aggregate.
type PerServerMode int

const (
	// PerServerNone collects nothing per box (the default).
	PerServerNone PerServerMode = iota
	// PerServerFull runs the complete paper suite per box — every table
	// and figure, at full sweep cost. Right for small fleets studied in
	// depth.
	PerServerFull
	// PerServerSlim runs the lightweight analysis.SlimSuite per box:
	// counters and minute series only, a small fraction of the full
	// suite's cost, so per-box collection scales to hundreds of servers.
	PerServerSlim
)

// Config configures one fleet run.
type Config struct {
	// Servers is the fleet; RunSpec builds it from a Spec.
	Servers []ServerSpec
	// Suite configures the aggregate analysis suite; the zero value sizes
	// the paper suite to the fleet horizon.
	Suite analysis.SuiteConfig
	// Parallelism shards the aggregate suite's collector groups across
	// workers, exactly as cstrace.Config.Parallelism does. sched.Auto
	// takes the suite's share from the process worker budget and shards
	// with that grant (serial on one core). Results are byte-identical
	// across settings.
	Parallelism int
	// PerServer selects per-box collection: nothing, the full paper suite,
	// or the slim counters+minutes set.
	PerServer PerServerMode
	// Extra, if non-nil, receives the merged record stream, strictly
	// time-ordered, in trace.BlockSize blocks — e.g. a plain trace.Writer
	// to persist the fleet trace (`cstrace -mode scenario -out`).
	Extra trace.Handler
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if len(c.Servers) == 0 {
		return errors.New("scenario: no servers configured")
	}
	for i, s := range c.Servers {
		if err := s.Game.Validate(); err != nil {
			return fmt.Errorf("scenario: server %d (%s): %w", i, s.Name, err)
		}
		if s.StartOffset < 0 {
			return fmt.Errorf("scenario: server %d (%s): negative StartOffset", i, s.Name)
		}
	}
	return nil
}

// Horizon returns the fleet trace length: the latest instant any server's
// recorded window covers.
func (c *Config) Horizon() time.Duration {
	var h time.Duration
	for _, s := range c.Servers {
		if end := s.StartOffset + s.Game.Duration; end > h {
			h = end
		}
	}
	return h
}
