package cstrace

import (
	"fmt"
	"io"
	"sort"
	"time"

	"cstrace/internal/analysis"
	"cstrace/internal/report"
	"cstrace/internal/scenario"
	"cstrace/internal/trace"
)

// Scenario re-exports the declarative fleet spec: server count, size and
// tickrate mixes, start stagger, diurnal phase spread and launch-day surge.
// See scenario.Spec for the field-by-field story.
type Scenario = scenario.Spec

// PerServerMode selects per-box collection for a scenario run; see the
// scenario package constants re-exported below.
type PerServerMode = scenario.PerServerMode

// Per-box collection modes: nothing, or the slim counters+minutes set that
// scales to hundreds of servers.
const (
	PerServerNone = scenario.PerServerNone
	PerServerSlim = scenario.PerServerSlim
)

// ScenarioConfig selects a fleet to simulate and how to analyze it.
type ScenarioConfig struct {
	// Spec declares the fleet; it is expanded with Spec.Build unless
	// Servers is set.
	Spec Scenario
	// Servers, if non-nil, is the explicit fleet and overrides Spec.
	Servers []scenario.ServerSpec
	// Suite configures the aggregate analysis suite; zero value = paper
	// suite sized to the fleet horizon.
	Suite analysis.SuiteConfig
	// Parallelism shards the aggregate suite's collector groups, exactly
	// as Config.Parallelism does (AutoWorkers grants the suite its share
	// of the worker budget and self-tunes the assignment); results are
	// byte-identical across settings.
	Parallelism int
	// GenWorkers does nothing. It sized the generators' worker-pool fill
	// stage, which lost to the serial one and was deleted (ROADMAP's
	// "Parked" paragraph on a parallel fill); every value is accepted and
	// ignored. The field is still here only because bench/ assigns it:
	// ROADMAP 1a removes it.
	GenWorkers int
	// PerServer selects per-box collection alongside the aggregate:
	// PerServerSlim collects counters and minute series per box for
	// per-box vs aggregate comparison, cheap enough for very large fleets.
	PerServer PerServerMode
	// Extra, if non-nil, receives the merged fleet record stream, strictly
	// time-ordered, in trace.BlockSize blocks.
	Extra trace.Handler
}

// LaunchDay returns a ready-made release-event fleet: n servers with mixed
// sizes, demand peaks spread across time zones, and a 6× arrival surge
// decaying over the first minutes — the "Microsoft or Sony launch" of §V,
// compressed into a 30-minute observable window.
func LaunchDay(seed uint64, n int) ScenarioConfig {
	return ScenarioConfig{Spec: Scenario{
		Seed:          seed,
		Servers:       n,
		Duration:      30 * time.Minute,
		SlotMix:       []int{22, 22, 32, 16},
		DiurnalSpread: 6 * time.Hour,
		SpikeMult:     6,
		SpikeDecay:    8 * time.Minute,
		RateScale:     5, // busy-server load in a short window, as Quick does
	}}
}

// ScenarioResults bundles a completed fleet run.
type ScenarioResults struct {
	Config  ScenarioConfig
	Horizon time.Duration
	// Aggregate holds the merged-stream analysis in the same shape
	// Reproduce returns: for a one-server scenario its report is
	// byte-identical to the plain reproduction.
	Aggregate *Results
	// Servers holds per-server stats, and per-server slim sets when
	// Config.PerServer was set.
	Servers []scenario.ServerResult
}

// RunScenario simulates the fleet described by cfg: every server generates
// on its own goroutine, the streams merge record by record into one
// strictly time-ordered stream, and the full paper suite runs over the
// aggregate. Results are deterministic: byte-identical across runs and
// Parallelism settings.
func RunScenario(cfg ScenarioConfig) (*ScenarioResults, error) {
	servers := cfg.Servers
	if servers == nil {
		var err error
		if servers, err = cfg.Spec.Build(); err != nil {
			return nil, err
		}
	}
	rc := scenario.Config{
		Servers:     servers,
		Suite:       cfg.Suite,
		Parallelism: cfg.Parallelism,
		PerServer:   cfg.PerServer,
		Extra:       cfg.Extra,
	}
	if rc.Suite.Duration == 0 {
		rc.Suite = analysis.DefaultSuiteConfig(rc.Horizon())
	}
	res, err := scenario.Run(rc)
	if err != nil {
		return nil, err
	}

	// The aggregate mirrors Reproduce's Results. The variance-time region
	// split and per-slot figure key off the first server's parameters;
	// heterogeneous fleets share them as the reference configuration.
	first := servers[0].Game
	agg := &Results{
		Config:   Config{Game: first, Suite: rc.Suite, Parallelism: cfg.Parallelism},
		Stats:    res.Stats,
		Suite:    res.Suite,
		TableI:   analysis.TableIFromStats(res.Stats),
		TableII:  res.Suite.Count.TableII(res.Horizon),
		TableIII: res.Suite.Count.TableIII(),
		Regions: analysis.Regions(res.Suite.VT.Points(), rc.Suite.VarTimeBase,
			first.TickInterval, first.MapDuration+first.MapChangePause),
		GroupDepths: res.GroupDepths,
	}
	return &ScenarioResults{
		Config:    cfg,
		Horizon:   res.Horizon,
		Aggregate: agg,
		Servers:   res.Servers,
	}, nil
}

// TotalSlots returns the fleet's summed player capacity.
func (r *ScenarioResults) TotalSlots() int {
	var n int
	for _, s := range r.Servers {
		n += s.Game.Slots
	}
	return n
}

// PerSlotKbs returns the fleet-wide mean bandwidth per player slot — the
// paper's headline figure, generalized to the aggregate.
func (r *ScenarioResults) PerSlotKbs() float64 {
	return analysis.PerSlotKbs(r.Aggregate.TableII, r.TotalSlots())
}

// BandwidthPercentiles returns the given quantiles of the fleet's
// per-minute aggregate bandwidth in kbs — the provisioning curve: an
// operator buys for a high percentile, not the mean.
func (r *ScenarioResults) BandwidthPercentiles(ps ...float64) []float64 {
	series := append([]float64(nil), r.Aggregate.Suite.Minutes.KbsTotal()...)
	sort.Float64s(series)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = quantile(series, p)
	}
	return out
}

// quantile returns the p-quantile of a sorted series (nearest-rank).
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// WriteReport renders the aggregate paper report followed by the fleet
// provisioning summary. For a one-server fleet the aggregate section is
// byte-identical to Reproduce's report.
func (r *ScenarioResults) WriteReport(w io.Writer) error {
	if err := r.Aggregate.WriteReport(w); err != nil {
		return err
	}
	return r.WriteFleetReport(w)
}

// WriteFleetReport renders only the fleet summary: the per-server
// breakdown and the aggregate provisioning numbers.
func (r *ScenarioResults) WriteFleetReport(w io.Writer) error {
	t2 := r.Aggregate.TableII
	pct := r.BandwidthPercentiles(0.50, 0.90, 0.95, 0.99, 1.0)
	report.Table(w, fmt.Sprintf("Fleet summary: %d servers, %d slots", len(r.Servers), r.TotalSlots()), []report.KV{
		{Key: "Fleet Horizon", Value: r.Horizon.String()},
		{Key: "Total Packets", Value: fmt.Sprintf("%d", t2.TotalPackets)},
		{Key: "Mean Aggregate Bandwidth", Value: t2.MeanBW.String()},
		{Key: "Bandwidth kbs p50/p90/p95/p99/max", Value: fmt.Sprintf("%.0f / %.0f / %.0f / %.0f / %.0f",
			pct[0], pct[1], pct[2], pct[3], pct[4])},
		{Key: "Per-Slot Bandwidth", Value: fmt.Sprintf("%.1f kbs (paper: ~40)", r.PerSlotKbs())},
		{Key: "Established Connections", Value: fmt.Sprintf("%d", r.Aggregate.TableI.Established)},
		{Key: "Mean Active Players", Value: fmt.Sprintf("%.2f", r.Aggregate.TableI.MeanPlayers)},
		{Key: "Peak Player Bound", Value: fmt.Sprintf("%d", r.Aggregate.Stats.MaxConcurrent)},
	})

	fmt.Fprintf(w, "Per-server breakdown\n--------------------\n")
	fmt.Fprintf(w, "  %-8s %5s %6s %12s %10s %10s %8s %8s\n",
		"server", "slots", "tick", "packets", "mean-kbs", "kbs/slot", "estab", "players")
	for _, s := range r.Servers {
		st := s.Stats
		kbs := s.MeanKbs()
		fmt.Fprintf(w, "  %-8s %5d %6s %12d %10.1f %10.1f %8d %8.2f\n",
			s.Name, s.Game.Slots, s.Game.TickInterval, st.PacketsIn+st.PacketsOut,
			kbs, kbs/float64(s.Game.Slots), st.Established, st.MeanPlayers())
	}
	fmt.Fprintln(w)
	return nil
}
