// Package cstrace reproduces "Provisioning On-line Games: A Traffic
// Analysis of a Busy Counter-Strike Server" (Feng, Chang, Feng, Walpole;
// IMC 2002) as a library.
//
// The original study captured a week-long, 500-million-packet trace of a
// busy 22-slot Counter-Strike server and characterized it: highly
// predictable long-term rates pegged to the saturation of last-mile modem
// links, extreme 50 ms periodicity from the server's synchronous snapshot
// broadcast, tiny packets (40 B in / 130 B out application payload), and a
// NAT device experiment showing that small-packet bursts overwhelm routing
// gear rated far above the traffic's bit rate.
//
// That trace is long gone, so this package pairs a mechanism-level workload
// generator calibrated to the paper's published aggregates (internal/gamesim)
// with a streaming implementation of every analysis in the paper's
// evaluation (internal/analysis) and a queueing model of the NAT experiment
// (internal/nat). A real UDP game server and bots (internal/gameserver)
// exercise the same pipeline over the loopback.
//
// Quick start:
//
//	res, err := cstrace.Reproduce(cstrace.Quick(1))
//	if err != nil { ... }
//	res.WriteReport(os.Stdout)
//
// Reproduce(Full(seed)) regenerates every table and figure of the paper
// (`cstrace -mode week` prints them); the paper's numbers and the
// tolerances the model is held to are the constants in
// internal/gamesim/calibration_test.go.
package cstrace

import (
	"fmt"
	"io"
	"time"

	"cstrace/internal/analysis"
	"cstrace/internal/gamesim"
	"cstrace/internal/nat"
	"cstrace/internal/sched"
	"cstrace/internal/trace"
)

// Config selects what to reproduce.
type Config struct {
	// Game is the workload model; gamesim.PaperConfig(seed) reproduces the
	// paper's server.
	Game gamesim.Config
	// Suite configures the analysis collectors; zero value = paper suite.
	Suite analysis.SuiteConfig
	// Extra, if non-nil, also receives every generated record (e.g. a
	// trace.Writer to persist the trace). Handlers that also implement
	// trace.BatchHandler receive whole per-tick blocks.
	Extra trace.Handler
	// Parallelism selects how many goroutines run the analysis
	// collectors. 0 or 1 is single-threaded; 2 or more shards the suite's
	// five collector units across workers in even chunks (clamped to five);
	// AutoWorkers takes the suite's share from the process-wide worker
	// budget and shards with that grant (serial on a one-core budget).
	// Results are byte-identical across all settings; on multi-core
	// hardware sharding overlaps the collector sweeps with generation. The
	// generator itself is one goroutine and charges one token of that
	// budget (gamesim.Run).
	Parallelism int
}

// AutoWorkers is the worker-count sentinel meaning "resolve from the
// process-wide worker budget" (internal/sched): concurrent stages split the
// machine once instead of each assuming it owns GOMAXPROCS. Valid for
// Config.Parallelism, trace.Writer.Workers, ScenarioConfig.Parallelism and
// the AnalyzeTrace parallelism argument. Worker counts change speed, never
// results.
const AutoWorkers = sched.Auto

// Full returns the full-week reproduction configuration.
func Full(seed uint64) Config {
	g := gamesim.PaperConfig(seed)
	return Config{Game: g, Suite: analysis.DefaultSuiteConfig(g.Duration)}
}

// Quick returns a 30-minute configuration for examples and smoke tests:
// arrivals are boosted so the short window runs at the busy-server load the
// paper measured.
func Quick(seed uint64) Config {
	g := gamesim.PaperConfig(seed)
	g.Duration = 30 * time.Minute
	g.Warmup = 10 * time.Minute
	g.Outages = nil
	g.AttemptRate *= 5
	g.DiurnalAmp = 0
	return Config{Game: g, Suite: analysis.DefaultSuiteConfig(g.Duration)}
}

// Results bundles the reproduced tables and figure series.
type Results struct {
	Config Config
	Stats  gamesim.Stats
	Suite  *analysis.Suite

	TableI   analysis.TableI
	TableII  analysis.TableII
	TableIII analysis.TableIII
	Regions  analysis.RegionEstimates

	// GroupDepths holds the sharded suite's per-group channel-depth
	// statistics (nil for single-threaded runs) — the measurement that
	// names the next collector-group straggler.
	GroupDepths []analysis.GroupDepth
	// Rebalances is always nil.
	//
	// Deprecated: the shard never moves a collector unit. bench/ is the
	// only reader; ROADMAP 1a deletes it.
	Rebalances []analysis.Rebalance
}

// Reproduce runs the workload through the full analysis suite.
func Reproduce(cfg Config) (*Results, error) {
	if cfg.Suite.Duration == 0 {
		cfg.Suite = analysis.DefaultSuiteConfig(cfg.Game.Duration)
	}
	suite, err := analysis.NewSuite(cfg.Suite)
	if err != nil {
		return nil, err
	}
	sink, closeSink := suite.Sink(cfg.Parallelism)
	tee := sink
	if cfg.Extra != nil {
		tee = trace.Tee(sink, cfg.Extra)
	}
	st, err := gamesim.Run(cfg.Game, tee, suite.Observe)
	closeSink()
	if err != nil {
		return nil, err
	}

	res := &Results{
		Config:   cfg,
		Stats:    st,
		Suite:    suite,
		TableI:   analysis.TableIFromStats(st),
		TableII:  suite.Count.TableII(cfg.Game.Duration),
		TableIII: suite.Count.TableIII(),
		Regions: analysis.Regions(suite.VT.Points(), cfg.Suite.VarTimeBase,
			cfg.Game.TickInterval, cfg.Game.MapDuration+cfg.Game.MapChangePause),
	}
	if sh, ok := sink.(*analysis.ShardedSuite); ok {
		res.GroupDepths = sh.Depths()
	}
	return res, nil
}

// PerSlotKbs returns the paper's headline figure: mean bandwidth divided by
// slot count (~40 kbs on the paper's server — modem saturation).
func (r *Results) PerSlotKbs() float64 {
	return analysis.PerSlotKbs(r.TableII, r.Config.Game.Slots)
}

// TraceAnalysis bundles the paper quantities recoverable from a persisted
// record stream. Control-plane numbers (Table I, session stats) come from
// the generator and are not part of it — persist-and-reanalyze covers the
// packet-derived tables and figures.
type TraceAnalysis struct {
	// Records is the number of records analyzed.
	Records int64
	// Version is the trace format version read (1 through 4).
	Version int
	// Warning is non-empty when the reader degraded — e.g. an indexed trace whose
	// index was truncated was read by scanning its frames.
	Warning string

	Suite    *analysis.Suite
	TableII  analysis.TableII
	TableIII analysis.TableIII
	Regions  analysis.RegionEstimates

	// GroupDepths holds the sharded suite's per-group channel-depth
	// statistics (nil for single-threaded runs).
	GroupDepths []analysis.GroupDepth
	// Rebalances is always nil.
	//
	// Deprecated: the shard never moves a collector unit. bench/ is the
	// only reader; ROADMAP 1a deletes it.
	Rebalances []analysis.Rebalance
}

// AnalyzeTrace reads a persisted binary trace (format v1 through v4,
// detected from the header) and runs the record-stream analyses of the
// paper suite over it. parallelism ≥ 2 shards the suite's collector groups
// across workers. The segments of an indexed (v2+) trace — inflating
// compressed payloads — decode on at least two goroutines that deliver
// their decoded blocks straight into the suite's sink in file order
// (trace.Reader.ReadAllSharded), with no re-batching copy and no single
// dispatch goroutine in between; on a seekable source (*os.File,
// *bytes.Reader, …) they fetch segments through the index. Columnar (v4)
// segments reach the sharded suite as their decoded field columns, and
// every collector sweeps the flat arrays it needs instead of striding
// through interleaved records. The results are byte-identical across every
// parallelism setting and across v1-v4 encodings of the same stream; a
// non-seekable source or a damaged index is read by scanning the frames off
// the stream, noted in TraceAnalysis.Warning, and a v1 trace record by
// record.
func AnalyzeTrace(src io.Reader, parallelism int) (*TraceAnalysis, error) {
	// The binary format stores records in non-decreasing time order (the
	// Writer rejects anything else), the order the suite expects.
	suite, err := analysis.NewSuite(analysis.SuiteConfig{})
	if err != nil {
		return nil, err
	}
	rd := trace.NewReader(src)
	// The suite takes its budget share first (Sink resolves AutoWorkers);
	// the decode stage then claims the remainder — the two run
	// concurrently, so together they should cover the machine, not double
	// it.
	sink, closeSink := suite.Sink(parallelism)
	decodePar := parallelism
	if parallelism == sched.Auto {
		lease := sched.Default().Acquire(sched.Default().Total())
		decodePar = lease.Workers()
		defer lease.Release()
	}
	n, err := rd.ReadAllSharded(sink, decodePar)
	closeSink()
	if err != nil {
		return nil, err
	}
	a := &TraceAnalysis{
		Records:  n,
		Version:  rd.Version(),
		Warning:  rd.Warning(),
		Suite:    suite,
		TableII:  suite.Count.TableII(0),
		TableIII: suite.Count.TableIII(),
		Regions: analysis.Regions(suite.VT.Points(), 10*time.Millisecond,
			50*time.Millisecond, 30*time.Minute+48*time.Second),
	}
	if sh, ok := sink.(*analysis.ShardedSuite); ok {
		a.GroupDepths = sh.Depths()
	}
	return a, nil
}

// WriteReport renders the trace-derived tables and figures.
func (a *TraceAnalysis) WriteReport(w io.Writer) error {
	return writeTraceAnalysis(w, a)
}

// AnalyzeTraceRange is AnalyzeTrace restricted to the records with
// from ≤ T < to. For an indexed (v2+) trace on a seekable source only the
// overlapping file segments are read and decoded (trace.Reader.ReadRange),
// so slicing an hour out of a week costs an hour's I/O. Every segment it
// touches decodes whole, the boundary ones included, so damage anywhere in
// one fails the call with trace.ErrCorrupt. Collectors that bin by
// absolute time (minute series, interval windows) keep their absolute
// positions; Table II/III rates are computed over the observed span of the
// slice. parallelism shards the collector groups as in AnalyzeTrace.
func AnalyzeTraceRange(src io.Reader, parallelism int, from, to time.Duration) (*TraceAnalysis, error) {
	suite, err := analysis.NewSuite(analysis.SuiteConfig{})
	if err != nil {
		return nil, err
	}
	rd := trace.NewReader(src)
	sink, closeSink := suite.Sink(parallelism)
	n, err := rd.ReadRange(from, to, sink)
	closeSink()
	if err != nil {
		return nil, err
	}
	// Rates over the slice: the observed span from the range start to the
	// last record seen (End), not the whole-trace duration.
	span := suite.Count.End - from
	a := &TraceAnalysis{
		Records:  n,
		Version:  rd.Version(),
		Warning:  rd.Warning(),
		Suite:    suite,
		TableII:  suite.Count.TableII(span),
		TableIII: suite.Count.TableIII(),
		Regions: analysis.Regions(suite.VT.Points(), 10*time.Millisecond,
			50*time.Millisecond, 30*time.Minute+48*time.Second),
	}
	if sh, ok := sink.(*analysis.ShardedSuite); ok {
		a.GroupDepths = sh.Depths()
	}
	return a, nil
}

// ReproduceNAT runs the §IV-A NAT experiment (Table IV, Figs 14-15).
func ReproduceNAT(seed uint64) (nat.ExperimentResult, error) {
	return nat.RunExperiment(gamesim.NATExperimentConfig(seed), nat.DefaultConfig(seed))
}

// WriteReport renders every reproduced table and figure to w.
func (r *Results) WriteReport(w io.Writer) error {
	return writeReport(w, r)
}

// String summarizes the headline numbers.
func (r *Results) String() string {
	return fmt.Sprintf("cstrace: %d packets, %s mean bw, %.1f kbs/slot, H(sub-tick)=%.2f",
		r.TableII.TotalPackets, r.TableII.MeanBW, r.PerSlotKbs(), r.Regions.SubTick.H)
}
