package scenario

import (
	"sync"
	"time"

	"cstrace/internal/analysis"
	"cstrace/internal/gamesim"
	"cstrace/internal/trace"
	"cstrace/internal/units"
)

// streamDepth bounds each server's in-flight hand-off channel: enough to
// keep the generator ahead of the merge, small enough that a fast server
// backpressures instead of buffering its whole trace.
const streamDepth = 4

// handoffRecs is the hand-off size: a server's sink packs consecutive
// generator blocks (≈ 50 records a tick on the paper's server) into one
// fleetBlock and sends it once it holds this many records, so the merge
// pays a channel send, a wake-up and a pool round trip per ≈ 1 000
// records instead of per tick.
const handoffRecs = 1024

// fleetBlock is one hand-off from one server: consecutive generator blocks
// packed end to end, time-shifted into the fleet clock. The merge breaks
// exact-T ties by the minT of the *generator* block a record came from, so
// the block keeps where each one starts. Per-server block order needs no
// tag: each stream's channel is FIFO and the merge holds exactly one
// current block per stream.
type fleetBlock struct {
	recs trace.Block
	minT time.Duration // recs[0].T: the first generator block's minimum
	cuts []int         // where each later generator block starts in recs, ascending
}

// fleetBlockPool recycles hand-off blocks between the senders and the
// merge. A block holds handoffRecs records plus one tick's overshoot, well
// inside trace.BlockSize, and a larger tick still arrives whole because
// the sink appends. The capacity stays trace.BlockSize all the same: with
// half of it the fleet's smaller live heap drew a second collection per
// run, which empties every pool and costs more than the blocks save.
var fleetBlockPool = sync.Pool{
	New: func() any {
		return &fleetBlock{recs: make(trace.Block, 0, trace.BlockSize)}
	},
}

// serverSink receives one server's per-tick batches on its worker
// goroutine: each batch feeds the optional slim per-server set in local
// time, then a time-shifted copy is appended to the block being packed,
// which goes to the merge once it holds handoffRecs records. flush sends
// the partial block left at the end of the run.
type serverSink struct {
	out    chan<- *fleetBlock
	offset time.Duration
	slim   *analysis.SlimSuite // slim per-box set; may be nil
	blk    *fleetBlock         // the block being packed; nil after a hand-off
}

// HandleBatch implements trace.BatchHandler.
func (s *serverSink) HandleBatch(rs []trace.Record) {
	if len(rs) == 0 {
		return
	}
	if s.slim != nil {
		s.slim.HandleBatch(rs)
	}
	blk := s.blk
	if blk == nil {
		blk = fleetBlockPool.Get().(*fleetBlock)
		blk.recs, blk.cuts = blk.recs[:0], blk.cuts[:0]
		// The generator emits in time order, so the first record is the
		// minimum; the merge checks that as it consumes the block.
		blk.minT = rs[0].T + s.offset
		s.blk = blk
	} else {
		blk.cuts = append(blk.cuts, len(blk.recs))
	}
	n := len(blk.recs)
	blk.recs = append(blk.recs, rs...)
	if s.offset != 0 {
		shifted := blk.recs[n:]
		for i := range shifted {
			shifted[i].T += s.offset
		}
	}
	if len(blk.recs) >= handoffRecs {
		s.flush()
	}
}

// Handle implements trace.Handler (the generator emits whole blocks, but
// keep the record path correct for any per-record producer).
func (s *serverSink) Handle(r trace.Record) { s.HandleBatch([]trace.Record{r}) }

// flush hands the block being packed, if any, to the merge.
func (s *serverSink) flush() {
	if s.blk != nil {
		s.out <- s.blk
		s.blk = nil
	}
}

// taggedEvent carries a session event through the cross-server event merge.
type taggedEvent struct {
	ev     gamesim.SessionEvent
	server int
}

// ServerResult is one server's share of a fleet run.
type ServerResult struct {
	Name  string
	Game  gamesim.Config
	Stats gamesim.Stats
	// Slim is the server's closed slim collector set (timestamps in the
	// server's local clock); nil unless Config.PerServer is PerServerSlim.
	Slim *analysis.SlimSuite
}

// WireBytes returns the server's total wire bytes under the paper's
// accounting (application payload plus per-packet framing overhead).
func (sr ServerResult) WireBytes() int64 {
	st := sr.Stats
	return st.AppBytesIn + st.AppBytesOut +
		(st.PacketsIn+st.PacketsOut)*units.WireOverhead
}

// MeanKbs returns the server's mean wire bandwidth over its own run
// duration, in decimal kilobits per second.
func (sr ServerResult) MeanKbs() float64 {
	sec := sr.Stats.Duration.Seconds()
	if sec <= 0 {
		return 0
	}
	return float64(8*sr.WireBytes()) / sec / 1e3
}

// Result is a completed fleet run.
type Result struct {
	// Horizon is the fleet trace length.
	Horizon time.Duration
	// Suite is the closed aggregate suite over the merged stream.
	Suite *analysis.Suite
	// Stats sums the per-server generator statistics over the horizon.
	Stats gamesim.Stats
	// Servers holds per-server stats (and slim sets when requested).
	Servers []ServerResult
	// GroupDepths holds the aggregate suite's collector-group channel
	// statistics when the merge fed a sharded sink; nil for serial runs.
	GroupDepths []analysis.GroupDepth
	// Rebalances is always nil.
	//
	// Deprecated: the shard never moves a collector unit. bench/ is the
	// only reader; ROADMAP 1a deletes it.
	Rebalances []analysis.Rebalance
}

// Run simulates the fleet: every server generates on its own goroutine, a
// record-level tournament merges the streams into one strictly time-ordered
// stream (ties by block minimum timestamp, then server index), and that
// stream drives the aggregate suite and Config.Extra. The merge order and
// the merged stream's block boundaries depend only on the generated data,
// never on goroutine scheduling, so results are byte-identical across runs
// and Parallelism settings. A server whose stream goes back in time is an
// error; everything merged before it has reached the sinks by then.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	horizon := cfg.Horizon()
	if cfg.Suite.Duration == 0 {
		cfg.Suite = analysis.DefaultSuiteConfig(horizon)
	}
	suite, err := analysis.NewSuite(cfg.Suite)
	if err != nil {
		return nil, err
	}
	// The aggregate sink takes its share of the worker budget first (Sink
	// resolves sched.Auto against it): the merge-fed suite is the run's one
	// always-hot consumer. Each server's generator then charges one token
	// for itself (gamesim.Run), and Extra sizes to what is left.
	rawSink, closeSink := suite.Sink(cfg.Parallelism)
	sink := rawSink
	if cfg.Extra != nil {
		sink = trace.Tee(sink, cfg.Extra)
	}

	n := len(cfg.Servers)
	res := &Result{Horizon: horizon, Suite: suite, Servers: make([]ServerResult, n)}
	chans := make([]chan *fleetBlock, n)
	events := make([][]taggedEvent, n)
	errs := make([]error, n)

	for i, sp := range cfg.Servers {
		chans[i] = make(chan *fleetBlock, streamDepth)
		sr := ServerResult{Name: sp.Name, Game: sp.Game}
		if cfg.PerServer == PerServerSlim {
			sr.Slim = analysis.NewSlimSuite(sp.Game.Duration)
		}
		res.Servers[i] = sr
	}

	var wg sync.WaitGroup
	for i, sp := range cfg.Servers {
		wg.Add(1)
		go func(i int, sp ServerSpec, slim *analysis.SlimSuite) {
			defer wg.Done()
			defer close(chans[i])
			ss := &serverSink{out: chans[i], offset: sp.StartOffset, slim: slim}
			ev := func(e gamesim.SessionEvent) {
				e.T += sp.StartOffset
				events[i] = append(events[i], taggedEvent{ev: e, server: i})
			}
			st, err := gamesim.Run(sp.Game, ss, ev)
			ss.flush()
			if slim != nil {
				slim.Close()
			}
			res.Servers[i].Stats = st
			errs[i] = err
		}(i, sp, res.Servers[i].Slim)
	}

	mergeErr := mergeStreams(chans, sink) // on this goroutine
	wg.Wait()

	for _, err := range append(errs, mergeErr) {
		if err != nil {
			closeSink()
			return nil, err
		}
	}

	// Feed the aggregate player series the cross-server event merge in
	// (T, server) order, then finalize. PlayerSeries is independent of the
	// record stream, so feeding it after the records changes nothing.
	mergeEvents(events, func(te taggedEvent) { suite.Observe(te.ev) })
	closeSink()
	if sh, ok := rawSink.(*analysis.ShardedSuite); ok {
		res.GroupDepths = sh.Depths()
	}

	res.Stats = aggregateStats(res, horizon)
	return res, nil
}

// mergeEvents merges the per-server event slices (each already in time
// order) by (T, server index) and feeds them to emit.
func mergeEvents(streams [][]taggedEvent, emit func(taggedEvent)) {
	idx := make([]int, len(streams))
	for {
		best := -1
		for i, s := range streams {
			if idx[i] >= len(s) {
				continue
			}
			if best == -1 || s[idx[i]].ev.T < streams[best][idx[best]].ev.T {
				best = i
			}
		}
		if best == -1 {
			return
		}
		emit(streams[best][idx[best]])
		idx[best]++
	}
}

// aggregateStats sums per-server generator statistics into fleet totals
// over the fleet horizon. MaxConcurrent sums the per-server maxima — the
// fleet's peak occupancy upper bound.
func aggregateStats(res *Result, horizon time.Duration) gamesim.Stats {
	var agg gamesim.Stats
	agg.Duration = horizon
	for _, sr := range res.Servers {
		st := sr.Stats
		agg.MapsPlayed += st.MapsPlayed
		agg.Attempts += st.Attempts
		agg.Established += st.Established
		agg.Refused += st.Refused
		agg.UniqueAttempting += st.UniqueAttempting
		agg.UniqueEstablishing += st.UniqueEstablishing
		agg.MaxConcurrent += st.MaxConcurrent
		agg.TotalSessionTime += st.TotalSessionTime
		agg.PacketsIn += st.PacketsIn
		agg.PacketsOut += st.PacketsOut
		agg.AppBytesIn += st.AppBytesIn
		agg.AppBytesOut += st.AppBytesOut
		agg.PlayerSeconds += st.PlayerSeconds
	}
	return agg
}
