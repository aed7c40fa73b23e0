package analysis

import (
	"sync"
	"sync/atomic"
	"time"

	"cstrace/internal/sched"
	"cstrace/internal/trace"
)

// Sharded mode: the suite's collectors split into units with no shared
// state (shardUnit), every unit is assigned to one worker goroutine, and
// every incoming block fans out to all ingest workers over bounded
// channels. Because each collector sees every record in exactly the stream
// order (channels are FIFO and each collector lives in exactly one unit,
// each unit on exactly one worker), sharded results are byte-identical to
// single-threaded results — the parallelism only overlaps the sweeps in
// time. One engine serves both constructors: Shard seats the units in the
// static groups below and leaves them there; ShardAdaptive (adaptive.go)
// deals them out evenly and moves them as measured depths dictate.
//
// The static split is by collector cost profile:
//
//	counts — Counters, SizeDist, FlowBandwidth, KindBreakdown
//	series — MinuteSeries, VarTime, IntervalWindows
//	order  — SortBuffer → Interarrival, Periodicity (sort-heavy)
//	gaps   — Interarrival alone  (when the order group is split)
//	tick   — Periodicity alone   (when the order group is split)
//
// The order group has historically been the straggler (the sort is the
// single most expensive sweep), so with enough workers it splits: the
// SortBuffer stage keeps its own worker and fans its sorted output to
// dedicated Interarrival and Periodicity workers. With SuiteConfig
// .SortedInput there is no sort stage at all and Gaps/Tick become ordinary
// ingest groups. Each group records channel-depth statistics at enqueue
// time (Depths), so the next straggler is measurable rather than guessed.

// ShardChanDepth bounds each group's channel: enough to keep workers busy,
// small enough to backpressure the generator instead of ballooning memory.
// Depth statistics (GroupDepth) are reported against this bound.
const ShardChanDepth = 8

// shardBlock is a refcounted block shared read-only by every receiving
// group and recycled when the last one finishes with it. It comes in three
// lifetimes: a copy of an incoming batch backed by the suite's own pool
// (the Handle/HandleBatch path), a zero-copy wrapper around a trace block
// whose ownership was transferred in via IngestBlock — owned marks that
// one — or an interleaved copy of a column-decoded segment chunk whose
// columns ride along (IngestColumns): cols lets column-aware collectors
// sweep the dense field arrays while everything else uses recs.
type shardBlock struct {
	recs  trace.Block
	owned *trace.Block       // non-nil when recs aliases a transferred trace block
	cols  *trace.ColumnBlock // non-nil when the columns of recs are also held
	refs  atomic.Int32
	// barrier marks a quiesce marker from the adaptive shard: the worker
	// signals it and moves on without sweeping or releasing.
	barrier *sync.WaitGroup
}

// release drops one reference and recycles the block when it was the last.
func (b *shardBlock) release() {
	if b.refs.Add(-1) != 0 {
		return
	}
	if b.cols != nil {
		trace.FreeColumnBlock(b.cols)
		b.cols = nil
	}
	if b.owned != nil {
		trace.FreeBlock(b.owned)
		b.owned, b.recs = nil, nil
		ownedWrapPool.Put(b)
		return
	}
	shardBlockPool.Put(b)
}

var shardBlockPool = sync.Pool{
	New: func() any {
		return &shardBlock{recs: make(trace.Block, 0, trace.BlockSize)}
	},
}

// ownedWrapPool recycles the carrier structs of IngestBlock deliveries; the
// record storage in that mode belongs to the trace block pool, so these
// wrappers hold no array of their own.
var ownedWrapPool = sync.Pool{New: func() any { return new(shardBlock) }}

func getShardBlock() *shardBlock {
	blk := shardBlockPool.Get().(*shardBlock)
	blk.recs = blk.recs[:0]
	return blk
}

// GroupDepth is one collector group's channel-depth statistics: how many
// blocks were enqueued to it and how full its channel was at each enqueue.
// A group whose mean depth hugs the channel bound is the straggler the
// pipeline is waiting on; a group near zero has headroom to absorb more
// collectors.
type GroupDepth struct {
	Name     string
	Blocks   int64 // blocks enqueued over the run
	SumDepth int64 // sum over enqueues of the queue length found
	MaxDepth int64
}

// MeanDepth returns the average queue length observed at enqueue.
func (g GroupDepth) MeanDepth() float64 {
	if g.Blocks == 0 {
		return 0
	}
	return float64(g.SumDepth) / float64(g.Blocks)
}

// shardUnit is one closed set of collectors swept together: the granularity
// at which work is assigned to (and, in adaptive mode, moved between)
// workers. cost is owned by whichever worker currently runs the unit and
// read by the enqueuer only across a quiesce barrier.
type shardUnit struct {
	name  string
	sweep func(*shardBlock)
	cost  time.Duration // cumulative sweep time since the last rebalance
}

// shardWorker is one collector group: a bounded channel, the units swept on
// its goroutine, and depth statistics owned by its single enqueuer. The
// enqueuer mutates units only at quiesced epoch boundaries (adaptive mode);
// the worker times each unit's sweep for the rebalance decision.
type shardWorker struct {
	depth GroupDepth
	ch    chan *shardBlock
	units []*shardUnit
}

func newShardWorker(name string, units ...*shardUnit) *shardWorker {
	return &shardWorker{
		depth: GroupDepth{Name: name},
		ch:    make(chan *shardBlock, ShardChanDepth),
		units: units,
	}
}

// send enqueues a block, recording the queue depth it found. Calls must be
// serialized: the group has a single logical enqueuer (one goroutine, or —
// on the IngestBlock path — decode workers whose hand-offs are ordered by
// the reader's turn chain).
func (w *shardWorker) send(blk *shardBlock) {
	d := int64(len(w.ch))
	w.depth.Blocks++
	w.depth.SumDepth += d
	if d > w.depth.MaxDepth {
		w.depth.MaxDepth = d
	}
	w.ch <- blk
}

// fanOut enqueues one block to every worker of a channel set, refcounted so
// the last sweep to finish recycles it.
func fanOut(ws []*shardWorker, blk *shardBlock) {
	blk.refs.Store(int32(len(ws)))
	for _, w := range ws {
		w.send(blk)
	}
}

// startWorkers launches each worker's goroutine, tracked by wg.
func startWorkers(ws []*shardWorker, wg *sync.WaitGroup) {
	for _, w := range ws {
		wg.Add(1)
		go w.run(wg)
	}
}

func (w *shardWorker) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for blk := range w.ch {
		if blk.barrier != nil {
			blk.barrier.Done()
			continue
		}
		for _, u := range w.units {
			t0 := time.Now()
			u.sweep(blk)
			u.cost += time.Since(t0)
		}
		blk.release()
	}
}

// ShardedSuite runs a Suite's collector groups on worker goroutines. Create
// one with Shard, feed it records or blocks, and call Close to drain the
// workers and finalize the underlying suite. The embedded Suite's accessors
// (Count, Sizes, Window, ...) are valid after Close.
type ShardedSuite struct {
	*Suite
	ingest  []*shardWorker // fed by HandleBatch's fan-out
	down    []*shardWorker // fed by the order worker's sorted fan-out
	wg      sync.WaitGroup
	downWg  sync.WaitGroup
	pending *shardBlock
	stopped bool

	// Adaptive mode (see adaptive.go): epoch clock, depth snapshot at the
	// last epoch boundary, and the migration history. All owned by the
	// single logical enqueuer.
	adaptive   bool
	blocks     int64
	epochLen   int64
	lastEpoch  []GroupDepth
	rebalances []Rebalance
}

// sortedFan sits behind the suite's SortBuffer in split mode: each released
// (strictly ordered) block is copied into a refcounted shardBlock and
// enqueued to the downstream order-sensitive groups. It runs on the order
// group's worker goroutine, which is that channel set's single enqueuer.
type sortedFan struct {
	down []*shardWorker
}

func (f *sortedFan) Handle(r trace.Record) { f.HandleBatch([]trace.Record{r}) }

func (f *sortedFan) HandleBatch(rs []trace.Record) {
	if len(rs) == 0 {
		return
	}
	blk := getShardBlock()
	blk.recs = append(blk.recs, rs...)
	fanOut(f.down, blk)
}

// unitGroup is one of the static cost-profile groups: the units a worker
// sweeps together under the group's -depths name.
type unitGroup struct {
	name  string
	units []*shardUnit
}

// newSharded is the part of the engine both constructors share: it builds
// the suite's collector units, grouped in static cost-profile order (counts,
// series, then the order-sensitive tail), and — for an unsorted suite with
// at least four workers — splits the sort stage's downstream onto dedicated
// down workers, which it starts. It returns the engine, the ingest groups,
// and how many of the workers are left for them.
func newSharded(s *Suite, workers int) (*ShardedSuite, []unitGroup, int) {
	unit := func(name string, sweep func(*shardBlock)) *shardUnit {
		return &shardUnit{name: name, sweep: sweep}
	}
	// Column-aware sweeps: when a block carries its columns (v4 column
	// delivery), collectors that consume a single field — SizeDist reads
	// direction+size, Interarrival direction+timestamp — sweep the dense
	// column arrays instead of striding through the interleaved records.
	// Results are identical either way; only the memory traffic shrinks.
	groups := []unitGroup{
		{"counts", []*shardUnit{
			unit("count", func(b *shardBlock) { s.Count.HandleBatch(b.recs) }),
			unit("sizes", func(b *shardBlock) {
				if b.cols != nil {
					s.Sizes.HandleColumns(b.cols)
				} else {
					s.Sizes.HandleBatch(b.recs)
				}
			}),
			unit("flows", func(b *shardBlock) { s.Flows.HandleBatch(b.recs) }),
			unit("kinds", func(b *shardBlock) { s.Kinds.HandleBatch(b.recs) }),
		}},
		{"series", []*shardUnit{
			unit("minutes", func(b *shardBlock) { s.Minutes.HandleBatch(b.recs) }),
			unit("vt", func(b *shardBlock) { s.VT.HandleBatch(b.recs) }),
			unit("windows", func(b *shardBlock) {
				for _, w := range s.Windows {
					w.HandleBatch(b.recs)
				}
			}),
		}},
	}
	gaps := unit("gaps", func(b *shardBlock) {
		if b.cols != nil {
			s.Gaps.HandleColumns(b.cols)
		} else {
			s.Gaps.HandleBatch(b.recs)
		}
	})
	tick := unit("tick", func(b *shardBlock) { s.Tick.HandleBatch(b.recs) })

	sh := &ShardedSuite{Suite: s, pending: getShardBlock()}
	if s.sorted == nil {
		// Sorted input: no sort stage; the order-sensitive collectors are
		// ordinary ingest units.
		return sh, append(groups, unitGroup{"gaps", []*shardUnit{gaps}}, unitGroup{"tick", []*shardUnit{tick}}), workers
	}
	// Unsorted input: the sort stage is one indivisible unit. Its downstream
	// (Gaps, Tick) runs inline behind the SortBuffer, or — with workers to
	// spare — on down workers fed by the sort worker's sorted fan-out; either
	// way it is not an ingest unit, because its blocks come from whichever
	// worker runs the sort, not from the enqueuer.
	order := unitGroup{"order+gaps+tick", []*shardUnit{
		unit("order", func(b *shardBlock) { s.sorted.HandleBatch(b.recs) }),
	}}
	if workers >= 4 {
		order.name = "order"
		if workers >= 5 {
			sh.down = []*shardWorker{newShardWorker("gaps", gaps), newShardWorker("tick", tick)}
		} else {
			sh.down = []*shardWorker{newShardWorker("gaps+tick", gaps, tick)}
		}
		// Rewire the SortBuffer's downstream from the inline Tee to the
		// fan-out, and start the downstream workers.
		s.orderOut.h = &sortedFan{down: sh.down}
		startWorkers(sh.down, &sh.downWg)
	}
	return sh, append(groups, order), workers - len(sh.down)
}

// Shard wraps a freshly built Suite in sharded mode with up to workers
// goroutines (clamped to the available collector groups; values below 2
// still shard with 2 workers — use the plain Suite for single-threaded
// runs). The unit→worker assignment is the static table in the file
// comment and never changes (ShardAdaptive is the same engine with
// rebalancing on). The caller must not feed the inner Suite directly
// afterwards.
func Shard(s *Suite, workers int) *ShardedSuite {
	sh, groups, workers := newSharded(s, workers)
	merge := func(i int) {
		groups[i].name += "+" + groups[i+1].name
		groups[i].units = append(groups[i].units, groups[i+1].units...)
		groups = append(groups[:i+1], groups[i+2:]...)
	}
	// Short of a worker per group, the cheap tail pair (gaps, tick) shares
	// one first, then the head pair (counts, series).
	if workers < 4 && len(groups) == 4 {
		merge(2)
	}
	if workers < 3 {
		merge(0)
	}
	for _, g := range groups {
		sh.ingest = append(sh.ingest, newShardWorker(g.name, g.units...))
	}
	startWorkers(sh.ingest, &sh.wg)
	return sh
}

// Handle implements trace.Handler.
func (sh *ShardedSuite) Handle(r trace.Record) {
	sh.pending.recs = append(sh.pending.recs, r)
	if len(sh.pending.recs) == cap(sh.pending.recs) {
		sh.flush()
	}
}

// HandleBatch implements trace.BatchHandler. The batch is copied into an
// owned refcounted block (the caller reuses its slab immediately) and
// re-batched up to BlockSize before fanning out.
func (sh *ShardedSuite) HandleBatch(rs []trace.Record) {
	for len(rs) > 0 {
		free := cap(sh.pending.recs) - len(sh.pending.recs)
		if free == 0 {
			sh.flush()
			continue
		}
		n := min(free, len(rs))
		sh.pending.recs = append(sh.pending.recs, rs[:n]...)
		rs = rs[n:]
	}
	if len(sh.pending.recs) == cap(sh.pending.recs) {
		sh.flush()
	}
}

// flush fans the pending block out to every ingest group.
func (sh *ShardedSuite) flush() {
	blk := sh.pending
	if len(blk.recs) == 0 {
		return
	}
	sh.pending = getShardBlock()
	sh.fan(blk)
}

// fan enqueues one block to every ingest group and advances the adaptive
// epoch clock.
func (sh *ShardedSuite) fan(blk *shardBlock) {
	fanOut(sh.ingest, blk)
	sh.fanned()
}

// IngestBlock implements trace.BlockIngester: a decoded block is fanned out
// to every ingest group without copying or re-batching. The suite takes
// ownership of blk and recycles it to the trace block pool when the last
// group's sweep finishes. Calls must be serialized and ordered relative to
// Handle/HandleBatch — trace.Reader.ReadAllSharded's in-order delivery
// chain provides exactly that — because each group's channel has a single
// logical enqueuer.
func (sh *ShardedSuite) IngestBlock(blk *trace.Block) {
	if len(*blk) == 0 {
		trace.FreeBlock(blk)
		return
	}
	sh.flush() // records re-batched earlier must stay ahead of this block
	b := ownedWrapPool.Get().(*shardBlock)
	b.recs, b.owned = *blk, blk
	sh.fan(b)
}

// IngestColumns implements trace.ColumnIngester: a column-decoded segment
// chunk is interleaved once into a pooled block — the order-sensitive and
// multi-field collectors need full records — while the columns ride along
// so single-field collectors sweep them directly. Ownership of cb transfers
// to the suite; it is recycled when the last group's sweep finishes. The
// same serialization contract as IngestBlock applies.
func (sh *ShardedSuite) IngestColumns(cb *trace.ColumnBlock) {
	if cb.Len() == 0 {
		trace.FreeColumnBlock(cb)
		return
	}
	sh.flush() // records re-batched earlier must stay ahead of this block
	b := getShardBlock()
	b.recs = cb.AppendRecords(b.recs)
	b.cols = cb
	sh.fan(b)
}

// Close flushes pending records, drains and stops the workers, then
// finalizes the underlying suite. Call once after the last record.
func (sh *ShardedSuite) Close() {
	if !sh.stopped {
		sh.stopped = true
		sh.flush()
		for _, w := range sh.ingest {
			close(w.ch)
		}
		sh.wg.Wait()
		if len(sh.down) > 0 {
			// The ingest workers are parked, so flushing the SortBuffer from
			// here is single-threaded; its tail fans out to the downstream
			// workers, which then drain and stop.
			sh.Suite.sorted.Flush()
			for _, w := range sh.down {
				close(w.ch)
			}
			sh.downWg.Wait()
		}
	}
	sh.Suite.Close()
}

// Depths returns every collector group's channel-depth statistics, ingest
// groups first. Only valid after Close; the straggler is the group whose
// mean depth rides the channel bound (its consumers are always behind).
// For an adaptive shard the names reflect each worker's final unit
// assignment (the depth statistics are cumulative across assignments; see
// Rebalances for the migration history).
func (sh *ShardedSuite) Depths() []GroupDepth {
	out := make([]GroupDepth, 0, len(sh.ingest)+len(sh.down))
	for _, w := range sh.ingest {
		d := w.depth
		if sh.adaptive {
			d.Name = unitNames(w.units)
		}
		out = append(out, d)
	}
	for _, w := range sh.down {
		out = append(out, w.depth)
	}
	return out
}

// Sink returns the suite's ingest handler for the given parallelism level
// and the matching finalizer: the suite itself below 2, a statically
// sharded wrapper for explicit counts of 2 or more, and — for
// sched.Auto — an adaptive shard sized by a grant from the process-wide
// worker budget (released by close; a budget of one core resolves to the
// plain single-threaded suite). Call close exactly once after the last
// record (also on error paths — a sharded suite leaks worker goroutines
// otherwise).
func (s *Suite) Sink(parallelism int) (h trace.Handler, close func()) {
	if parallelism == sched.Auto {
		lease := sched.Default().Acquire(maxAutoShardWorkers)
		if lease.Workers() < 2 {
			lease.Release()
			return s, s.Close
		}
		sh := ShardAdaptive(s, lease.Workers())
		return sh, func() { sh.Close(); lease.Release() }
	}
	if parallelism > 1 {
		sh := Shard(s, parallelism)
		return sh, sh.Close
	}
	return s, s.Close
}

var (
	_ trace.Handler        = (*ShardedSuite)(nil)
	_ trace.BatchHandler   = (*ShardedSuite)(nil)
	_ trace.BlockIngester  = (*ShardedSuite)(nil)
	_ trace.ColumnIngester = (*ShardedSuite)(nil)
)
