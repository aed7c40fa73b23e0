package analysis

import (
	"strings"
	"sync"
	"sync/atomic"

	"cstrace/internal/sched"
	"cstrace/internal/trace"
)

// Sharded mode: the suite's nine collector units (shardUnit, in the order
// count sizes flows kinds minutes vt windows gaps tick) are dealt to worker
// goroutines in contiguous even chunks (sched.Split) and never move. Every
// incoming block fans out to all workers over bounded channels. Because each
// collector sees every record in exactly the stream order (channels are FIFO
// and each unit lives on exactly one worker), sharded results are
// byte-identical to single-threaded results — the parallelism only overlaps
// the sweeps in time. Each worker records channel-depth statistics at
// enqueue time (Depths), so a straggler is measurable rather than guessed.

// ShardChanDepth bounds each group's channel: enough to keep workers busy,
// small enough to backpressure the generator instead of ballooning memory.
// Depth statistics (GroupDepth) are reported against this bound.
const ShardChanDepth = 8

// maxAutoShardWorkers caps budget grants for Sink(sched.Auto): at five
// workers no group holds more than two units, and the rest of the budget is
// left to the stages that run beside the suite (decode, deflate).
const maxAutoShardWorkers = 5

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
// at which work is dealt to workers.
type shardUnit struct {
	name  string
	sweep func(*shardBlock)
}

// units returns the suite's collector units in deal order. Column-aware
// sweeps: when a block carries its columns (v4 column delivery), collectors
// that consume a single field — SizeDist reads direction+size, Interarrival
// direction+timestamp — sweep the dense column arrays instead of striding
// through the interleaved records. Results are identical either way; only
// the memory traffic shrinks.
func (s *Suite) units() []shardUnit {
	return []shardUnit{
		{"count", func(b *shardBlock) { s.Count.HandleBatch(b.recs) }},
		{"sizes", func(b *shardBlock) {
			if b.cols != nil {
				s.Sizes.HandleColumns(b.cols)
			} else {
				s.Sizes.HandleBatch(b.recs)
			}
		}},
		{"flows", func(b *shardBlock) { s.Flows.HandleBatch(b.recs) }},
		{"kinds", func(b *shardBlock) { s.Kinds.HandleBatch(b.recs) }},
		{"minutes", func(b *shardBlock) { s.Minutes.HandleBatch(b.recs) }},
		{"vt", func(b *shardBlock) { s.VT.HandleBatch(b.recs) }},
		{"windows", func(b *shardBlock) {
			for _, w := range s.Windows {
				w.HandleBatch(b.recs)
			}
		}},
		{"gaps", func(b *shardBlock) {
			if b.cols != nil {
				s.Gaps.HandleColumns(b.cols)
			} else {
				s.Gaps.HandleBatch(b.recs)
			}
		}},
		{"tick", func(b *shardBlock) { s.Tick.HandleBatch(b.recs) }},
	}
}

// shardWorker is one collector group: a bounded channel, the units swept on
// its goroutine, and depth statistics owned by its single enqueuer.
type shardWorker struct {
	depth GroupDepth
	ch    chan *shardBlock
	units []shardUnit
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

func (w *shardWorker) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for blk := range w.ch {
		for _, u := range w.units {
			u.sweep(blk)
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
	workers []*shardWorker
	wg      sync.WaitGroup
	pending *shardBlock
	stopped bool
}

// Shard wraps a freshly built Suite in sharded mode: its nine collector
// units are dealt to min(max(workers, 2), 9) goroutines in contiguous even
// chunks, earlier workers taking the remainder, and stay there. Use the
// plain Suite for single-threaded runs. The caller must not feed the inner
// Suite directly afterwards.
func Shard(s *Suite, workers int) *ShardedSuite {
	units := s.units()
	sh := &ShardedSuite{Suite: s, pending: getShardBlock()}
	next := 0
	for _, n := range sched.Split(len(units), min(max(workers, 2), len(units))) {
		w := &shardWorker{ch: make(chan *shardBlock, ShardChanDepth), units: units[next : next+n]}
		names := make([]string, n)
		for i, u := range w.units {
			names[i] = u.name
		}
		w.depth.Name = strings.Join(names, "+")
		sh.workers = append(sh.workers, w)
		sh.wg.Add(1)
		go w.run(&sh.wg)
		next += n
	}
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

// flush fans the pending block out to every group.
func (sh *ShardedSuite) flush() {
	blk := sh.pending
	if len(blk.recs) == 0 {
		return
	}
	sh.pending = getShardBlock()
	sh.fan(blk)
}

// fan enqueues one block to every group, refcounted so the last sweep to
// finish recycles it.
func (sh *ShardedSuite) fan(blk *shardBlock) {
	blk.refs.Store(int32(len(sh.workers)))
	for _, w := range sh.workers {
		w.send(blk)
	}
}

// IngestBlock implements trace.BlockIngester: a decoded block is fanned out
// to every group without copying or re-batching. The suite takes ownership
// of blk and recycles it to the trace block pool when the last group's
// sweep finishes. Calls must be serialized and ordered relative to
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
		for _, w := range sh.workers {
			close(w.ch)
		}
		sh.wg.Wait()
	}
	sh.Suite.Close()
}

// Depths returns every collector group's channel-depth statistics in deal
// order, each named by its units joined with "+". Only valid after Close;
// the straggler is the group whose mean depth rides the channel bound (its
// consumers are always behind).
func (sh *ShardedSuite) Depths() []GroupDepth {
	out := make([]GroupDepth, len(sh.workers))
	for i, w := range sh.workers {
		out[i] = w.depth
	}
	return out
}

// Sink returns the suite's ingest handler for the given parallelism level
// and the matching finalizer: the suite itself below 2, a sharded wrapper
// for explicit counts of 2 or more, and — for sched.Auto — a shard sized by
// a grant from the process-wide worker budget (released by close; a budget
// of one core resolves to the plain single-threaded suite). Call close
// exactly once after the last record (also on error paths — a sharded suite
// leaks worker goroutines otherwise).
func (s *Suite) Sink(parallelism int) (h trace.Handler, close func()) {
	if parallelism == sched.Auto {
		lease := sched.Default().Acquire(maxAutoShardWorkers)
		if lease.Workers() < 2 {
			lease.Release()
			return s, s.Close
		}
		sh := Shard(s, lease.Workers())
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
