package analysis

import (
	"strings"
	"sync"
	"sync/atomic"

	"cstrace/internal/sched"
	"cstrace/internal/trace"
)

// Sharded mode: the suite's five collector units (shardUnit, in the order
// sizes flows gaps kinds clock) are dealt to worker goroutines in
// contiguous even chunks (sched.Split) and never move; the clock unit, the
// heaviest, goes last to share a group with kinds, the lightest. Every
// incoming block fans out to all workers over bounded channels as one
// refcounted trace.ColumnBlock: a v4 segment's decoded columns as they
// arrive (IngestColumns), records transposed into one (Handle, HandleBatch,
// IngestBlock). Because each collector sees every record in exactly the
// stream order (channels are FIFO and each unit lives on exactly one
// worker), sharded results are byte-identical to single-threaded results —
// the parallelism only overlaps the sweeps in time. Each worker records
// channel-depth statistics at enqueue time (Depths), so a straggler is
// measurable rather than guessed.

// ShardChanDepth bounds each group's channel: enough to keep workers busy,
// small enough to backpressure the generator instead of ballooning memory.
// Depth statistics (GroupDepth) are reported against this bound.
const ShardChanDepth = 8

// maxAutoShardWorkers caps budget grants for Sink(sched.Auto): at five
// workers every unit has a worker of its own, and the rest of the budget is
// left to the stages that run beside the suite (decode, deflate).
const maxAutoShardWorkers = 5

// shardBlock is one fanned-out column block, shared read-only by every
// group and returned to the trace pool when the last one finishes with it.
type shardBlock struct {
	cols *trace.ColumnBlock
	refs atomic.Int32
}

// release drops one reference and recycles the block when it was the last.
func (b *shardBlock) release() {
	if b.refs.Add(-1) != 0 {
		return
	}
	trace.FreeColumnBlock(b.cols)
	b.cols = nil
	carrierPool.Put(b)
}

// carrierPool recycles the refcounted carriers; the columns they carry
// belong to the trace pool.
var carrierPool = sync.Pool{New: func() any { return new(shardBlock) }}

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
	sweep func(*trace.ColumnBlock)
}

// units returns the suite's collector units in deal order, each a column
// sweep.
func (s *Suite) units() []shardUnit {
	return []shardUnit{
		{"sizes", func(cb *trace.ColumnBlock) { s.Sizes.HandleColumns(cb) }},
		{"flows", func(cb *trace.ColumnBlock) { s.Flows.HandleColumns(cb) }},
		{"gaps", func(cb *trace.ColumnBlock) { s.Gaps.HandleColumns(cb) }},
		{"kinds", func(cb *trace.ColumnBlock) { s.Kinds.HandleColumns(cb) }},
		{"clock", s.sweepClock},
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
// on the IngestColumns path — decode workers whose hand-offs are ordered by
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
			u.sweep(blk.cols)
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
	pending *trace.ColumnBlock // transposed records awaiting a full block
	stopped bool
}

// Shard wraps a freshly built Suite in sharded mode: its five collector
// units are dealt to min(max(workers, 2), 5) goroutines in contiguous even
// chunks, earlier workers taking the remainder, and stay there. Use the
// plain Suite for single-threaded runs. The caller must not feed the inner
// Suite directly afterwards.
func Shard(s *Suite, workers int) *ShardedSuite {
	units := s.sweeps
	sh := &ShardedSuite{Suite: s, pending: trace.NewColumnBlock()}
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
func (sh *ShardedSuite) Handle(r trace.Record) { sh.HandleBatch([]trace.Record{r}) }

// HandleBatch implements trace.BatchHandler. The batch is transposed into
// the pending column block (the caller reuses its slab immediately), which
// fans out each time it fills to BlockSize.
func (sh *ShardedSuite) HandleBatch(rs []trace.Record) {
	for len(rs) > 0 {
		n := min(trace.BlockSize-sh.pending.Len(), len(rs))
		sh.pending.AppendFrom(rs[:n])
		rs = rs[n:]
		if sh.pending.Len() == trace.BlockSize {
			sh.flush()
		}
	}
}

// flush fans the pending block out to every group.
func (sh *ShardedSuite) flush() {
	if sh.pending.Len() == 0 {
		return
	}
	sh.fan(sh.pending)
	sh.pending = trace.NewColumnBlock()
}

// fan enqueues one column block to every group, taking ownership of it:
// the last sweep to finish recycles it.
func (sh *ShardedSuite) fan(cb *trace.ColumnBlock) {
	blk := carrierPool.Get().(*shardBlock)
	blk.cols = cb
	blk.refs.Store(int32(len(sh.workers)))
	for _, w := range sh.workers {
		w.send(blk)
	}
}

// IngestBlock implements trace.BlockIngester: the block's records are
// transposed into the pending column block as HandleBatch does, and the
// block goes straight back to the trace pool.
func (sh *ShardedSuite) IngestBlock(blk *trace.Block) {
	sh.HandleBatch(*blk)
	trace.FreeBlock(blk)
}

// IngestColumns implements trace.ColumnIngester: a column-decoded segment
// chunk fans out to every group as it is, after any records pending ahead
// of it. Ownership of cb transfers to the suite; it is recycled when the
// last group's sweep finishes. Calls must be serialized and ordered
// relative to Handle/HandleBatch/IngestBlock — trace.Reader's in-order
// delivery provides exactly that — because each group's channel has a
// single logical enqueuer.
func (sh *ShardedSuite) IngestColumns(cb *trace.ColumnBlock) {
	if cb.Len() == 0 {
		trace.FreeColumnBlock(cb)
		return
	}
	sh.flush() // records transposed earlier must stay ahead of this block
	sh.fan(cb)
}

// Close flushes pending records, drains and stops the workers, then
// finalizes the underlying suite. Call once after the last record.
func (sh *ShardedSuite) Close() {
	if !sh.stopped {
		sh.stopped = true
		sh.flush()
		trace.FreeColumnBlock(sh.pending)
		sh.pending = nil
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
