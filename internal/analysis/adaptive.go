package analysis

import (
	"slices"
	"sync"
	"time"

	"cstrace/internal/sched"
)

// Adaptive sharding: the feedback loop that makes "-parallel auto" match a
// hand-tuned static assignment. The static Shard splits the suite's
// collectors into fixed cost-profile groups; the adaptive variant starts
// from (a finer version of) that split and then uses the channel-depth
// statistics the static mode only reports — each group's queue length at
// enqueue, the measurement that names the straggler — to migrate collector
// units between worker goroutines while the run is in flight.
//
// Determinism is structural, not statistical. A unit is a closed set of
// collectors swept together; every worker's channel receives every block,
// and a worker sweeps exactly its assigned units over each block it
// receives. Moving a unit between workers therefore never changes what the
// unit's collectors see — every block, in stream order — as long as no
// block is in flight during the move. Rebalancing happens only at epoch
// boundaries behind a quiesce barrier: the enqueuer stops, a barrier block
// drains through every channel, workers park, the assignment mutates, and
// the stream resumes. Reports are byte-identical to the static assignment
// (and to a single-threaded run) at every setting; measured depths and
// sweep times steer only *where* work runs, never *what* it computes.
//
// The rebalance decision is two measurements deep:
//
//   - which worker: epoch-windowed mean channel depth. The straggler is
//     the worker whose queue the enqueuer keeps finding full; the target
//     is the one whose queue is empty.
//   - which unit: per-unit sweep time, accumulated by each worker between
//     quiesces (reading them is safe exactly because the barrier is a
//     happens-before edge). The unit moved is the one that brings the two
//     workers' measured loads closest to level.

const (
	// shardEpochBlocks is the rebalance cadence: every this many fanned
	// blocks the enqueuer compares epoch depth means and may quiesce.
	// At the 4096-record block size one epoch is ~256k records — long
	// enough to smooth scheduling noise, short enough that a straggler
	// costs at most a few epochs before the load follows it.
	shardEpochBlocks = 64

	// rebalanceMinGap is the minimum straggler-vs-lightest difference in
	// epoch mean depth (in blocks, against the ShardChanDepth bound)
	// before a quiesce is worth its pipeline stall.
	rebalanceMinGap = 2.0

	// maxAutoShardWorkers caps budget grants for an auto-sharded suite:
	// beyond the collector units' natural split the extra workers would
	// idle.
	maxAutoShardWorkers = 5
)

// Rebalance records one unit migration performed by an adaptive shard.
type Rebalance struct {
	// Block is the fan-out block count at which the move fired.
	Block int64
	// Unit is the migrated collector unit's name.
	Unit string
	// From and To are ingest worker indices (the order Depths reports).
	From, To int
}

// ShardAdaptive wraps a freshly built Suite in adaptive sharded mode with
// up to workers goroutines (clamped to the movable units; values below 2
// still shard with 2). The movable units are finer than the static groups
// — every collector that can stand alone does — so the rebalancer has real
// freedom. Results are byte-identical to Shard and to the plain Suite at
// every setting — the adaptive layer re-homes collector units between
// workers at quiesced epoch boundaries, it never changes what a collector
// sees. The caller must not feed the inner Suite directly afterwards.
func ShardAdaptive(s *Suite, workers int) *ShardedSuite {
	return newAdaptive(s, nil, workers)
}

// newAdaptive assembles the engine with rebalancing on, over the suite's
// own units or — when units is non-nil — an explicit list (tests inject
// synthetic units here). The down workers newSharded splits off are not
// part of the adaptive set: their feed is the sort worker's output, not
// the enqueuer's fan-out.
func newAdaptive(s *Suite, units []*shardUnit, workers int) *ShardedSuite {
	sh, groups, workers := newSharded(s, workers)
	sh.adaptive, sh.epochLen = true, shardEpochBlocks
	if units == nil {
		for _, g := range groups {
			units = append(units, g.units...)
		}
	}
	workers = min(max(workers, 2), len(units))
	// Initial assignment: contiguous even chunks. The unit list is ordered
	// by the static cost-profile grouping, so the chunks start close to
	// the hand-tuned split and the feedback loop refines from there.
	next := 0
	for _, n := range sched.Split(len(units), workers) {
		// Cloned: a rebalance appends to one worker's list in place, which
		// must not run into its neighbour's slots of the shared array.
		sh.ingest = append(sh.ingest, newShardWorker("", slices.Clone(units[next:next+n])...))
		next += n
	}
	startWorkers(sh.ingest, &sh.wg)
	sh.snapshotDepths()
	return sh
}

// fanned is the adaptive hook on the enqueue path: every fanned block
// advances the epoch clock, and epoch boundaries run the rebalance check.
// It runs on the (single logical) enqueuer.
func (sh *ShardedSuite) fanned() {
	if !sh.adaptive {
		return
	}
	sh.blocks++
	if sh.blocks%sh.epochLen == 0 {
		sh.maybeRebalance()
	}
}

// snapshotDepths marks the start of a new depth-measurement epoch.
func (sh *ShardedSuite) snapshotDepths() {
	if len(sh.lastEpoch) != len(sh.ingest) {
		sh.lastEpoch = make([]GroupDepth, len(sh.ingest))
	}
	for i, w := range sh.ingest {
		sh.lastEpoch[i] = w.depth
	}
}

// quiesce drains every ingest worker: a barrier block through each channel,
// then a wait until all workers have parked. On return no block is in
// flight, the workers' accumulated unit costs are visible to the caller
// (the barrier is the happens-before edge), and the assignment may mutate.
func (sh *ShardedSuite) quiesce() {
	var wg sync.WaitGroup
	wg.Add(len(sh.ingest))
	bar := &shardBlock{barrier: &wg}
	for _, w := range sh.ingest {
		w.ch <- bar
	}
	wg.Wait()
}

// maybeRebalance compares the epoch's per-worker mean channel depths and,
// when one worker is measurably the straggler, quiesces the pipeline and
// migrates the unit that best levels the two workers' measured sweep
// costs. Runs on the enqueuer at an epoch boundary.
func (sh *ShardedSuite) maybeRebalance() {
	defer sh.snapshotDepths()
	strag, light := -1, -1
	var stragMean, lightMean float64
	for i, w := range sh.ingest {
		blocks := w.depth.Blocks - sh.lastEpoch[i].Blocks
		if blocks == 0 {
			continue
		}
		mean := float64(w.depth.SumDepth-sh.lastEpoch[i].SumDepth) / float64(blocks)
		if strag == -1 || mean > stragMean {
			strag, stragMean = i, mean
		}
		if light == -1 || mean < lightMean {
			light, lightMean = i, mean
		}
	}
	if strag == -1 || strag == light || stragMean-lightMean < rebalanceMinGap {
		return
	}
	src, dst := sh.ingest[strag], sh.ingest[light]
	if len(src.units) < 2 {
		return // an indivisible straggler: nothing to shed
	}

	sh.quiesce()

	// Costs are quiesce-fresh: pick the move that most levels the pair.
	var srcSum, dstSum time.Duration
	for _, u := range src.units {
		srcSum += u.cost
	}
	for _, u := range dst.units {
		dstSum += u.cost
	}
	abs := func(d time.Duration) time.Duration {
		if d < 0 {
			return -d
		}
		return d
	}
	best, bestGap := -1, abs(srcSum-dstSum)
	for i, u := range src.units {
		if gap := abs((srcSum - u.cost) - (dstSum + u.cost)); gap < bestGap {
			best, bestGap = i, gap
		}
	}
	if best >= 0 {
		u := src.units[best]
		src.units = append(src.units[:best], src.units[best+1:]...)
		dst.units = append(dst.units, u)
		sh.rebalances = append(sh.rebalances, Rebalance{
			Block: sh.blocks, Unit: u.name, From: strag, To: light,
		})
	}
	// New epoch, fresh cost window. Safe to touch worker-owned counters:
	// the workers are parked until the next (post-mutation) send.
	for _, w := range sh.ingest {
		for _, u := range w.units {
			u.cost = 0
		}
	}
}

// Rebalances returns the unit migrations an adaptive shard performed, in
// order. Nil for static shards. Valid after Close.
func (sh *ShardedSuite) Rebalances() []Rebalance { return sh.rebalances }

// unitNames renders a worker's current unit assignment for Depths.
func unitNames(units []*shardUnit) string {
	var s string
	for i, u := range units {
		if i > 0 {
			s += "+"
		}
		s += u.name
	}
	return s
}
