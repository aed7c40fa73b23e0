package scenario

import (
	"fmt"
	"math"
	"time"

	"cstrace/internal/trace"
)

// loserTree is the fleet merge: a record-level tournament over the
// per-server streams. Each leaf is one server's current block plus a
// cursor; the tree's winner is the next record of the merged stream, so the
// output is strictly time-ordered and nothing downstream sorts it again.
//
// Leaves compare by (T of the record at the cursor, that block's minT,
// server index). Every server ticks on the same grid, so exact-T ties
// across servers are the common case, not the edge case; the two trailing
// keys resolve them the way the block merge this replaced did — whole
// blocks in (minT, server) order, then a stable sort by T, i.e. (T,
// arrival) — because a server's blocks arrive in increasing minT, which
// makes "arrived earlier" and "(minT, server) smaller" the same relation.
//
// Layout: m = next power of two ≥ k leaves (the padding leaves are
// permanently exhausted and lose every match), node[1..m-1] hold each
// internal match's *loser*, node[0] the overall winner. Advancing the
// winner's cursor touches only that leaf's root path: compare against each
// stored loser, swap when the incumbent wins, and the element that survives
// to the top is the new winner — ceil(log2 k) inline integer comparisons
// per record, on the one serial stage of a fleet run.
type loserTree struct {
	chans []chan *fleetBlock
	leaf  []mergeLeaf
	node  []int // node[0] = winner leaf, node[1..m-1] = match losers
	m     int   // leaf count, next power of two >= len(chans)
}

// mergeLeaf is one stream's cursor. The sort key is cached here so a match
// never dereferences the block.
type mergeLeaf struct {
	t, minT time.Duration // key of recs[pos]; both max once exhausted
	rank    int           // stream index; +m once exhausted, so live leaves win key ties
	recs    []trace.Record
	pos     int
	blk     *fleetBlock // nil = exhausted
}

// mergeStreams merges the per-server streams into sink and leaves every
// channel drained: a merge that failed stopped consuming, and the senders
// must still be able to finish.
func mergeStreams(chans []chan *fleetBlock, sink trace.Handler) error {
	err := newLoserTree(chans).run(sink)
	for _, ch := range chans {
		for range ch {
		}
	}
	return err
}

// newLoserTree blocks for one head block per stream, in index order, and
// builds the initial tournament.
func newLoserTree(chans []chan *fleetBlock) *loserTree {
	m := 1
	for m < len(chans) {
		m <<= 1
	}
	lt := &loserTree{chans: chans, leaf: make([]mergeLeaf, m), node: make([]int, m), m: m}
	for i := range lt.leaf {
		lt.leaf[i].rank = i
		lt.refill(i)
	}
	lt.build()
	return lt
}

// refill recycles leaf j's spent block and seats its stream's next one;
// a closed stream (or a padding leaf) becomes exhausted.
func (lt *loserTree) refill(j int) {
	lf := &lt.leaf[j]
	if lf.blk != nil {
		fleetBlockPool.Put(lf.blk)
		lf.blk = nil
	}
	if j < len(lt.chans) {
		for blk := range lt.chans[j] {
			if len(blk.recs) > 0 {
				lf.blk, lf.recs, lf.pos = blk, blk.recs, 0
				lf.t, lf.minT = blk.recs[0].T, blk.minT
				return
			}
			fleetBlockPool.Put(blk)
		}
	}
	lf.recs, lf.pos = nil, 0
	lf.t, lf.minT, lf.rank = math.MaxInt64, math.MaxInt64, j+lt.m
}

// build runs the full initial tournament: winner(n) resolves subtree n's
// winning leaf, storing each match's loser at its node on the way up.
func (lt *loserTree) build() {
	if lt.m == 1 {
		return // node[0] is already leaf 0
	}
	var winner func(n int) int
	winner = func(n int) int {
		if n >= lt.m {
			return n - lt.m
		}
		a, b := winner(2*n), winner(2*n+1)
		if lt.beats(b, a) {
			a, b = b, a
		}
		lt.node[n] = b
		return a
	}
	lt.node[0] = winner(1)
}

// beats reports whether leaf a's head record precedes leaf b's.
func (lt *loserTree) beats(a, b int) bool {
	la, lb := &lt.leaf[a], &lt.leaf[b]
	if la.t != lb.t {
		return la.t < lb.t
	}
	if la.minT != lb.minT {
		return la.minT < lb.minT
	}
	return la.rank < lb.rank
}

// replay re-seats leaf j after its head changed: walk j's root path,
// swapping with any stored loser that now beats the climbing element.
func (lt *loserTree) replay(j int) {
	w := j
	for n := (lt.m + j) / 2; n >= 1; n /= 2 {
		if lt.beats(lt.node[n], w) {
			w, lt.node[n] = lt.node[n], w
		}
	}
	lt.node[0] = w
}

// run drains the streams into sink as one time-ordered stream, re-blocked
// into full trace.BlockSize blocks and one tail, so the merged stream's
// block boundaries depend on the data only. Every record is checked
// against its own stream's previous timestamp as the cursor passes it: a
// stream that regresses ends the merge with an error naming the server,
// after everything merged so far has been delivered.
func (lt *loserTree) run(sink trace.Handler) error {
	blk := trace.NewBlock()
	defer trace.FreeBlock(blk)
	out := *blk
	for {
		w := lt.node[0]
		lf := &lt.leaf[w]
		if lf.blk == nil {
			trace.Dispatch(sink, out)
			return nil
		}
		out = append(out, lf.recs[lf.pos])
		if len(out) == cap(out) {
			trace.Dispatch(sink, out)
			out = out[:0]
		}
		prev := lf.t
		if lf.pos++; lf.pos < len(lf.recs) {
			lf.t = lf.recs[lf.pos].T
		} else {
			lt.refill(w)
		}
		if lf.t < prev {
			trace.Dispatch(sink, out)
			return fmt.Errorf("scenario: server %d: record at %v precedes the stream's previous record at %v", w, lf.t, prev)
		}
		lt.replay(w)
	}
}
