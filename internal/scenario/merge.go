package scenario

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"cstrace/internal/trace"
)

// loserTree is the fleet merge: a record-level tournament over the
// per-server streams. Each leaf is one server's current hand-off block plus
// a cursor; the tree's winner is the next record of the merged stream, so
// the output is strictly time-ordered and nothing downstream sorts it again.
//
// Leaves compare by (T of the record at the cursor, minT of the generator
// block that record came from, server index). Every server ticks on the
// same grid, so exact-T ties across servers are the common case, not the
// edge case; the two trailing keys resolve them the way the block merge
// this replaced did — whole generator blocks in (minT, server) order, then
// a stable sort by T, i.e. (T, arrival) — because a server's generator
// blocks arrive in increasing minT, which makes "arrived earlier" and
// "(minT, server) smaller" the same relation. A hand-off block packs many
// generator blocks; its cuts say where each later one starts, and a leaf
// resets its minT to the record's T as its cursor crosses a cut, so the
// keys are exactly those of one block per tick.
//
// Layout: m = next power of two ≥ k leaves (the padding leaves are
// permanently exhausted and lose every match), node[1..m-1] hold each
// internal match's *loser's key*, node[0] the initial winner's (run then
// carries the winner's key itself). A key is the three fields as unsigned
// words (mergeKey), so a match is one 192-bit subtraction's borrow and the
// leaf it names is rank & (m-1). Advancing the winner's cursor touches only that leaf's root path:
// at each node the stored loser and the climbing key swap under a mask
// when the loser wins — ceil(log2 k) branch-free matches per record, on
// the one serial stage of a fleet run, and no leaf is dereferenced until
// the winner is known.
type loserTree struct {
	chans []chan *fleetBlock
	leaf  []mergeLeaf
	node  []mergeKey // node[0] = initial winner's key, node[1..m-1] = match losers' keys
	m     int        // leaf count, next power of two >= len(chans)
}

// mergeKey is a leaf's sort key, packed for a branch-free compare: t and
// minT are sign-flipped (flip), so unsigned order of the three words is the
// order of (T, minT, rank). rank is the stream index, plus m once
// exhausted, so a live leaf wins every key tie against an exhausted one
// and a winning rank ≥ m means every stream is done; an exhausted leaf's
// t and minT are both the maximum.
type mergeKey struct{ t, minT, rank uint64 }

// flip maps a signed timestamp onto an unsigned word of the same order.
func flip(d time.Duration) uint64 { return uint64(d) ^ 1<<63 }

// exhausted is the key of a leaf with no records left.
func exhausted(rank int) mergeKey {
	return mergeKey{t: math.MaxUint64, minT: math.MaxUint64, rank: uint64(rank)}
}

// less returns 1 when a precedes b and 0 otherwise: the borrow out of a−b
// taken as one 192-bit number, rank in the low word. Ranks are distinct,
// so two keys are never equal.
func less(a, b mergeKey) uint64 {
	_, borrow := bits.Sub64(a.rank, b.rank, 0)
	_, borrow = bits.Sub64(a.minT, b.minT, borrow)
	_, borrow = bits.Sub64(a.t, b.t, borrow)
	return borrow
}

// mergeLeaf is one stream's cursor over its current hand-off block.
type mergeLeaf struct {
	recs []trace.Record
	pos  int
	next int    // the next cut after pos, or len(recs): where the key's minT changes or the block ends
	cuts []int  // the block's cuts after next
	minT uint64 // flipped minT of the generator block holding recs[pos]
	blk  *fleetBlock
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
	lt := &loserTree{chans: chans, leaf: make([]mergeLeaf, m), node: make([]mergeKey, m), m: m}
	for j := range lt.leaf {
		lt.refill(j)
	}
	lt.build()
	return lt
}

// refill recycles leaf j's spent block and seats its stream's next one,
// reporting whether there was one; a closed stream (or a padding leaf)
// leaves the leaf exhausted.
func (lt *loserTree) refill(j int) bool {
	lf := &lt.leaf[j]
	if lf.blk != nil {
		fleetBlockPool.Put(lf.blk)
		lf.blk = nil
	}
	if j < len(lt.chans) {
		for blk := range lt.chans[j] {
			if len(blk.recs) > 0 {
				lf.blk, lf.recs, lf.pos, lf.cuts = blk, blk.recs, 0, blk.cuts
				lf.minT = flip(blk.minT)
				lf.seek()
				return true
			}
			fleetBlockPool.Put(blk)
		}
	}
	lf.recs, lf.pos, lf.cuts = nil, 0, nil
	return false
}

// seek points next at the following cut, or the block's end.
func (lf *mergeLeaf) seek() {
	if len(lf.cuts) == 0 {
		lf.next = len(lf.recs)
		return
	}
	lf.next, lf.cuts = lf.cuts[0], lf.cuts[1:]
}

// key returns leaf j's current key.
func (lt *loserTree) key(j int) mergeKey {
	lf := &lt.leaf[j]
	if lf.blk == nil {
		return exhausted(j + lt.m)
	}
	return mergeKey{t: flip(lf.recs[lf.pos].T), minT: lf.minT, rank: uint64(j)}
}

// build runs the full initial tournament: winner(n) resolves subtree n's
// winning key, storing each match's loser at its node on the way up.
func (lt *loserTree) build() {
	var winner func(n int) mergeKey
	winner = func(n int) mergeKey {
		if n >= lt.m {
			return lt.key(n - lt.m)
		}
		a, b := winner(2*n), winner(2*n+1)
		if less(b, a) == 1 {
			a, b = b, a
		}
		lt.node[n] = b
		return a
	}
	lt.node[0] = winner(1)
}

// replay re-seats leaf j's new key w and returns the new winner's key:
// walk j's root path, swapping w with any stored loser that beats it, under
// a mask instead of a branch — the outcome of a match between interleaved
// servers is a coin flip a branch predictor cannot learn.
func (lt *loserTree) replay(w mergeKey, j int) mergeKey {
	node := lt.node
	for n := (lt.m + j) >> 1; n >= 1; n >>= 1 {
		nd := &node[n]
		mask := -less(*nd, w)
		dt := (nd.t ^ w.t) & mask
		dm := (nd.minT ^ w.minT) & mask
		dr := (nd.rank ^ w.rank) & mask
		nd.t, w.t = nd.t^dt, w.t^dt
		nd.minT, w.minT = nd.minT^dm, w.minT^dm
		nd.rank, w.rank = nd.rank^dr, w.rank^dr
	}
	return w
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
	out, n := (*blk)[:cap(*blk)], 0
	w, m := lt.node[0], uint64(lt.m)
	for {
		if w.rank >= m { // an exhausted leaf won: every stream is done
			trace.Dispatch(sink, out[:n])
			return nil
		}
		j := int(w.rank)
		lf := &lt.leaf[j]
		prev := time.Duration(w.t ^ 1<<63) // the winner's T, from its key
		out[n] = lf.recs[lf.pos]
		if n++; n == len(out) {
			trace.Dispatch(sink, out)
			n = 0
		}
		if lf.pos++; lf.pos < lf.next || lt.cross(j) {
			t := lf.recs[lf.pos].T
			if t < prev {
				trace.Dispatch(sink, out[:n])
				return fmt.Errorf("scenario: server %d: record at %v precedes the stream's previous record at %v", j, t, prev)
			}
			w.t, w.minT = flip(t), lf.minT
		} else {
			w = exhausted(j + lt.m)
		}
		w = lt.replay(w, j)
	}
}

// cross moves leaf j's cursor, which has reached next, over a cut — the
// next generator block starts here, so its T becomes the key's minT — or
// onto the stream's next block. It reports false once the stream is
// exhausted.
func (lt *loserTree) cross(j int) bool {
	lf := &lt.leaf[j]
	if lf.pos == len(lf.recs) {
		return lt.refill(j)
	}
	lf.minT = flip(lf.recs[lf.pos].T)
	lf.seek()
	return true
}
