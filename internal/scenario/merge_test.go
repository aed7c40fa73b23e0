package scenario

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cstrace/internal/trace"
)

// Reference k-way *block* merge: the container/heap loop the tournament
// grew out of, kept as the order oracle. The record merge must emit exactly
// what this does once its whole-block output — disordered across servers by
// up to a tick — has been put through a trace.SortBuffer: the (T, arrival)
// total order every consumer of the fleet stream used to restore for itself.

type refHead struct {
	blk    *fleetBlock
	server int
}

type refHeap []refHead

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].blk.minT != h[j].blk.minT {
		return h[i].blk.minT < h[j].blk.minT
	}
	return h[i].server < h[j].server
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refHead)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// refMerge drains the streams with the reference heap, in block order.
func refMerge(chans []chan *fleetBlock) []*fleetBlock {
	var out []*fleetBlock
	var h refHeap
	for i, ch := range chans {
		if blk, ok := <-ch; ok {
			h = append(h, refHead{blk: blk, server: i})
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		head := h[0]
		out = append(out, head.blk)
		if blk, ok := <-chans[head.server]; ok {
			h[0] = refHead{blk: blk, server: head.server}
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return out
}

// oracle is the old pipeline: block merge → SortBuffer → flush. slack must
// exceed the longest block span among the streams (200 ms covered the
// ≤ 100 ms ticks the block merge was limited to).
func oracle(streams [][]*fleetBlock, slack time.Duration) []trace.Record {
	var got trace.Collect
	sb := trace.NewSortBuffer(slack, &got)
	for _, blk := range refMerge(feed(streams, nil)) {
		sb.HandleBatch(blk.recs)
	}
	sb.Flush()
	return got.Records
}

// shape describes one random fleet for randomStreams.
type shape struct {
	k, maxBlocks, maxRecs int
	ticks                 []time.Duration
	stagger               time.Duration // server i starts at (i % 4)·stagger
	grid                  time.Duration // timestamp grid, ≤ every tick; 0 means 10 ms
}

// maxTick is the shape's longest block span.
func (sh shape) maxTick() time.Duration { return slices.Max(sh.ticks) }

// randomStreams builds k sorted per-server block streams the way gamesim
// does: server i emits one block per tick of ticks[i % len], each holding
// 1..maxRecs records inside that tick window. Timestamps sit on a grid
// (10 ms unless the shape sets one), so exact-T ties across servers,
// within a server and across a server's block boundary are all common. Stream lengths are random, so
// streams end early and some are empty. Every record is unique — Client is
// the server, App the record's position in its stream — so comparing merged
// streams compares orders exactly.
func randomStreams(rng *rand.Rand, sh shape) [][]*fleetBlock {
	grid := cmp.Or(sh.grid, 10*time.Millisecond)
	streams := make([][]*fleetBlock, sh.k)
	for i := range streams {
		tick := sh.ticks[i%len(sh.ticks)]
		start := time.Duration(i%4) * sh.stagger
		var seq uint16
		for j, n := 0, rng.Intn(sh.maxBlocks+1); j < n; j++ {
			blk := &fleetBlock{}
			t := start + time.Duration(j)*tick
			for r, m := 0, 1+rng.Intn(sh.maxRecs); r < m; r++ {
				// A random step of up to half of what is left of the window.
				left := start + time.Duration(j+1)*tick - grid - t
				t += time.Duration(rng.Int63n(int64(left/grid)/2+1)) * grid
				blk.recs = append(blk.recs, trace.Record{T: t, Client: uint32(i), App: seq})
				seq++
			}
			blk.minT = blk.recs[0].T
			streams[i] = append(streams[i], blk)
		}
	}
	return streams
}

// feed replays copies of the pre-built streams into fresh channels (the
// merge recycles the blocks it consumes); wg, if non-nil, tracks the senders.
func feed(streams [][]*fleetBlock, wg *sync.WaitGroup) []chan *fleetBlock {
	chans := make([]chan *fleetBlock, len(streams))
	for i, s := range streams {
		chans[i] = make(chan *fleetBlock, streamDepth)
		if wg != nil {
			wg.Add(1)
		}
		go func(ch chan *fleetBlock, blocks []*fleetBlock) {
			for _, b := range blocks {
				ch <- cloneBlock(b)
			}
			close(ch)
			if wg != nil {
				wg.Done()
			}
		}(chans[i], s)
	}
	return chans
}

// recordMerge drains the streams with the tournament under test.
func recordMerge(t *testing.T, streams [][]*fleetBlock) []trace.Record {
	t.Helper()
	var got trace.Collect
	if err := mergeStreams(feed(streams, nil), &got); err != nil {
		t.Fatal(err)
	}
	return got.Records
}

// pack re-blocks each per-tick stream the way serverSink hands it off:
// consecutive generator blocks end to end, a cut where each later one
// starts, and a hand-off once the block holds size records.
func pack(streams [][]*fleetBlock, size int) [][]*fleetBlock {
	out := make([][]*fleetBlock, len(streams))
	for i, s := range streams {
		var cur *fleetBlock
		for _, b := range s {
			if cur == nil {
				cur = &fleetBlock{minT: b.minT}
			} else {
				cur.cuts = append(cur.cuts, len(cur.recs))
			}
			cur.recs = append(cur.recs, b.recs...)
			if len(cur.recs) >= size {
				out[i], cur = append(out[i], cur), nil
			}
		}
		if cur != nil {
			out[i] = append(out[i], cur)
		}
	}
	return out
}

// assertSameMerge checks the tournament against the oracle on the per-tick
// streams as given, then on the same streams packed into hand-off blocks of
// each of the sizes.
func assertSameMerge(t *testing.T, streams [][]*fleetBlock, slack time.Duration, sizes ...int) {
	t.Helper()
	want := oracle(streams, slack)
	check := func(what string, got []trace.Record) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: record merge emitted %d records, block merge + sort %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: record %d: tournament gave %+v, block merge + sort gave %+v", what, i, got[i], want[i])
			}
		}
		if !slices.IsSortedFunc(got, func(a, b trace.Record) int { return int(a.T - b.T) }) {
			t.Fatalf("%s: merged stream not time-ordered", what)
		}
	}
	check("per tick", recordMerge(t, streams))
	for _, size := range sizes {
		check(fmt.Sprintf("hand-off size %d", size), recordMerge(t, pack(streams, size)))
	}
}

// TestLoserTreeMatchesHeapMerge is the property test: across seeded random
// fleet shapes — stream counts around every power-of-two boundary, lengths,
// forced exact-T ties, empty streams, streams that end early, staggered
// starts, mixed ticks (including a 250 ms one the block merge could not
// take) and single-record blocks — the tournament's stream equals the
// reference block merge put through a SortBuffer, record for record. The
// hand-off leg feeds the same streams packed into cut-carrying blocks: one
// record (a block per tick), a few ticks, and the whole stream in one.
func TestLoserTreeMatchesHeapMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := rand.New(rand.NewSource(70))
	for trial := 0; trial < 60; trial++ {
		sh := propertyShape(trial, rng)
		few := 2 + sizes.Intn(4*sh.maxRecs)
		assertSameMerge(t, randomStreams(rng, sh), mergeSlack(sh), 1, few, math.MaxInt)
	}
}

// propertyShape is the property test's shape for a trial: k drawn from
// rng (1, 2, 3 and 8 first), cycling through the paper's 50 ms tick, a
// 70 ms stagger, mixed ticks with a 20 ms stagger, and single-record
// blocks.
func propertyShape(trial int, rng *rand.Rand) shape {
	paper := []time.Duration{50 * time.Millisecond}
	mixed := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond, 30 * time.Millisecond}
	sh := shape{k: 1 + rng.Intn(17), maxBlocks: 40, maxRecs: 6, ticks: paper}
	switch trial % 4 {
	case 1:
		sh.stagger = 70 * time.Millisecond
	case 2:
		sh.ticks, sh.stagger = mixed, 20*time.Millisecond
	case 3:
		sh.maxRecs = 1
	}
	if fixed := []int{1, 2, 3, 8}; trial < len(fixed) {
		sh.k = fixed[trial]
	}
	return sh
}

// mergeSlack is a SortBuffer slack the oracle needs for sh: more than its
// longest block span.
func mergeSlack(sh shape) time.Duration { return max(200*time.Millisecond, 2*sh.maxTick()) }

// FuzzMerge drives the property test's comparison from fuzzer-chosen
// shapes: up to 17 streams, two tick lengths, the timestamp grid (a coarse
// one forces ties), the stagger, records per tick, and the hand-off size.
// The tournament over the packed streams must equal the oracle over the
// per-tick ones.
func FuzzMerge(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		sh := propertyShape(trial, rng)
		ms := func(d time.Duration) uint8 { return uint8(d / time.Millisecond) }
		// The fuzz body adds one to k, the ticks, the grid, the records per
		// tick and the hand-off size.
		f.Add(int64(trial), uint8(sh.k-1), ms(sh.ticks[0])-1, ms(sh.ticks[len(sh.ticks)-1])-1,
			uint8(9), ms(sh.stagger), uint8(sh.maxRecs-1), uint16(trial*3))
	}
	f.Add(int64(9), uint8(16), uint8(249), uint8(29), uint8(29), uint8(20), uint8(5), uint16(0xffff))
	f.Fuzz(func(t *testing.T, seed int64, k, tick1, tick2, grid, stagger, maxRecs uint8, handoff uint16) {
		ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
		sh := shape{
			k:         1 + int(k)%17,
			maxBlocks: 30,
			maxRecs:   1 + int(maxRecs)%8,
			ticks:     []time.Duration{ms(1 + int(tick1)), ms(1 + int(tick2))},
			stagger:   ms(int(stagger)),
		}
		sh.grid = ms(1 + int(grid)%(1+int(min(tick1, tick2))))
		size := 1 + int(handoff)
		if handoff == 0xffff {
			size = math.MaxInt
		}
		streams := randomStreams(rand.New(rand.NewSource(seed)), sh)
		want := oracle(streams, mergeSlack(sh))
		got := recordMerge(t, pack(streams, size))
		if !slices.Equal(got, want) {
			t.Fatalf("shape %+v, hand-off %d: tournament (%d records) differs from block merge + sort (%d)", sh, size, len(got), len(want))
		}
	})
}

// TestLoserTreeSingleStream pins the N=1 degenerate case: the tree is a
// bare leaf and must pass the stream through in channel order.
func TestLoserTreeSingleStream(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	streams := randomStreams(rng, shape{k: 1, maxBlocks: 100, maxRecs: 6, ticks: []time.Duration{50 * time.Millisecond}})
	var want []trace.Record
	for _, blk := range streams[0] {
		want = append(want, blk.recs...)
	}
	if got := recordMerge(t, streams); !slices.Equal(got, want) {
		t.Fatalf("one-stream merge is not a pass-through: %d records out, %d in", len(got), len(want))
	}
}

// TestLoserTreeThousandStreams is the wide edge case: 1000 streams (padded
// to 1024 leaves, most of a level exhausted from the start once short
// streams drain) still merge in exact reference order.
func TestLoserTreeThousandStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sh := shape{k: 1000, maxBlocks: 3, maxRecs: 4, ticks: []time.Duration{50 * time.Millisecond, 100 * time.Millisecond}}
	assertSameMerge(t, randomStreams(rng, sh), 200*time.Millisecond)
}

// TestLoserTreeAllEmpty: a fleet whose every stream closes without a block
// must terminate immediately.
func TestLoserTreeAllEmpty(t *testing.T) {
	if got := recordMerge(t, make([][]*fleetBlock, 5)); len(got) != 0 {
		t.Fatalf("emitted %d records from empty streams", len(got))
	}
}

// TestLoserTreeExhaustedLosesTies: an exhausted leaf sorts at the maximum
// timestamp; a live record that carries that very timestamp, on a higher
// stream index, must still come out.
func TestLoserTreeExhaustedLosesTies(t *testing.T) {
	last := trace.Record{T: math.MaxInt64, Client: 1}
	streams := [][]*fleetBlock{nil, {{recs: trace.Block{last}, minT: last.T}}}
	if got := recordMerge(t, streams); !slices.Equal(got, []trace.Record{last}) {
		t.Fatalf("merged %v, want the one record at the maximum timestamp", got)
	}
}

// TestMergeRejectsRegressingStream: order is checked, not assumed. A stream
// that goes back in time — inside a block, across a block boundary or
// across a cut inside a hand-off block — ends
// the merge with an error naming the server and both timestamps, after
// every record that precedes the regression has been delivered, and with the
// senders able to finish.
func TestMergeRejectsRegressingStream(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	block := func(server uint32, ts ...int) *fleetBlock {
		blk := &fleetBlock{minT: ms(ts[0])}
		for _, n := range ts {
			blk.recs = append(blk.recs, trace.Record{T: ms(n), Client: server})
		}
		return blk
	}
	cut := func(blk *fleetBlock, cuts ...int) *fleetBlock {
		blk.cuts = cuts
		return blk
	}
	// More blocks after the fault than the channel holds: a sender the
	// merge abandoned would block forever.
	tail := func(server uint32) []*fleetBlock {
		var bs []*fleetBlock
		for i := 0; i < 3*streamDepth; i++ {
			bs = append(bs, block(server, 1000+i))
		}
		return bs
	}
	for _, tc := range []struct {
		name   string
		faulty []*fleetBlock
	}{
		{"within a block", []*fleetBlock{block(1, 10, 60, 40, 70)}},
		{"across blocks", []*fleetBlock{block(1, 10, 60), block(1, 40, 70)}},
		{"across a cut", []*fleetBlock{cut(block(1, 10, 60, 40, 70), 2)}},
	} {
		streams := [][]*fleetBlock{
			append([]*fleetBlock{block(0, 0, 50, 100)}, tail(0)...),
			append(tc.faulty, tail(1)...),
		}
		var got trace.Collect
		var wg sync.WaitGroup
		err := mergeStreams(feed(streams, &wg), &got)
		wg.Wait()
		if err == nil {
			t.Fatalf("%s: regressing stream merged without error", tc.name)
		}
		for _, want := range []string{"server 1", "40ms", "60ms"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, want)
			}
		}
		var ts []time.Duration
		for _, r := range got.Records {
			ts = append(ts, r.T)
		}
		if want := []time.Duration{0, ms(10), ms(50), ms(60)}; !slices.Equal(ts, want) {
			t.Errorf("%s: delivered %v before the error, want %v", tc.name, ts, want)
		}
	}
}

// TestServerSinkHandoff pins the hand-off packing: blocks start only at a
// batch's first record, with a cut at the first record of every later
// non-empty batch and none for an empty one; timestamps carry the offset
// and minT is the block's first record; a block goes as soon as it holds
// handoffRecs records, a batch larger than a pooled block's capacity
// arrives whole, and flush sends the partial tail.
func TestServerSinkHandoff(t *testing.T) {
	const offset = 5 * time.Second
	sizes := []int{3, 0, 50, 1, 700, 0, 400, 3 * handoffRecs, 20, 1500, 0, 7}
	ch := make(chan *fleetBlock, len(sizes))
	ss := &serverSink{out: ch, offset: offset}
	var want []trace.Record
	var starts []int // where each non-empty batch begins in want
	var ts time.Duration
	for i, n := range sizes {
		batch := make([]trace.Record, n)
		for r := range batch {
			batch[r] = trace.Record{T: ts, Client: uint32(i), App: uint16(r)}
			ts += time.Millisecond
		}
		if n > 0 {
			starts = append(starts, len(want))
		}
		for _, r := range batch {
			r.T += offset
			want = append(want, r)
		}
		ss.HandleBatch(batch)
		if n > 0 && batch[0].T+offset != want[starts[len(starts)-1]].T {
			t.Fatalf("batch %d: the sink shifted the generator's block in place", i)
		}
	}
	if len(ch) != 3 {
		t.Fatalf("%d blocks handed off before flush, want 3", len(ch))
	}
	ss.flush()
	close(ch)
	var got []trace.Record
	var gotStarts []int
	for blk := range ch {
		final := len(got)+len(blk.recs) == len(want)
		if blk.minT != blk.recs[0].T {
			t.Errorf("block at record %d: minT %v, first record at %v", len(got), blk.minT, blk.recs[0].T)
		}
		lastStart := 0
		if len(blk.cuts) > 0 {
			lastStart = blk.cuts[len(blk.cuts)-1]
		}
		if full := len(blk.recs) >= handoffRecs; full == final || lastStart >= handoffRecs {
			t.Errorf("block at record %d holds %d records (last batch from %d), final %v: not handed off at %d",
				len(got), len(blk.recs), lastStart, final, handoffRecs)
		}
		gotStarts = append(gotStarts, len(got))
		for _, c := range blk.cuts {
			gotStarts = append(gotStarts, len(got)+c)
		}
		got = append(got, blk.recs...)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("handed off %d records, want the %d fed, shifted by %v", len(got), len(want), offset)
	}
	if !slices.Equal(gotStarts, starts) {
		t.Fatalf("blocks and cuts start batches at %v, want %v", gotStarts, starts)
	}
}
