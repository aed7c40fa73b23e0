package trace

import (
	"cmp"
	"container/heap"
	"slices"
	"time"
)

// SortBuffer restores strict time order to a record stream whose disorder is
// bounded (a live capture interleaves per-client datagrams within one server
// tick). Records are released once the stream's high-water mark has moved
// slack past them; ties release in arrival order.
//
// The per-record path holds records in a min-heap. The batch path instead
// appends arrivals to an unsorted pending buffer and, on release, partitions
// out the eligible records and sorts just those — the input is nearly sorted,
// so the sort is close to linear, and it touches each record once instead of
// paying a heap sift on every insert. Both paths share one total order
// (timestamp, then arrival), so they interleave freely and emit identical
// streams.
//
// Consumers that need exact ordering — the binary trace writer, the NAT
// queueing model — sit behind a SortBuffer; order-insensitive collectors
// (histograms, binners) do not pay for one.
type SortBuffer struct {
	slack   time.Duration
	next    Handler
	maxSeen time.Duration
	h       sortHeap // record-path arrivals (heap order)
	pend    []Record // batch-path arrivals, in arrival order; all newer than h
	seq     uint64   // arrival number of the next heap entry
	sorter  timeSorter
	scratch Block // reused downstream release buffer
}

// NewSortBuffer creates a buffer releasing records slack behind the
// high-water mark. slack must exceed the stream's worst-case disorder.
func NewSortBuffer(slack time.Duration, next Handler) *SortBuffer {
	return &SortBuffer{slack: slack, next: next}
}

// Handle implements Handler.
func (s *SortBuffer) Handle(r Record) {
	// Mixed feeds: fold pending batch arrivals into the heap once, so the
	// per-record path keeps its O(log n) cost instead of rescanning the
	// pending buffer on every packet. They fold in arrival order, so every
	// heap entry stays older than anything a later batch leaves pending.
	for _, p := range s.pend {
		s.h.pushItem(sortItem{r: p, seq: s.seq})
		s.seq++
	}
	s.pend = s.pend[:0]
	heap.Push(&s.h, sortItem{r: r, seq: s.seq})
	s.seq++
	if r.T > s.maxSeen {
		s.maxSeen = r.T
	}
	for len(s.h) > 0 && s.h[0].r.T <= s.maxSeen-s.slack {
		s.next.Handle(heap.Pop(&s.h).(sortItem).r)
	}
}

// HandleBatch implements BatchHandler.
func (s *SortBuffer) HandleBatch(rs []Record) {
	for _, r := range rs {
		if r.T > s.maxSeen {
			s.maxSeen = r.T
		}
	}
	s.pend = append(s.pend, rs...)
	s.release(s.maxSeen - s.slack)
}

// release emits every buffered record with T <= watermark, in total order,
// delivering them downstream in blocks.
func (s *SortBuffer) release(watermark time.Duration) {
	elig := s.sorter.take(&s.pend, watermark)
	defer s.sorter.done(&s.pend)
	if cap(s.scratch) == 0 {
		s.scratch = make(Block, 0, BlockSize)
	}
	blk := s.scratch[:0]
	for {
		var r Record
		// A heap entry predates every pending one, so it wins a tie.
		if len(s.h) > 0 && s.h[0].r.T <= watermark && (len(elig) == 0 || s.h[0].r.T <= elig[0].T) {
			r = s.h.popItem().r
		} else if len(elig) > 0 {
			r, elig = elig[0], elig[1:]
		} else {
			break
		}
		blk = append(blk, r)
		if len(blk) == cap(blk) {
			Dispatch(s.next, blk)
			blk = blk[:0]
		}
	}
	Dispatch(s.next, blk)
	s.scratch = blk[:0]
}

// timeSorter is the package's one stable time-sort, shared by both reorder
// buffers (SortBuffer's batch path and Writer.SortWindow): partition a
// pending buffer at a watermark and put the eligible records in (T, arrival)
// order.
type timeSorter struct {
	elig   []Record // reused partition buffer
	keys   []uint64 // reused packed sort keys
	gather []Record // reused sorted output
	lent   int      // length of the prefix of pend the last take returned in place
}

// take removes every record with T <= watermark from *pend, compacting the
// rest in place, and returns them stable-sorted by T: pend holds records in
// arrival order, so that is the (T, arrival) total order. The common case
// packs (T−minT, index) into native uint64 keys and sorts those — no
// comparison closure — falling back to a comparator sort when the range or
// count overflows the packing. The result is valid until done, which every
// take must be followed by.
//
// A stream that arrives already ordered (the fleet merge's, since it went
// record-level) is not copied at all: when the eligible records are an
// in-order prefix of *pend, take returns that prefix where it lies and leaves
// it to done to slide the remainder down over it, once.
func (ts *timeSorter) take(pend *[]Record, watermark time.Duration) []Record {
	p := *pend
	n := 0
	for n < len(p) && p[n].T <= watermark && (n == 0 || p[n-1].T <= p[n].T) {
		n++
	}
	rest := n
	for rest < len(p) && p[rest].T > watermark {
		rest++
	}
	if rest == len(p) {
		ts.lent = n
		return p[:n]
	}
	elig, keep := ts.elig[:0], p[:0]
	var minT, maxT time.Duration
	inverted := false
	for _, r := range p {
		switch {
		case r.T > watermark:
			keep = append(keep, r)
			continue
		case len(elig) == 0:
			minT, maxT = r.T, r.T
		case r.T >= maxT:
			maxT = r.T
		default:
			inverted = true
			minT = min(minT, r.T)
		}
		elig = append(elig, r)
	}
	*pend, ts.elig = keep, elig[:0]
	if !inverted {
		return elig
	}
	const idxBits = 16
	if len(elig) <= 1<<idxBits && uint64(maxT-minT) < 1<<(64-idxBits-1) {
		keys, out := ts.keys[:0], ts.gather[:0]
		for i, r := range elig {
			keys = append(keys, uint64(r.T-minT)<<idxBits|uint64(i))
		}
		slices.Sort(keys)
		for _, k := range keys {
			out = append(out, elig[k&(1<<idxBits-1)])
		}
		ts.keys, ts.gather = keys[:0], out[:0]
		return out
	}
	slices.SortStableFunc(elig, func(a, b Record) int { return cmp.Compare(a.T, b.T) })
	return elig
}

// done ends a take: the caller has consumed the records it returned, and a
// prefix handed out in place is dropped from *pend now.
func (ts *timeSorter) done(pend *[]Record) {
	if ts.lent > 0 {
		*pend = (*pend)[:copy(*pend, (*pend)[ts.lent:])]
		ts.lent = 0
	}
}

// Flush releases everything still buffered, in order. Call once after the
// last record.
func (s *SortBuffer) Flush() {
	s.release(1<<63 - 1)
}

// Pending returns the number of buffered records.
func (s *SortBuffer) Pending() int { return len(s.h) + len(s.pend) }

type sortItem struct {
	r   Record
	seq uint64
}

type sortHeap []sortItem

func (h sortHeap) Len() int { return len(h) }
func (h sortHeap) Less(i, j int) bool {
	if h[i].r.T != h[j].r.T {
		return h[i].r.T < h[j].r.T
	}
	return h[i].seq < h[j].seq
}
func (h sortHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *sortHeap) Push(x any)   { *h = append(*h, x.(sortItem)) }
func (h *sortHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// pushItem is the non-boxing equivalent of heap.Push, used when folding
// batch arrivals into the heap; it maintains the same binary-heap invariant.
func (h *sortHeap) pushItem(it sortItem) {
	*h = append(*h, it)
	a := *h
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !a.Less(i, parent) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

// popItem is the non-boxing equivalent of heap.Pop used by release; it
// maintains the same binary-heap invariant, so the two paths mix freely.
func (h *sortHeap) popItem() sortItem {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a = a[:n]
	*h = a
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && a.Less(l, smallest) {
			smallest = l
		}
		if r < n && a.Less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		a[i], a[smallest] = a[smallest], a[i]
		i = smallest
	}
	return top
}
