package trace

import (
	"cmp"
	"slices"
	"time"
)

// SortBuffer restores strict time order to a record stream whose disorder is
// bounded (a live capture interleaves per-client datagrams within one server
// tick). Records are released once the stream's high-water mark has moved
// slack past them; ties release in arrival order.
//
// Both entry points append arrivals to one unsorted pending buffer and, on
// release, partition out the eligible records and sort just those — the
// input is nearly sorted, so the sort is close to linear. The records leave
// in (timestamp, arrival) order, always as blocks of at most BlockSize, so a
// per-record feed and a batch feed release the same stream.
//
// Consumers that need exact ordering — the binary trace writer (its
// SortWindow is a SortBuffer in front of the encoder), the NAT queueing
// model — sit behind a SortBuffer; order-insensitive collectors
// (histograms, binners) do not pay for one.
type SortBuffer struct {
	slack   time.Duration
	next    Handler
	maxSeen time.Duration
	pend    []Record // arrivals not yet released, in arrival order
	sorter  timeSorter
}

// NewSortBuffer creates a buffer releasing records slack behind the
// high-water mark. slack must exceed the stream's worst-case disorder.
func NewSortBuffer(slack time.Duration, next Handler) *SortBuffer {
	return &SortBuffer{slack: slack, next: next}
}

// Handle implements Handler: one record is a one-record batch.
func (s *SortBuffer) Handle(r Record) { s.HandleBatch([]Record{r}) }

// HandleBatch implements BatchHandler.
func (s *SortBuffer) HandleBatch(rs []Record) {
	for _, r := range rs {
		s.maxSeen = max(s.maxSeen, r.T)
	}
	s.pend = append(s.pend, rs...)
	s.release(s.maxSeen - s.slack)
}

// release emits every buffered record with T <= watermark, in total order,
// delivering them downstream in blocks of at most BlockSize.
func (s *SortBuffer) release(watermark time.Duration) {
	elig := s.sorter.take(&s.pend, watermark)
	for len(elig) > 0 {
		n := min(len(elig), BlockSize)
		Dispatch(s.next, elig[:n])
		elig = elig[n:]
	}
	s.sorter.done(&s.pend)
}

// timeSorter is SortBuffer's stable time-sort: partition a pending buffer at
// a watermark and put the eligible records in (T, arrival) order.
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
