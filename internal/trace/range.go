package trace

import (
	"sort"
	"time"
)

// Time-range reads. The segment index stores each segment's MinT/MaxT, and
// the format guarantees records are in non-decreasing time order (the
// Writer rejects anything else), so both MinT and MaxT are non-decreasing
// across segments: the segments overlapping a time range form one
// contiguous run findable by binary search, and only that run needs to be
// read and decoded.

// ReadRange delivers the records with from ≤ T < to to h, in stream order
// and BlockSize-bounded batches, returning how many were delivered.
//
// For an indexed (v2+) trace on a seekable source it binary-searches the
// segment index and runs the indexed decode engine over only the
// overlapping segments — reading a one-hour slice of a week-long trace
// costs I/O and decode proportional to the hour, not the week. Every
// segment it touches, the two boundary segments included, is read, inflated
// and checked whole, so damage anywhere in a touched segment surfaces as
// ErrCorrupt after the in-range records before it. Degraded inputs (v1,
// non-seekable source, damaged index without Salvage) fall back to a serial
// scan that decodes from the start and stops at the first record past the
// range, latching an explanation in Warning when the degradation is
// unexpected. Call it on a fresh Reader.
func (r *Reader) ReadRange(from, to time.Duration, h Handler) (int64, error) {
	if to <= from || to <= 0 {
		return 0, nil
	}
	from = max(from, 0)
	p, err := r.plan(1, true)
	if err != nil {
		return 0, err
	}
	if p.ix != nil {
		segs := p.ix.Segments
		lo := sort.Search(len(segs), func(i int) bool { return segs[i].MaxT >= from })
		hi := sort.Search(len(segs), func(i int) bool { return segs[i].MinT >= to })
		return r.runIndexed(p, segs[lo:hi], from, to, h)
	}
	return r.readSpan(from, to, h)
}
