package trace

import "time"

// Time-range reads. The segment index stores each segment's MinT/MaxT, and
// the format guarantees records are in non-decreasing time order (the
// Writer rejects anything else), so both MinT and MaxT are non-decreasing
// across segments: the segments overlapping a time range form one
// contiguous run findable by binary search, and only that run needs to be
// read and decoded. Every frame header carries the same MinT/MaxT, so a
// frame scan can skip and stop by them too.

// ReadRange delivers the records with from ≤ T < to to h, in stream order
// and BlockSize-bounded batches, returning how many were delivered.
//
// For an indexed (v2+) trace on a seekable source it binary-searches the
// segment index and runs the read engine over only the overlapping
// segments — reading a one-hour slice of a week-long trace costs I/O and
// decode proportional to the hour, not the week. Every segment it touches,
// the two boundary segments included, is read, inflated and checked whole,
// so damage anywhere in a touched segment surfaces as ErrCorrupt after the
// in-range records before it. Without a usable index (non-seekable source,
// damaged index without Salvage) the engine scans the frames instead,
// passing over those wholly before from without decoding them and stopping
// at the first one at or past to, and latches an explanation in Warning. A
// v1 trace is decoded record by record from the start, up to the first
// record past the range. Call it on a fresh Reader.
func (r *Reader) ReadRange(from, to time.Duration, h Handler) (int64, error) {
	if to <= from || to <= 0 {
		return 0, nil
	}
	return r.readSegments(max(from, 0), to, h, 1)
}
