package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
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
// costs I/O and decode proportional to the hour, not the week. On a
// columnar (v4) trace the closing boundary segment is inflated only up to
// the cut (v3 boundary segments inflate whole — their single interleaved
// flate stream has no per-column structure to cut). Degraded inputs (v1,
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

// rangeRawBytes counts raw payload bytes materialized (inflated, or handed
// out of an uncompressed run) by the indexed decode engine. It is a test
// hook: the partial inflate-to-cut on a range read's closing boundary
// segment is observable only through how few bytes it touches.
var rangeRawBytes atomic.Int64

// readColumnarCut decodes a columnar segment that straddles the range's
// closing edge, materializing each column run only up to the first record
// at or past to: the delta run is scanned until the cut, fixing the record
// count k, and the flags, client, and app runs are then inflated and
// decoded only through their first k values. The tail of those runs —
// usually the bulk of the segment on a tight range — is never inflated.
// Unlike the full decoders, damage fails closed here: a range read that
// cannot trust the cut delivers nothing from the segment.
func readColumnarCut(ra io.ReaderAt, si SegmentInfo, version int, sc *segScratch, to time.Duration) ([]*Block, error) {
	payload, err := fetchSegmentFrame(ra, si, version, sc)
	if err != nil {
		return nil, err
	}

	rawL, stoL, off, err := storedColHeaders(payload, si)
	if err != nil {
		return nil, err
	}
	var stored [4][]byte
	for c := range stored {
		stored[c] = payload[off : off+stoL[c]]
		off += stoL[c]
	}

	// head returns up to limit leading raw bytes of column c: the literal
	// run itself, or what its DEFLATE stream inflates to before it fills
	// limit bytes, ends or breaks. Only what a value needs is read, so a
	// damaged tail goes unseen, as on a lazy reader. Runs are consumed one
	// at a time, so one scratch slab serves all four.
	head := func(c, limit int) []byte {
		limit = min(limit, rawL[c])
		if stoL[c] == rawL[c] {
			rangeRawBytes.Add(int64(limit))
			return stored[c][:limit]
		}
		if cap(sc.raw) < limit {
			sc.raw = make([]byte, limit)
		}
		n, _ := sc.inflateRun(sc.raw[:limit], stored[c])
		rangeRawBytes.Add(int64(n))
		return sc.raw[:n]
	}

	// Delta pass: scan timestamps until the cut, fixing k.
	deltas := head(0, rawL[0])
	last := si.BaseT
	recs := make([]Record, 0, 1024)
	for len(recs) < si.Count {
		delta, n := binary.Uvarint(deltas)
		if n <= 0 {
			return nil, errColTruncated(0, len(recs))
		}
		deltas = deltas[n:]
		if delta > uint64(MaxSpan) || last+time.Duration(delta) > MaxSpan {
			return nil, fmt.Errorf("%w: timestamp jump past the span cap at record %d", ErrCorrupt, len(recs))
		}
		last += time.Duration(delta)
		if len(recs) == 0 && last != si.MinT {
			return nil, fmt.Errorf("%w: first record at %v, header says %v", ErrCorrupt, last, si.MinT)
		}
		if last >= to {
			break
		}
		recs = append(recs, Record{T: last})
	}
	if len(recs) == si.Count {
		// Every delta decoded without reaching to, yet the caller cut this
		// segment because its indexed MaxT is at or past to.
		return nil, fmt.Errorf("%w: segment ends at %v, index says %v", ErrCorrupt, last, si.MaxT)
	}

	// Flags, client, and app passes: first k values of each run.
	flags := head(1, len(recs))
	if len(flags) < len(recs) {
		return nil, errColTruncated(1, len(flags))
	}
	for i, f := range flags {
		recs[i].Dir, recs[i].Kind = Direction(f&1), Kind(f>>1&0x7)
	}
	// uvarints decodes the first k values of column c. A value up to limit
	// takes at most width bytes in its shortest encoding — all the writer
	// emits — so k values need at most width·k bytes; Uvarint also accepts
	// longer encodings, and a run that spends more is read again whole.
	uvarints := func(c, width int, limit uint64, what string, set func(i int, v uint64)) error {
		run, whole := head(c, width*len(recs)), false
		off := 0
		for i := range recs {
			v, n := binary.Uvarint(run[off:])
			if n == 0 && !whole {
				run, whole = head(c, rawL[c]), true
				v, n = binary.Uvarint(run[off:])
			}
			if n <= 0 {
				return errColTruncated(c, i)
			}
			if v > limit {
				return fmt.Errorf("%w: out-of-range %s at record %d", ErrCorrupt, what, i)
			}
			set(i, v)
			off += n
		}
		return nil
	}
	if err := uvarints(2, 5, 1<<32-1, "client", func(i int, v uint64) { recs[i].Client = uint32(v) }); err != nil {
		return nil, err
	}
	if err := uvarints(3, 3, 1<<16-1, "app", func(i int, v uint64) { recs[i].App = uint16(v) }); err != nil {
		return nil, err
	}

	// Only a fully decoded cut reaches the pooled blocks the engine delivers.
	blocks := make([]*Block, 0, blocksFor(len(recs)))
	for len(recs) > 0 {
		blk := NewBlock()
		*blk = append(*blk, recs[:min(len(recs), BlockSize)]...)
		recs = recs[len(*blk):]
		blocks = append(blocks, blk)
	}
	return blocks, nil
}
