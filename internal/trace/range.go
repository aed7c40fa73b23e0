package trace

import (
	"bufio"
	"bytes"
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

// rangeRawBytes counts raw payload bytes materialized (inflated, or read
// out of an uncompressed run) by the indexed decode engine. It is a test
// hook: the partial inflate-to-cut on a range read's closing boundary
// segment is observable only through how few bytes it touches.
var rangeRawBytes atomic.Int64

// countingReader feeds rangeRawBytes as raw column bytes come out of a
// run's literal bytes or flate stream.
type countingReader struct{ r io.Reader }

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	rangeRawBytes.Add(int64(n))
	return n, err
}

// readColumnarCut decodes a columnar segment that straddles the range's
// closing edge, materializing each column run only up to the first record
// at or past to: the delta run is scanned (inflating incrementally when
// compressed) until the cut, fixing the record count k, and the flags,
// client, and app runs are then decoded only through their first k values.
// The tail of every run — usually the bulk of the segment on a tight
// range — is never inflated. Unlike the full decoders, damage fails closed
// here: a range read that cannot trust the cut delivers nothing from the
// segment.
func readColumnarCut(ra io.ReaderAt, si SegmentInfo, version int, sc *segScratch, to time.Duration) ([]*Block, error) {
	payload, err := fetchSegmentFrame(ra, si, version, sc)
	if err != nil {
		return nil, err
	}

	rawL, stoL, runsOff, err := storedColHeaders(payload, si)
	if err != nil {
		return nil, err
	}

	// openRun points br at column c's value stream: the stored bytes
	// directly when the run is literal, or a flate reader over them when
	// deflated. Runs are consumed strictly in payload order, one at a time,
	// so one buffered reader and one flate reader serve all four.
	br := bufio.NewReaderSize(nil, 512)
	openRun := func(c int) error {
		stored := payload[runsOff : runsOff+stoL[c]]
		runsOff += stoL[c]
		if stoL[c] == rawL[c] {
			br.Reset(countingReader{bytes.NewReader(stored)})
			return nil
		}
		if err := sc.resetFlate(stored); err != nil {
			return fmt.Errorf("%w: %s column: %v", ErrCorrupt, colNames[c], err)
		}
		br.Reset(countingReader{sc.fr})
		return nil
	}

	// Delta pass: scan timestamps until the cut, fixing k.
	if err := openRun(0); err != nil {
		return nil, err
	}
	last := si.BaseT
	recs := make([]Record, 0, 1024)
	for len(recs) < si.Count {
		delta, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, errColTruncated(0, len(recs))
		}
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
	if err := openRun(1); err != nil {
		return nil, err
	}
	for i := range recs {
		f, err := br.ReadByte()
		if err != nil {
			return nil, errColTruncated(1, i)
		}
		recs[i].Dir, recs[i].Kind = Direction(f&1), Kind(f>>1&0x7)
	}
	if err := openRun(2); err != nil {
		return nil, err
	}
	for i := range recs {
		client, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, errColTruncated(2, i)
		}
		if client > 1<<32-1 {
			return nil, fmt.Errorf("%w: out-of-range client at record %d", ErrCorrupt, i)
		}
		recs[i].Client = uint32(client)
	}
	if err := openRun(3); err != nil {
		return nil, err
	}
	for i := range recs {
		app, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, errColTruncated(3, i)
		}
		if app > 1<<16-1 {
			return nil, fmt.Errorf("%w: out-of-range app at record %d", ErrCorrupt, i)
		}
		recs[i].App = uint16(app)
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
