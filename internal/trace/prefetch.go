package trace

import (
	"io"
	"sync"
)

// Prefetching serial read path: ReadAll decodes and analyzes on one
// goroutine, so the varint decode serializes with the collector sweeps.
// ReadAllPrefetch moves decoding to its own goroutine, sending pooled
// blocks over a bounded channel — the next block decodes while the current
// one is being analyzed, overlapping file I/O and analysis. It is the
// serial scan every degraded case of ReadAllSharded falls back to: v1
// traces (no index exists), non-seekable sources, and v2+ files with a
// damaged index or footer. It delivers on the indexed engine's surfaces: v4
// segments as columns to a ColumnIngester, blocks to a BlockIngester, and
// each block lent to HandleBatch otherwise.

// prefetchDepth bounds the decoded-but-unconsumed block queue.
const prefetchDepth = 4

// prefetchMsg carries one decoded block — records, or a v4 segment's
// columns for a ColumnIngester — or the terminal error from the decode
// goroutine to the consumer.
type prefetchMsg struct {
	blk *Block
	cb  *ColumnBlock
	err error // non-nil only on the final message; io.EOF is not sent
}

// ReadAllPrefetch drains the stream into h exactly as ReadAll does, but
// decodes up to prefetchDepth blocks ahead on a separate goroutine. The
// delivered stream, record count and error behavior are identical to
// ReadAll: records decoded before an error still reach h. For indexed (v2+)
// traces the decode goroutine additionally works segment-at-a-time out of
// an in-memory slab — compressed segments inflated ahead by a third
// goroutine — instead of per-record reader calls, which roughly triples decode
// throughput. As on the indexed engine, a ColumnIngester receives v4
// segments still column-separated and a BlockIngester takes ownership of
// decoded record blocks, with no HandleBatch copy.
func (r *Reader) ReadAllPrefetch(h Handler) (int64, error) {
	ci, cols := h.(ColumnIngester)
	ing, ok := h.(BlockIngester)
	if !ok {
		ing = batchIngester{Batch(h)}
	}
	ch := make(chan prefetchMsg, prefetchDepth)
	go func() {
		defer close(ch)
		if err := r.prefetchLoop(ch, cols); err != nil && err != io.EOF {
			ch <- prefetchMsg{err: err}
		}
	}()

	var n int64
	for msg := range ch {
		switch {
		case msg.err != nil:
			return n, msg.err
		case msg.cb != nil:
			n += int64(msg.cb.Len())
			ci.IngestColumns(msg.cb)
		default:
			n += int64(len(*msg.blk))
			ing.IngestBlock(msg.blk)
		}
	}
	return n, nil
}

// prefetchLoop decodes the whole stream into ch — v4 segments as columns
// when cols is set — returning io.EOF on a clean end of stream.
func (r *Reader) prefetchLoop(ch chan<- prefetchMsg, cols bool) error {
	if !r.init {
		if err := r.readHeader(); err != nil {
			return err
		}
	}
	if r.version >= version2 {
		return r.prefetchSegments(ch, cols)
	}
	blk := NewBlock()
	for {
		rec, err := r.Read()
		if err != nil {
			if len(*blk) > 0 {
				ch <- prefetchMsg{blk: blk}
			} else {
				FreeBlock(blk)
			}
			return err
		}
		*blk = append(*blk, rec)
		if len(*blk) == cap(*blk) {
			ch <- prefetchMsg{blk: blk}
			blk = NewBlock()
		}
	}
}

// inflateAhead bounds how many segments the inflate stage of the serial
// pipeline runs ahead of the decode stage.
const inflateAhead = 2

// inflatedSeg carries one segment's raw payload from the inflate stage to
// the decode stage. raw may be the recovered prefix when err is non-nil
// (read truncation or flate damage — priority over any decode error); slab
// is raw's backing buffer, returned to slabPool after decode.
type inflatedSeg struct {
	raw  []byte
	slab []byte
	si   SegmentInfo
	err  error
}

// prefetchSegments is the indexed-format serial decode pipeline, split in
// two so decompression overlaps decoding: an inflate goroutine scans
// frames, reads each payload and inflates it into a pooled slab up to
// inflateAhead segments ahead, while this goroutine decodes the raw slabs
// into blocks and ships them. Identical stream and records-before-error
// semantics as a fused loop, with flate off the decode critical path.
func (r *Reader) prefetchSegments(ch chan<- prefetchMsg, cols bool) error {
	infl := make(chan inflatedSeg, inflateAhead)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(infl)
		r.inflateLoop(infl, stop)
	}()
	// The inflate goroutine owns the Reader's scanner state (and error
	// latch); wait for it to exit before returning so the caller observes
	// a quiescent Reader.
	defer func() { close(stop); <-done }()

	for msg := range infl {
		var decErr error
		if len(msg.raw) > 0 {
			var d segData
			d, decErr = decodeSegment(msg.raw, msg.si, cols)
			for _, blk := range d.blocks {
				ch <- prefetchMsg{blk: blk}
			}
			for _, cb := range d.cols {
				ch <- prefetchMsg{cb: cb}
			}
		}
		freeSlab(msg.slab)
		if msg.err != nil {
			return msg.err
		}
		if decErr != nil {
			return decErr
		}
	}
	return io.EOF
}

// inflateLoop is the pipeline's first stage: frame scan, then loadSegment
// into slabs owned by the message (recycled through slabPool), so the decode
// stage never races the next segment's read. A terminal error (scan damage,
// short payload read, flate damage) rides on the message carrying any
// recovered prefix, and the loop stops.
func (r *Reader) inflateLoop(infl chan<- inflatedSeg, stop <-chan struct{}) {
	var sc segScratch // decoder tables; payload slabs come from slabPool
	send := func(msg inflatedSeg) bool {
		select {
		case infl <- msg:
			return true
		case <-stop:
			return false
		}
	}
	for {
		if err := r.nextSegment(); err != nil {
			if err != io.EOF {
				send(inflatedSeg{err: err})
			}
			return
		}
		si := r.seg
		sc.frame = slabFor(0)
		if si.Compressed() {
			sc.raw = slabFor(si.RawLen)
		}
		raw, err := r.loadSegment(&sc)
		msg := inflatedSeg{raw: raw, slab: sc.frame, si: si, err: err}
		if si.Compressed() {
			freeSlab(sc.frame)
			msg.slab = sc.raw
		}
		if !send(msg) || msg.err != nil {
			return
		}
	}
}

// slabPool keeps the serial scan's payload and inflate slabs (*[]byte)
// between reads, so a process that reads file after file stops allocating
// them, while an idle one still hands them back to the garbage collector.
var slabPool sync.Pool

// slabFor returns a pooled slab of at least n bytes, or a new one.
func slabFor(n int) []byte {
	if s, ok := slabPool.Get().(*[]byte); ok && cap(*s) >= n {
		return (*s)[:cap(*s)]
	}
	return make([]byte, n)
}

// freeSlab returns a slab to slabPool.
func freeSlab(s []byte) {
	if cap(s) > 0 {
		slabPool.Put(&s)
	}
}
