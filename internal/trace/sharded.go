package trace

import (
	"cmp"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// The read engine. Every segmented (v2+) read — whole-file
// (ReadAllSharded), a time slice (ReadRange), or over a rebuilt index
// (Reader.Salvage, DecodeIndex) — runs decodeSegments: N workers each claim,
// inflate and decode one segment at a time and hand the decoded blocks to
// the sink themselves, serialized into file order by a turn chain. Decode
// (the expensive part) overlaps freely; only the claim and the hand-off are
// ordered. Segments come from one of two sources: the index (ReadAt at the
// offsets it lists) or, when there is no usable index, a scan of the frames
// off the stream. A sink that can take ownership of pooled blocks (the
// analysis suites, a Fanout) gets them with no copy; any other sink rides
// the same chain through a HandleBatch adapter.

// BlockIngester is implemented by sinks that can take ownership of decoded
// blocks in-place — most notably the sharded analysis suite, which fans a
// block out to its collector-group channels refcounted and recycles it via
// FreeBlock when the last group finishes.
//
// Calls arrive in stream order and are serialized by the caller (the
// engine's in-order turn chain provides both, with happens-before edges
// between consecutive calls even though they may run on different
// goroutines). An implementation must not retain blk past the point it
// frees it.
type BlockIngester interface {
	// IngestBlock consumes one decoded block obtained from NewBlock,
	// taking ownership: the implementation is responsible for eventually
	// returning it with FreeBlock.
	IngestBlock(blk *Block)
}

// ColumnIngester is implemented by sinks that can additionally consume
// column-decoded segments (v4 field-striped payloads) without the reader
// first interleaving them into Records, from either segment source. The
// same ordering and ownership contract as IngestBlock applies: calls arrive
// in stream order, serialized by the caller, and the sink must eventually
// return cb with FreeColumnBlock. A segment is delivered either as blocks
// or as columns, never both.
type ColumnIngester interface {
	BlockIngester
	// IngestColumns consumes one column-decoded block obtained from
	// NewColumnBlock, taking ownership.
	IngestColumns(cb *ColumnBlock)
}

// batchIngester lets a plain sink ride the engine's turn chain: the block is
// lent to HandleBatch for the duration of the call, then recycled.
type batchIngester struct{ bh BatchHandler }

func (b batchIngester) IngestBlock(blk *Block) {
	b.bh.HandleBatch(*blk)
	FreeBlock(blk)
}

// ReadAllSharded drains the stream into h exactly as ReadAll does, decoding
// the segments of an indexed (v2+) trace on max(workers, 2) goroutines and
// delivering in file order — so the stream, and any report computed from
// it, is byte-identical to ReadAll's. When h implements BlockIngester
// the decode workers hand it their pooled blocks directly, with no
// re-batching copy; a ColumnIngester (the analysis suites, a Fanout)
// additionally receives v4 segments still column-separated.
//
// A seekable source with a valid index is read through the index. A
// non-seekable source or a damaged index is read by scanning its frames
// instead, with an explanation in Warning — unless Salvage is set, in which
// case a damaged index is rebuilt over the intact segment prefix and
// decoded through. A v1 trace has no segments and is read record by record.
// Call it on a fresh Reader.
func (r *Reader) ReadAllSharded(h Handler, workers int) (int64, error) {
	return r.readSegments(0, math.MaxInt64, h, workers)
}

// ReadAllPrefetch is ReadAllSharded(h, 1).
//
// Deprecated: bench/ is its last caller; ROADMAP 1a deletes it.
func (r *Reader) ReadAllPrefetch(h Handler) (int64, error) { return r.ReadAllSharded(h, 1) }

// readSegments runs one planned read of the records with from ≤ T < to: a v1
// stream through readSpan, anything segmented through decodeSegments. The
// frame scan latches its causes where they arise, as Read does; the index
// source's failure latches here, so — as on the other paths — the full
// wrapped error (which preserves the I/O cause via %w) is reachable from Err
// even when the caller only inspects the ErrCorrupt sentinel.
func (r *Reader) readSegments(from, to time.Duration, h Handler, workers int) (int64, error) {
	src, err := r.plan(from, to)
	if err != nil {
		return 0, err
	}
	if src == nil {
		return r.readSpan(from, to, h)
	}
	n, err := decodeSegments(src, from, to, h, workers)
	if _, indexed := src.(*indexSource); indexed && err != nil && r.err == nil {
		r.err = err
	}
	return n, err
}

// segJob is one claimed segment on its way through a worker: its frame
// header, its stored payload and the source's error for it, and the two
// links of the turn chain it sits between.
type segJob struct {
	si     SegmentInfo
	stored []byte // as on disk; a short read leaves the prefix that arrived
	err    error  // the source's failure for this frame; it ends the read
	turn   chan struct{}
	next   chan struct{}
}

// segSource hands the engine its segments in file order. claim runs under
// the engine's claim lock, so the source's own state needs no other guard;
// fetch runs outside it, so workers can read concurrently where the source
// allows.
type segSource interface {
	// claim takes the next segment, reading into the claiming worker's
	// scratch if it must, or reports that there are none left.
	claim(sc *segScratch) (segJob, bool)
	// fetch fills in the stored payload claim left to read.
	fetch(job *segJob, sc *segScratch)
}

// indexSource reads the segments an index lists, each with one ReadAt, and
// checks every frame header against its index entry (fetchSegmentFrame).
type indexSource struct {
	ra      io.ReaderAt
	version int
	segs    []SegmentInfo // not yet claimed
}

func (s *indexSource) claim(*segScratch) (segJob, bool) {
	if len(s.segs) == 0 {
		return segJob{}, false
	}
	job := segJob{si: s.segs[0]}
	s.segs = s.segs[1:]
	return job, true
}

func (s *indexSource) fetch(job *segJob, sc *segScratch) {
	job.stored, job.err = fetchSegmentFrame(s.ra, job.si, s.version, sc)
}

// frameScan reads the segments off the stream itself, for a source with no
// usable index: nextSegment and readPayload under the claim lock, since a
// stream has no other way, and the payload grows only as its bytes arrive.
// It skips frames wholly before from without reading their payloads into
// memory, and stops at the first frame at or past to. A short or damaged
// frame is the last one claimed.
type frameScan struct {
	r        *Reader
	from, to time.Duration
	ended    bool
}

func (s *frameScan) claim(sc *segScratch) (segJob, bool) {
	for !s.ended {
		if err := s.r.nextSegment(); err != nil {
			s.ended = true
			if err == io.EOF {
				break
			}
			return segJob{err: err}, true
		}
		si := s.r.seg
		switch {
		case si.MinT >= s.to:
			s.ended = true
		case si.MaxT < s.from:
			if _, err := s.r.r.Discard(si.PayloadLen); err != nil {
				s.ended = true
				return segJob{err: s.r.latch(ErrCorrupt, err)}, true
			}
		default:
			job := segJob{si: si}
			job.stored, job.err = s.r.readFrame(sc)
			s.ended = job.err != nil
			return job, true
		}
	}
	return segJob{}, false
}

func (*frameScan) fetch(*segJob, *segScratch) {}

// segData is one decoded segment awaiting its turn: record blocks, or — for
// a columnar segment headed to a ColumnIngester — column blocks.
type segData struct {
	blocks []*Block
	cols   []*ColumnBlock
}

// free returns every block to its pool.
func (d segData) free() {
	for _, blk := range d.blocks {
		FreeBlock(blk)
	}
	for _, cb := range d.cols {
		FreeColumnBlock(cb)
	}
}

// decodeSegments decodes src's segments on max(workers, 2) goroutines and
// delivers the records with from ≤ T < to to h in file order, returning how
// many. Two workers are the floor so that one decodes segment i+1 while the
// other delivers segment i. Workers claim segments one at a time under a
// lock, so at most one decoded-but-undelivered segment waits per worker; a
// turn chain — one buffered channel per segment, created by the claimer of
// the segment before, since a stream's segment count is unknown —
// serializes delivery: the worker holding segment i hands its blocks over,
// then passes the turn to segment i+1's worker.
//
// Every segment decodes whole. Interior segments deliver whole, as columns
// when h is a ColumnIngester and the segment is field-striped; a segment
// straddling a range edge delivers as records, trimmed to the range by
// trimBlocks.
//
// On an error the turn chain guarantees the failing segment is the first in
// file order: the records decoded before the damage are delivered, the turn
// is never passed on, and later workers drop their blocks back to the
// pools. Every goroutine has exited when decodeSegments returns.
func decodeSegments(src segSource, from, to time.Duration, h Handler, workers int) (int64, error) {
	ing, ok := h.(BlockIngester)
	if !ok {
		ing = batchIngester{Batch(h)}
	}
	ci, colOK := h.(ColumnIngester)

	var mu sync.Mutex // the claim lock: guards src and turn
	turn := make(chan struct{}, 1)
	turn <- struct{}{}
	stop := make(chan struct{})
	claim := func(sc *segScratch) (segJob, bool) {
		mu.Lock()
		defer mu.Unlock()
		select {
		case <-stop:
			return segJob{}, false
		default:
		}
		job, ok := src.claim(sc)
		if ok {
			job.turn, job.next = turn, make(chan struct{}, 1)
			turn = job.next
		}
		return job, ok
	}

	// n and firstErr are written only while holding a turn, and the turn
	// chain's channel operations order those writes before the final reads
	// below (which happen after wg.Wait).
	var n int64
	var firstErr error
	var wg sync.WaitGroup
	for range max(workers, 2) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := pooledScratch()
			defer sc.release()
			for job, ok := claim(&sc); ok; job, ok = claim(&sc) {
				src.fetch(&job, &sc)
				whole := job.si.MinT >= from && job.si.MaxT < to
				var d segData
				err := job.err
				if len(job.stored) > 0 {
					var derr error
					d, derr = sc.decode(job.stored, job.si, colOK && whole)
					err = cmp.Or(err, derr)
				}
				if !whole {
					d.blocks = trimBlocks(d.blocks, from, to)
				}
				select {
				case <-job.turn:
				case <-stop:
					// An earlier segment failed: this segment's records
					// must not be delivered.
					d.free()
					return
				}
				for _, blk := range d.blocks {
					n += int64(len(*blk))
					ing.IngestBlock(blk)
				}
				for _, cb := range d.cols {
					n += int64(cb.Len())
					ci.IngestColumns(cb)
				}
				if err != nil {
					// This worker holds the turn, so it is the only one
					// that can reach here: record and halt the chain.
					firstErr = err
					close(stop)
					return
				}
				job.next <- struct{}{}
			}
		}()
	}
	wg.Wait()
	return n, firstErr
}

// trimBlocks cuts a boundary segment's blocks down to the records with
// from ≤ T < to (records are time-ordered, so that is one contiguous run per
// block), compacting in place and recycling blocks left empty.
func trimBlocks(blocks []*Block, from, to time.Duration) []*Block {
	out := blocks[:0]
	for _, blk := range blocks {
		recs := *blk
		lo := sort.Search(len(recs), func(i int) bool { return recs[i].T >= from })
		hi := sort.Search(len(recs), func(i int) bool { return recs[i].T >= to })
		if lo == hi {
			FreeBlock(blk)
			continue
		}
		*blk = recs[:copy(recs, recs[lo:hi])]
		out = append(out, blk)
	}
	return out
}

// slabPool keeps payload and inflate slabs (*[]byte) between reads and
// writes, so a process that reads or writes file after file stops
// allocating them, while an idle one still hands them back to the garbage
// collector. inflaterPool does the same for the decode workers' DEFLATE
// tables.
var slabPool, inflaterPool sync.Pool

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

// pooledScratch returns a decode worker's scratch with a pooled decoder;
// its slabs come from slabPool as segments need them.
func pooledScratch() segScratch {
	inf, _ := inflaterPool.Get().(*inflater)
	return segScratch{inf: inf}
}

// release hands the scratch's slabs and decoder back to the pools.
func (sc *segScratch) release() {
	freeSlab(sc.frame)
	freeSlab(sc.raw)
	if sc.inf != nil {
		inflaterPool.Put(sc.inf)
	}
}
