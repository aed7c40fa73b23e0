package trace

import (
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The indexed decode engine. Every read of an indexed trace through its
// index — whole-file (ReadAllSharded), a time slice (ReadRange), or over a
// rebuilt index (Reader.Salvage, DecodeIndex) — runs decodeIndexed: N
// workers each fetch, inflate and decode one segment at a time and hand the
// decoded blocks to the sink themselves, serialized into file order by a
// turn chain. Decode (the expensive part) overlaps freely; only the
// hand-off is ordered. A sink that can take ownership of pooled blocks (the
// sharded analysis suite) gets them with no copy; any other sink rides the
// same chain through a HandleBatch adapter.

// BlockIngester is implemented by sinks that can take ownership of decoded
// blocks in-place — most notably the sharded analysis suite, which fans a
// block out to its collector-group channels refcounted and recycles it via
// FreeBlock when the last group finishes.
//
// Calls arrive in stream order and are serialized by the caller (the
// engine's in-order turn chain provides both, with happens-before edges
// between consecutive calls even though they may run on different
// goroutines; the serial scan delivers from one goroutine). An
// implementation must not retain blk past the point it frees it.
type BlockIngester interface {
	// IngestBlock consumes one decoded block obtained from NewBlock,
	// taking ownership: the implementation is responsible for eventually
	// returning it with FreeBlock.
	IngestBlock(blk *Block)
}

// ColumnIngester is implemented by sinks that can additionally consume
// column-decoded segments (v4 field-striped payloads) without the reader
// first interleaving them into Records, on the indexed engine and the
// serial scan alike. The same ordering and ownership contract as
// IngestBlock applies: calls arrive in stream order, serialized by the
// caller, and the sink must eventually return cb with FreeColumnBlock. A
// segment is delivered either as blocks or as columns, never both.
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

// ReadAllSharded drains the stream into h exactly as ReadAll does, but for
// an indexed (v2+) trace on a seekable source (an *os.File, a
// *bytes.Reader, …) with workers ≥ 2 it decodes file segments on that many
// goroutines, delivering in file order — so the stream, and any report
// computed from it, is byte-identical to the serial paths. When h
// implements BlockIngester (analysis.ShardedSuite does) the decode workers
// hand it their pooled blocks directly, with no re-batching copy; a
// ColumnIngester additionally receives v4 segments still column-separated.
//
// A v1 trace and workers ≤ 1 select the serial ReadAllPrefetch scan
// silently; a non-seekable source or a damaged index degrade to it with an
// explanation in Warning — unless Salvage is set, in which case a damaged
// index is rebuilt over the intact segment prefix and decoded through, at
// any worker count. Call it on a fresh Reader.
func (r *Reader) ReadAllSharded(h Handler, workers int) (int64, error) {
	p, err := r.plan(workers, false)
	if err != nil {
		return 0, err
	}
	if p.ix == nil {
		return r.ReadAllPrefetch(h)
	}
	return r.runIndexed(p, p.ix.Segments, 0, math.MaxInt64, h)
}

// runIndexed runs the engine for a planned indexed read, latching a failure
// so — as on the serial paths — the full wrapped error (which preserves the
// I/O cause via %w) is reachable from Err even when the caller only inspects
// the ErrCorrupt sentinel.
func (r *Reader) runIndexed(p readPlan, segs []SegmentInfo, from, to time.Duration, h Handler) (int64, error) {
	n, err := decodeIndexed(p.ra, p.ix.Version, segs, from, to, h, p.workers)
	if err != nil && r.err == nil {
		r.err = err
	}
	return n, err
}

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

// decodeIndexed decodes segs on workers goroutines and delivers the records
// with from ≤ T < to to h in file order, returning how many. Workers claim
// segments off a shared counter, one at a time, so at most `workers`
// segments are decoded-but-undelivered; a turn chain — one buffered channel
// per segment, threaded worker-to-worker — serializes delivery: the worker
// holding segment i hands its blocks over, then passes the turn to segment
// i+1's worker.
//
// Every segment decodes whole through readSegmentAt. Interior segments
// deliver whole, as columns when h is a ColumnIngester and the segment is
// field-striped; a segment straddling a range edge delivers as records,
// trimmed to the range by trimBlocks.
//
// On a decode error the turn chain guarantees the failing segment is the
// first in file order: its pre-damage records are delivered, the turn is
// never passed on, and later workers drop their blocks back to the pools.
// Every goroutine has exited when decodeIndexed returns.
func decodeIndexed(ra io.ReaderAt, version int, segs []SegmentInfo, from, to time.Duration, h Handler, workers int) (int64, error) {
	if len(segs) == 0 {
		return 0, nil
	}
	workers = min(max(workers, 1), len(segs))
	ing, ok := h.(BlockIngester)
	if !ok {
		ing = batchIngester{Batch(h)}
	}
	ci, colOK := h.(ColumnIngester)

	turn := make([]chan struct{}, len(segs))
	for i := range turn {
		turn[i] = make(chan struct{}, 1)
	}
	turn[0] <- struct{}{}
	stop := make(chan struct{})
	var next atomic.Int64
	claim := func() int { return int(next.Add(1)) - 1 }

	// n and firstErr are written only while holding a turn, and the turn
	// chain's channel operations order those writes before the final reads
	// below (which happen after wg.Wait).
	var n int64
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc segScratch
			for i := claim(); i < len(segs); i = claim() {
				seg := segs[i]
				whole := seg.MinT >= from && seg.MaxT < to
				d, err := readSegmentAt(ra, seg, version, &sc, colOK && whole)
				if !whole {
					d.blocks = trimBlocks(d.blocks, from, to)
				}
				select {
				case <-turn[i]:
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
				if i+1 < len(segs) {
					turn[i+1] <- struct{}{}
				}
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
