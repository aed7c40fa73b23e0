package trace

import (
	"sync"
	"sync/atomic"
)

// The block-oriented fast path. The per-record Handler interface costs one
// virtual call per record through every pipeline layer; at the paper's scale
// (half a billion records) dispatch dominates. A Block is a reusable slab of
// records recycled through a sync.Pool, and a BatchHandler consumes a whole
// slab per call, so interface dispatch and cache misses amortize over
// BlockSize records. Handler remains the compatibility surface: Dispatch
// bridges a block onto either interface, and Batcher bridges a per-record
// producer onto a BatchHandler.

// BlockSize is the capacity of pooled blocks and the granularity at which
// streaming stages re-batch.
const BlockSize = 4096

// Block is a reusable []Record slab. Obtain one with NewBlock and return it
// with FreeBlock when done; the backing array is recycled.
type Block = []Record

var blockPool = sync.Pool{
	New: func() any {
		b := make(Block, 0, BlockSize)
		return &b
	},
}

// poolOut counts pooled blocks — Block and ColumnBlock alike — handed out
// and not yet returned. It is a test hook: a read path that errors out
// mid-file must still return every decoded-but-undelivered block, which is
// observable only as this balance coming back to where it started.
var poolOut atomic.Int64

// NewBlock returns an empty block with capacity BlockSize from the pool.
func NewBlock() *Block {
	poolOut.Add(1)
	b := blockPool.Get().(*Block)
	*b = (*b)[:0]
	return b
}

// FreeBlock recycles a block obtained from NewBlock.
func FreeBlock(b *Block) {
	if b == nil || cap(*b) == 0 {
		return
	}
	poolOut.Add(-1)
	blockPool.Put(b)
}

// BatchHandler consumes records a block at a time. The slice is only valid
// for the duration of the call: implementations that retain records must
// copy them.
type BatchHandler interface {
	HandleBatch(rs []Record)
}

// BatchHandlerFunc adapts a function to a BatchHandler.
type BatchHandlerFunc func([]Record)

// HandleBatch implements BatchHandler.
func (f BatchHandlerFunc) HandleBatch(rs []Record) { f(rs) }

// Dispatch delivers a block to h on its fastest supported path: one
// HandleBatch call when h is a BatchHandler, a per-record loop otherwise.
func Dispatch(h Handler, rs []Record) {
	if len(rs) == 0 {
		return
	}
	if bh, ok := h.(BatchHandler); ok {
		bh.HandleBatch(rs)
		return
	}
	for _, r := range rs {
		h.Handle(r)
	}
}

// Batch adapts a per-record Handler to the BatchHandler interface (the
// compat shim for stages that only speak records).
func Batch(h Handler) BatchHandler {
	if bh, ok := h.(BatchHandler); ok {
		return bh
	}
	return BatchHandlerFunc(func(rs []Record) {
		for _, r := range rs {
			h.Handle(r)
		}
	})
}

// Batcher accumulates individually delivered records into pooled blocks and
// forwards each full block downstream — the bridge from a per-record
// producer into a block-oriented pipeline. Records may sit buffered until
// the block fills; producers with latency bounds should call Flush on their
// own cadence. Not safe for concurrent use; see LockedBatcher.
type Batcher struct {
	next BatchHandler
	blk  *Block
}

// NewBatcher creates a Batcher forwarding to next. Wrap a per-record
// downstream with Batch to adapt it.
func NewBatcher(next BatchHandler) *Batcher {
	return &Batcher{next: next, blk: NewBlock()}
}

// Handle implements Handler.
func (b *Batcher) Handle(r Record) {
	*b.blk = append(*b.blk, r)
	if len(*b.blk) == cap(*b.blk) {
		b.Flush()
	}
}

// HandleBatch implements BatchHandler: buffered records flush first so
// stream order is preserved, then the block passes through.
func (b *Batcher) HandleBatch(rs []Record) {
	b.Flush()
	if len(rs) > 0 {
		b.next.HandleBatch(rs)
	}
}

// Flush forwards any buffered records. Call once after the last record.
func (b *Batcher) Flush() {
	if len(*b.blk) > 0 {
		b.next.HandleBatch(*b.blk)
		*b.blk = (*b.blk)[:0]
	}
}

// Close flushes and returns the internal block to the pool. The Batcher
// must not be used afterwards; short-lived batchers (one per ReadAll or
// Merge call) should defer it so the slab recycles.
func (b *Batcher) Close() {
	b.Flush()
	FreeBlock(b.blk)
	b.blk = nil
}

// LockedBatcher is a mutex-guarded Batcher for producers that emit records
// from multiple goroutines — the live game server's tap coalesces its
// per-datagram records through one.
type LockedBatcher struct {
	mu sync.Mutex
	b  *Batcher
}

// NewLockedBatcher creates a LockedBatcher forwarding to next.
func NewLockedBatcher(next BatchHandler) *LockedBatcher {
	return &LockedBatcher{b: NewBatcher(next)}
}

// Handle implements Handler.
func (l *LockedBatcher) Handle(r Record) {
	l.mu.Lock()
	l.b.Handle(r)
	l.mu.Unlock()
}

// HandleBatch implements BatchHandler.
func (l *LockedBatcher) HandleBatch(rs []Record) {
	l.mu.Lock()
	l.b.HandleBatch(rs)
	l.mu.Unlock()
}

// Flush forwards buffered records.
func (l *LockedBatcher) Flush() {
	l.mu.Lock()
	l.b.Flush()
	l.mu.Unlock()
}
