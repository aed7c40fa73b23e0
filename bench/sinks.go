package main

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"os"
	"time"

	"cstrace/internal/trace"
)

// timedSink interposes a timing sink in front of h, feeding b. The program
// picks its delivery path by asserting optional interfaces on the sink it is
// handed, so the wrapper returned exposes exactly the set h has — a wrapper
// offering more or fewer would silently measure a different path.
func timedSink(h trace.Handler, b *boundary) trace.Handler {
	rs := recordSink{h: h, b: b}
	bh, ok := h.(trace.BatchHandler)
	if !ok {
		return &rs
	}
	bs := batchSink{recordSink: rs, bh: bh}
	bi, ok := h.(trace.BlockIngester)
	if !ok {
		return &bs
	}
	ks := blockSink{batchSink: bs, bi: bi}
	ci, ok := h.(trace.ColumnIngester)
	if !ok {
		return &ks
	}
	return &columnSink{blockSink: ks, ci: ci}
}

type recordSink struct {
	h trace.Handler
	b *boundary
}

func (s *recordSink) Handle(r trace.Record) {
	t0 := s.b.enter()
	s.h.Handle(r)
	s.b.batches++
	s.b.exit(t0, 1)
}

type batchSink struct {
	recordSink
	bh trace.BatchHandler
}

func (s *batchSink) HandleBatch(rs []trace.Record) {
	t0 := s.b.enter()
	s.bh.HandleBatch(rs)
	s.b.batches++
	s.b.exit(t0, len(rs))
}

type blockSink struct {
	batchSink
	bi trace.BlockIngester
}

func (s *blockSink) IngestBlock(blk *trace.Block) {
	n := len(*blk) // read before ownership passes on
	t0 := s.b.enter()
	s.bi.IngestBlock(blk)
	s.b.blocks++
	s.b.exit(t0, n)
}

type columnSink struct {
	blockSink
	ci trace.ColumnIngester
}

func (s *columnSink) IngestColumns(cb *trace.ColumnBlock) {
	n := cb.Len()
	t0 := s.b.enter()
	s.ci.IngestColumns(cb)
	s.b.columns++
	s.b.exit(t0, n)
}

// nullBatch, nullBlocks and nullColumns are the null neighbours of the
// isolation probes: they discard, each offering one more delivery interface
// than the last (cols tells the tests which one the reader chose).
type nullBatch struct{}

func (nullBatch) Handle(trace.Record)        {}
func (nullBatch) HandleBatch([]trace.Record) {}

type nullBlocks struct{ nullBatch }

func (nullBlocks) IngestBlock(blk *trace.Block) { trace.FreeBlock(blk) }

type nullColumns struct {
	nullBlocks
	cols int64
}

func (s *nullColumns) IngestColumns(cb *trace.ColumnBlock) {
	s.cols++
	trace.FreeColumnBlock(cb)
}

// sample is a bounded slice of a workload's own record stream that keeps
// the producer's block boundaries, so a probe replays the block sizes the
// layer sees in the real run (a tick window from gamesim, 4096 from the
// reader).
type sample struct {
	recs []trace.Record
	ends []int
}

func (s *sample) Handle(r trace.Record) { s.HandleBatch([]trace.Record{r}) }

func (s *sample) HandleBatch(rs []trace.Record) {
	if len(rs) == 0 {
		return
	}
	s.recs = append(s.recs, rs...)
	s.ends = append(s.ends, len(s.recs))
}

func (s *sample) replay(h trace.BatchHandler) {
	start := 0
	for _, end := range s.ends {
		h.HandleBatch(s.recs[start:end])
		start = end
	}
}

// columns re-stripes the sample into BlockSize column blocks, the shape a v4
// segment decodes to.
func (s *sample) columns() []*trace.ColumnBlock {
	var out []*trace.ColumnBlock
	for start := 0; start < len(s.recs); start += trace.BlockSize {
		end := min(start+trace.BlockSize, len(s.recs))
		cb := &trace.ColumnBlock{}
		for _, r := range s.recs[start:end] {
			cb.T = append(cb.T, r.T)
			cb.Flags = append(cb.Flags, uint8(r.Dir)|uint8(r.Kind)<<1)
			cb.Client = append(cb.Client, r.Client)
			cb.App = append(cb.App, r.App)
		}
		out = append(out, cb)
	}
	return out
}

// digestWriter hashes and counts what a job writes: reports go straight
// into one, so rendering is timed but no terminal or file is.
type digestWriter struct {
	h hash.Hash
	n int64
}

func newDigestWriter() *digestWriter { return &digestWriter{h: sha256.New()} }

func (d *digestWriter) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return d.h.Write(p)
}

func (d *digestWriter) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// timedFile stands between a trace.Writer and its file. It keeps the Sync
// method the Writer looks for (SyncEvery durability is lost without it) and
// times every write and sync.
type timedFile struct {
	f      *os.File
	writes int64
	bytes  int64
	syncs  []time.Duration
}

func (t *timedFile) Write(p []byte) (int, error) {
	t.writes++
	t.bytes += int64(len(p))
	return t.f.Write(p)
}

func (t *timedFile) Sync() error {
	t0 := time.Now()
	err := t.f.Sync()
	t.syncs = append(t.syncs, time.Since(t0))
	return err
}
