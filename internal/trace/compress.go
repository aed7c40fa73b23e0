package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"cstrace/internal/sched"
)

// Write-side segment compression. compScratch is the deterministic
// payload encoder both paths share; compPipeline runs it on a bounded
// worker pool so deflate leaves the Write critical path: sealed segments
// are self-contained, so they compress in any order, and an order queue
// of per-job result channels lets a single emitter goroutine write the
// frames back in submission order. For a given (version, level) the file
// bytes are identical whatever the worker count — per-run and per-segment
// stored-vs-raw choices depend only on sizes, never on scheduling.

// compScratch bundles one compressor's reusable state: the flate writers
// (reset per stream instead of reallocated) and output buffers.
type compScratch struct {
	fw      *flate.Writer
	fwLevel int
	huff    *flate.Writer // HuffmanOnly coder for the v4 apps run
	cbuf    bytes.Buffer  // flate output for one stream
	out     []byte        // assembled stored payload (v4)
}

// compScratchFree keeps compressor scratch between pipeline workers and
// writers: a scratch's two flate.Writers are ≈ 2 MB of state (≈ 1.2 MB at
// level 2, 0.7 MB Huffman-only). It is a free list, not a sync.Pool, because
// every GC empties a pool, and a writer started after one reallocated both
// coders. It keeps at most compScratchKeep scratches; one returned to a full
// list is left to the GC. A flate.Writer reset per stream codes exactly as
// a fresh one, so the bytes do not depend on which scratch a segment gets.
var compScratchFree struct {
	mu   sync.Mutex
	list []*compScratch
}

// compScratchKeep bounds the free list: ≈ 16 MB of idle coders at most.
const compScratchKeep = 8

// getCompScratch takes a scratch off the free list, or makes one.
func getCompScratch() *compScratch {
	f := &compScratchFree
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.list)
	if n == 0 {
		return new(compScratch)
	}
	cs := f.list[n-1]
	f.list[n-1] = nil
	f.list = f.list[:n-1]
	return cs
}

// putCompScratch returns cs to the free list unless it is full.
func putCompScratch(cs *compScratch) {
	f := &compScratchFree
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.list) < compScratchKeep {
		f.list = append(f.list, cs)
	}
}

// deflate runs p through flate at level, returning the compressed bytes
// (valid until the next call).
func (cs *compScratch) deflate(p []byte, level int) ([]byte, error) {
	if cs.fw == nil || cs.fwLevel != level {
		fw, err := flate.NewWriter(io.Discard, level)
		if err != nil {
			return nil, fmt.Errorf("trace: invalid CompressLevel %d: %w", level, err)
		}
		cs.fw, cs.fwLevel = fw, level
	}
	return cs.code(cs.fw, p)
}

// code runs p through fw into the scratch buffer, returning the compressed
// bytes (valid until the next call).
func (cs *compScratch) code(fw *flate.Writer, p []byte) ([]byte, error) {
	cs.cbuf.Reset()
	fw.Reset(&cs.cbuf)
	if _, err := fw.Write(p); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return cs.cbuf.Bytes(), nil
}

// encode compresses one sealed raw segment payload per the format's
// policy, returning the stored payload and segment flags. The returned
// slice aliases raw when the segment is stored uncompressed and scratch
// memory otherwise — valid until the next call.
func (cs *compScratch) encode(version int, raw []byte, level int) ([]byte, uint32, error) {
	if version >= version4 {
		return cs.encodeColumnar(raw, level)
	}
	if level == CompressOff {
		return raw, 0, nil
	}
	comp, err := cs.deflate(raw, level)
	if err != nil {
		return nil, 0, err
	}
	if len(comp) < len(raw) {
		return comp, SegCompressed, nil
	}
	return raw, 0, nil
}

// encodeColumnar codes each column run of an assembled v4 payload
// independently (see storeRun), and stores the segment compressed only
// when the whole stored form is strictly smaller than the raw columnar
// payload.
func (cs *compScratch) encodeColumnar(raw []byte, level int) ([]byte, uint32, error) {
	if level == CompressOff {
		return raw, SegColumnar, nil
	}
	rawL, _ := parseColHeader(raw)
	var storedHdr [colHeaderLen]byte
	out := append(cs.out[:0], raw[:colHeaderLen]...)
	out = append(out, storedHdr[:]...) // patched once the sizes are known
	off := colHeaderLen
	for c, l := range rawL {
		st, err := cs.storeRun(c, raw[off:off+l], level)
		if err != nil {
			cs.out = out
			return nil, 0, err
		}
		off += l
		out = append(out, st...)
		binary.LittleEndian.PutUint32(out[colHeaderLen+4*c:], uint32(len(st)))
	}
	cs.out = out
	if len(out) < len(raw) {
		return out, SegColumnar | SegCompressed, nil
	}
	return raw, SegColumnar, nil
}

// storeRun returns column c's run as a compressed v4 segment stores it
// (valid until the next call): coded when that is strictly smaller, the run
// itself otherwise. Each column gets the coder its content pays for:
//   - deltas stay literal. The run is the decode path's hot column — half
//     the raw payload, swept for every record — and barely compressible
//     (flate leaves it ~70% of raw on the calibrated workload), so keeping
//     inflate off it holds the serial scan near interleaved-decode speed
//     for well under a byte per record of disk.
//   - apps are Huffman-coded only. Payload sizes are a memoryless draw per
//     packet, so LZ77 finds nothing to match: on the calibrated workload
//     level 2 stores 0.955 B/rec at 32 ns/rec, Huffman-only 0.959 at 6.
//   - flags and clients get LZ at level: the snapshot burst repeats their
//     structure every tick, which matching captures (clients at level 2:
//     0.38 B/rec, Huffman-only 0.58).
func (cs *compScratch) storeRun(c int, run []byte, level int) ([]byte, error) {
	var comp []byte
	var err error
	switch c {
	case 0: // deltas
		return run, nil
	case 3: // apps
		if cs.huff == nil {
			if cs.huff, err = flate.NewWriter(io.Discard, flate.HuffmanOnly); err != nil {
				return nil, err
			}
		}
		comp, err = cs.code(cs.huff, run)
	default:
		comp, err = cs.deflate(run, level)
	}
	if err != nil {
		return nil, err
	}
	if len(comp) < len(run) {
		return comp, nil
	}
	return run, nil
}

// segMeta carries a sealed segment's bookkeeping from the producer to the
// frame emitter.
type segMeta struct {
	count          int
	base, min, max time.Duration
}

// compJob is one sealed raw payload awaiting compression. Ownership of raw
// transfers to the pipeline.
type compJob struct {
	raw  []byte
	meta segMeta
	done chan compResult
}

// compResult is one worker's output for one segment.
type compResult struct {
	payload []byte // stored payload: raw itself, or an owned compressed slab
	raw     []byte
	meta    segMeta
	flags   uint32
	err     error
}

// compPipeline is the Writer's asynchronous compression pool; see the file
// comment for the ordering story. The order queue's capacity bounds
// in-flight segments, applying backpressure to Write when compression or
// the sink falls behind.
type compPipeline struct {
	w     *Writer
	level int
	lease *sched.Lease // budget grant backing an Auto-sized pool; may be nil

	jobs   chan compJob
	order  chan chan compResult
	wg     sync.WaitGroup
	emDone chan struct{}

	mu  sync.Mutex
	err error // first worker/emitter failure; surfaces via Writer.Err
}

func newCompPipeline(w *Writer) *compPipeline {
	workers := w.Workers
	var lease *sched.Lease
	if workers == sched.Auto {
		// The pipeline holds its budget share for its whole life — it is
		// created at the first sealed segment and compresses until Flush
		// drains it. Pool size changes speed only; bytes are identical.
		lease = sched.Default().Acquire(sched.Default().Total())
		workers = lease.Workers()
	}
	depth := 2 * workers
	p := &compPipeline{
		w:      w,
		lease:  lease,
		level:  w.level(),
		jobs:   make(chan compJob, workers),
		order:  make(chan chan compResult, depth),
		emDone: make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	go p.emitter()
	return p
}

func (p *compPipeline) getErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

func (p *compPipeline) setErr(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// submit hands one sealed raw payload to the pool, blocking when the
// in-flight bound is reached.
func (p *compPipeline) submit(raw []byte, meta segMeta) error {
	if err := p.getErr(); err != nil {
		return err
	}
	done := make(chan compResult, 1)
	p.order <- done
	p.jobs <- compJob{raw: raw, meta: meta, done: done}
	return nil
}

func (p *compPipeline) worker() {
	defer p.wg.Done()
	cs := getCompScratch()
	defer putCompScratch(cs)
	for job := range p.jobs {
		res := compResult{raw: job.raw, meta: job.meta}
		payload, flags, err := cs.encode(int(p.w.version), job.raw, p.level)
		res.flags = flags
		if err != nil {
			res.err = err
		} else if flags&SegCompressed != 0 {
			// The compressed bytes live in worker scratch reused by the next
			// job; move them to an owned slab for the emitter, sized like the
			// raw slab so that any pooled slab fits either use.
			res.payload = append(slabFor(len(job.raw))[:0], payload...)
		} else {
			res.payload = job.raw
		}
		job.done <- res
	}
}

// emitter writes the compressed segments out as frames, in submission
// order. It is the only goroutine touching the Writer's output stream
// between the header and Flush's drain.
func (p *compPipeline) emitter() {
	defer close(p.emDone)
	for done := range p.order {
		res := <-done
		switch {
		case res.err != nil:
			p.setErr(res.err)
		case p.getErr() != nil:
			// An earlier segment already failed; drop the rest so the
			// failure stays first in file order.
		default:
			if err := p.w.writeFrame(res.payload, res.flags, len(res.raw), res.meta); err != nil {
				p.setErr(err)
			}
		}
		if res.err == nil && res.flags&SegCompressed != 0 {
			freeSlab(res.payload)
		}
		freeSlab(res.raw)
	}
}

// drain seals the pipeline: every submitted segment compresses and emits,
// the goroutines exit, and the first latched failure (if any) returns.
// Called by Flush after the final segment.
func (p *compPipeline) drain() error {
	close(p.jobs)
	p.wg.Wait()
	close(p.order)
	<-p.emDone
	if p.lease != nil {
		p.lease.Release()
	}
	return p.getErr()
}
