package trace

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"cstrace/internal/sched"
)

// Binary trace format: a fixed header followed by delta-encoded records.
// docs/FORMAT.md is the authoritative byte-level specification; the short
// version:
//
//	header: magic "CSTR" | version u8 | reserved [3]u8
//	record: deltaT uvarint (ns since previous record)
//	        flags  u8  (bit0: direction, bits1-3: kind)
//	        client uvarint
//	        app    uvarint
//
// Version 1 is a single varint stream of records after the header. Version 2
// chunks the identical record encoding into independently-decodable segments
// ("CSEG" frames carrying payload length, record count and the delta
// base/min/max timestamps), then appends a segment index ("CSIX") and a
// fixed-size footer, so a reader can decode segments in parallel and seek by
// time range. Version 3 adds a per-segment flags word to the frame and
// index: flag bit 0 marks a flate-compressed payload, with the decompressed
// size carried alongside; for v2/v3 the concatenation of all segment
// payloads — decompressed where flagged — is byte-for-byte the v1 record
// stream. Version 4 (the current default) defines flag bit 1: the segment
// payload is field-striped, storing the record fields as four separate runs
// (timestamp deltas | flags | client ids | app sizes) that compress better
// and decode in tight per-column loops; see columnar.go for the layout.
//
// Delta encoding keeps the common case (sub-millisecond gaps, small ids,
// small payloads) to a handful of bytes per record, and per-segment
// compression roughly halves that again — a full-week, half billion packet
// trace fits comfortably on disk.

const (
	magic    = "CSTR"
	version1 = 1
	version2 = 2
	version3 = 3
	version4 = 4
	// currentVersion is what NewWriter emits.
	currentVersion = version4
	headerLen      = 8
)

// Format errors.
var (
	ErrBadMagic   = errors.New("trace: bad magic")
	ErrBadVersion = errors.New("trace: unsupported version")
	ErrCorrupt    = errors.New("trace: corrupt record")
	// ErrNoIndex reports a trace without a segment index (a v1 file, or an
	// indexed file whose index was lost); such traces can only be scanned
	// serially.
	ErrNoIndex = errors.New("trace: no segment index")
	// ErrFinished reports a Write after Flush: an indexed-format Flush
	// seals the file with its index and footer.
	ErrFinished = errors.New("trace: write after Flush")
)

// Compression settings for Writer.CompressLevel.
const (
	// CompressOff stores every v3/v4 segment uncompressed (the compressed
	// flag clear). The file remains a valid trace of its version; only the
	// payload bytes differ.
	CompressOff = -1
	// DefaultCompressLevel is the flate level a v3 writer uses when
	// CompressLevel is 0: level 6 (flate's own default), which delivers the
	// ≥ 25 % on-disk saving over v2 on the standard reproduction. v3
	// decompression cost is essentially level-independent, so the level only
	// prices the write side: use 1 (BestSpeed, ~3× faster to write, a few %
	// larger) when the writer sits on a generation hot path, 9 when the file
	// is written once and shipped often.
	DefaultCompressLevel = 6
	// ColumnarCompressLevel is the flate level a v4 writer uses when
	// CompressLevel is 0. Field-striped runs are far more self-similar than
	// v3's interleaved payload, so flate's higher levels buy almost nothing:
	// on the calibrated workload level 2 stores within ~1 % of level 6 while
	// deflating ~3× faster and — the greedy matcher emits slightly longer,
	// more regular matches — inflating marginally faster too. Explicit
	// CompressLevel settings still pass through untouched. In v4 the level
	// tunes only the LZ-coded columns (flags and client ids): the app-size
	// run is Huffman-coded at every level, the delta run stored literal.
	ColumnarCompressLevel = 2
)

// Writer streams records to an io.Writer in the binary trace format.
// Records must be delivered in non-decreasing time order, or within
// SortWindow of it when that is set: the Writer then puts its own
// SortBuffer in front of the encoder.
//
// NewWriter emits format v4: records are chunked into independently
// decodable segments, each segment's payload is field-striped and
// compressed per column when that makes it smaller (tunable via
// CompressLevel), and the file ends with a segment index + footer, so
// Reader.ReadAllSharded can fan decode out across goroutines. Setting
// Workers moves compression off the Write path onto a worker pool. Flush
// seals the file and must be called exactly once, after the last Write.
type Writer struct {
	w       *bufio.Writer
	dst     io.Writer // the unbuffered sink, for SyncEvery durability
	version uint8
	last    time.Duration
	wrote   bool
	sealed  bool
	n       int64
	frames  int64 // sealed segment frames written, for the SyncEvery cadence
	err     error // first write-path error; latches, Write refuses afterwards
	off     int64 // file offset of the next frame to be written

	// SegmentPayload is the target (pre-compression) payload size per
	// segment in bytes; a segment is cut once its encoded payload reaches
	// it. Set it before the first Write; 0 means DefaultSegmentPayload.
	// Smaller segments parallelize and seek at finer grain, larger ones
	// amortize the per-segment framing+index overhead further.
	SegmentPayload int

	// CompressLevel tunes v3/v4 per-segment compression: 0 selects
	// the version's default (DefaultCompressLevel for v3,
	// ColumnarCompressLevel for v4), 1–9 are explicit flate levels (1
	// fastest, 9 smallest), and CompressOff (-1) stores all segments
	// uncompressed. In v4 the level tunes the LZ-coded flags and client
	// runs; the app-size run is Huffman-coded at every level but
	// CompressOff. Any other value fails the first Write, HandleBatch or
	// Flush before a byte is written, and the error latches. Set it before
	// the first Write; ignored for v1/v2 writers. Whatever the level, a run
	// or segment whose compressed form is not smaller than its raw form is
	// stored uncompressed (the per-segment flag records which).
	CompressLevel int

	// Workers > 1 deflates sealed segments on that many worker goroutines
	// while Write keeps cutting the next segment — compression leaves the
	// caller's critical path entirely. File order and the output bytes are
	// preserved exactly: for a given (version, level) the file is
	// byte-identical whatever Workers is set to. Worker failures latch and
	// surface from Err, Write and Flush. Set it before the first Write;
	// ignored when ≤ 1, for v1/v2 writers, and with CompressOff (there is
	// no compression to offload).
	Workers int

	// SyncEvery, when > 0, makes the Writer durable at segment grain: after
	// every SyncEvery sealed segment frames the buffered bytes are flushed
	// to the destination and — when it exposes a Sync() error method, as
	// *os.File does — fsynced, and Flush ends with one final sync after the
	// footer. Combined with the error latching (a failed write or sync
	// refuses every later Write), this orders durability so that at any
	// crash point the on-disk prefix is the header plus zero or more intact
	// segment frames — exactly what Recover salvages. SyncEvery = 1 syncs
	// every sealed segment (the live-capture setting); larger values
	// amortize the fsync over N segments. Set it before the first Write.
	SyncEvery int

	// SortWindow, when > 0, lets records arrive up to that far out of time
	// order: the Writer feeds them through a SortBuffer with this slack, so
	// every Write and HandleBatch encodes the records the high-water mark
	// has moved SortWindow past, in (timestamp, arrival) order, and the
	// file is the one a SortBuffer stage in front of a strict Writer
	// writes. A record arriving more than SortWindow before the high-water
	// mark is an error, like a time-regressing record on a strict writer.
	// Set it before the first Write.
	SortWindow time.Duration

	seg      []byte // current segment's interleaved records (v2/v3)
	colD     []byte // current segment's column runs (v4)
	colF     []byte
	colC     []byte
	colA     []byte
	segBase  time.Duration
	segMin   time.Duration
	segCount int
	index    []SegmentInfo

	cs   *compScratch  // segment compressor state (sync path), pooled; nil until the first segment and after Flush
	pipe *compPipeline // async compression pipeline, nil until started

	sorted *SortBuffer // the SortWindow stage, nil until the first write

	buf [3*binary.MaxVarintLen64 + 1]byte
}

// segBufs is a Writer's segment scratch: the interleaved buffer (v2/v3;
// v4's assembly slab on the sync path) and v4's four column runs.
type segBufs struct{ seg, d, f, c, a []byte }

// segBufsFree keeps segment scratch between writers, so a Writer does not
// regrow its buffers from nil: at the default segment size that growth was
// ≈ 2 MB of allocation per Writer (BenchmarkWriter). Like compScratchFree it is a free list, not a sync.Pool, which
// every GC would empty; it keeps at most segBufsKeep sets, and one returned
// to a full list is left to the GC. The buffers hold no state between
// segments, so the bytes written do not depend on which set a Writer gets.
var segBufsFree struct {
	mu   sync.Mutex
	list []segBufs
}

// segBufsKeep bounds the free list.
const segBufsKeep = 8

// takeSegBufs gives w a set of segment scratch off the free list, if one
// is there.
func (w *Writer) takeSegBufs() {
	f := &segBufsFree
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.list)
	if n == 0 {
		return
	}
	b := f.list[n-1]
	f.list[n-1] = segBufs{}
	f.list = f.list[:n-1]
	w.seg, w.colD, w.colF, w.colC, w.colA = b.seg, b.d, b.f, b.c, b.a
}

// returnSegBufs hands w's segment scratch to the free list, unless the
// Writer grew none or the list is full.
func (w *Writer) returnSegBufs() {
	b := segBufs{w.seg[:0], w.colD[:0], w.colF[:0], w.colC[:0], w.colA[:0]}
	w.seg, w.colD, w.colF, w.colC, w.colA = nil, nil, nil, nil, nil
	if cap(b.seg)+cap(b.d) == 0 {
		return
	}
	f := &segBufsFree
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.list) < segBufsKeep {
		f.list = append(f.list, b)
	}
}

// DefaultSegmentPayload is the default segment payload target: 256 KiB
// (~50 k records at the workload's ~5 B/record), large enough that framing
// overhead is ~0.03 %, small enough that a few seconds of trace already
// spans many parallel decode units.
const DefaultSegmentPayload = 1 << 18

func newWriter(w io.Writer, version uint8) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), dst: w, version: version}
}

// NewWriter creates a Writer emitting the current format version (v4,
// segmented + indexed + field-striped per-segment compression).
func NewWriter(w io.Writer) *Writer {
	return newWriter(w, currentVersion)
}

// NewWriterV3 creates a Writer emitting format v3: segmented, indexed and
// per-segment compressed, but with the interleaved record payload instead
// of v4's field-striped one. Readers support v3 indefinitely (see
// docs/FORMAT.md for the compatibility policy); new traces should use
// NewWriter.
func NewWriterV3(w io.Writer) *Writer {
	return newWriter(w, version3)
}

// NewWriterV2 creates a Writer emitting format v2: segmented and indexed,
// but without the per-segment flags word or compression. Readers support v2
// indefinitely (see docs/FORMAT.md for the compatibility policy); new
// traces should use NewWriter.
func NewWriterV2(w io.Writer) *Writer {
	return newWriter(w, version2)
}

// NewWriterV1 creates a Writer emitting the legacy v1 format: one
// unsegmented varint stream, no index. Readers support v1 indefinitely (see
// docs/FORMAT.md for the compatibility policy); new traces should use
// NewWriter.
func NewWriterV1(w io.Writer) *Writer {
	return newWriter(w, version1)
}

// Version returns the format version the Writer emits (1–4).
func (w *Writer) Version() int { return int(w.version) }

// Handle implements Handler, so a Writer can sit at the end of a pipeline.
// The first encoding error latches and surfaces from Err and Flush.
func (w *Writer) Handle(r Record) {
	if w.err == nil {
		w.err = w.Write(r)
	}
}

// HandleBatch implements BatchHandler: the records encode in order, and
// the first error latches, as if each were passed to Handle.
func (w *Writer) HandleBatch(rs []Record) {
	if w.err == nil && len(rs) > 0 {
		w.err = w.write(rs)
	}
}

// Err returns the first error latched anywhere on the write path — a
// failed header/frame/sync write, an encode failure, an error swallowed by
// Handle or HandleBatch, or (when compression runs on workers) the first
// failure latched by the pipeline. Once Err is non-nil the Writer is dead:
// every later Write and Flush returns the latched error without emitting a
// byte, so a failed write can never be followed by a later segment and the
// file's durable prefix stays a valid segment stream.
func (w *Writer) Err() error {
	if w.err != nil {
		return w.err
	}
	if w.pipe != nil {
		return w.pipe.getErr()
	}
	return nil
}

// latchIO records a write-path failure as the Writer's terminal state. In
// async mode the pipeline's emitter goroutine is the one writing frames, so
// the latch goes through the pipeline's mutex-guarded slot; otherwise w.err
// is only ever touched from the caller's goroutine.
func (w *Writer) latchIO(err error) error {
	if err == nil {
		return nil
	}
	if w.pipe != nil {
		w.pipe.setErr(err)
	} else if w.err == nil {
		w.err = err
	}
	return err
}

func (w *Writer) writeHeader() error {
	w.wrote = true
	if w.version >= version3 && (w.CompressLevel < CompressOff || w.CompressLevel > 9) {
		w.err = fmt.Errorf("trace: invalid CompressLevel %d (want -1, 0 or 1-9)", w.CompressLevel)
		return w.err
	}
	if _, err := w.w.WriteString(magic); err != nil {
		return w.latchIO(err)
	}
	if err := w.w.WriteByte(w.version); err != nil {
		return w.latchIO(err)
	}
	if _, err := w.w.Write([]byte{0, 0, 0}); err != nil {
		return w.latchIO(err)
	}
	w.off = headerLen
	return nil
}

// Write encodes one record. With SortWindow set it may instead hold the
// record for ordered release; see the field docs. After any write-path
// failure (see Err) every Write returns the latched error without emitting
// anything; ordering violations are rejected per record without latching.
func (w *Writer) Write(r Record) error {
	one := [1]Record{r}
	return w.write(one[:])
}

// write is Write over a batch: the records go in order, and the first
// error stops it, with every record before it accepted.
func (w *Writer) write(rs []Record) error {
	if w.sealed {
		return ErrFinished
	}
	// Checking the plain field (not Err, which takes the pipeline mutex)
	// keeps the per-batch cost flat; pipeline failures latch into w.err at
	// the next segment seal, and the emitter refuses frames after a failure
	// regardless, so no later segment can follow a failed write either way.
	if w.err != nil {
		return w.err
	}
	if !w.wrote {
		if err := w.writeHeader(); err != nil {
			return err
		}
		if w.version >= version2 {
			w.takeSegBufs()
		}
	}
	if w.SortWindow <= 0 {
		return w.encode(rs)
	}
	if w.sorted == nil {
		w.sorted = NewSortBuffer(w.SortWindow, sortedEncoder{w})
	}
	// Accept the records up to the first one the window cannot take; the
	// SortBuffer then releases into encode, which latches any failure.
	hw := w.sorted.maxSeen
	for i, r := range rs {
		if r.T > MaxSpan || r.T < hw-w.SortWindow {
			w.sorted.HandleBatch(rs[:i])
			if w.err != nil {
				return w.err
			}
			if r.T > MaxSpan {
				return errOrder(r, w.last)
			}
			return fmt.Errorf("trace: record at %v arrives more than the %v sort window behind the high-water mark %v",
				r.T, w.SortWindow, hw)
		}
		hw = max(hw, r.T)
	}
	w.sorted.HandleBatch(rs)
	return w.err
}

// sortedEncoder is the strict encode stage behind a Writer's SortWindow
// buffer: the first failure latches in the Writer.
type sortedEncoder struct{ w *Writer }

func (e sortedEncoder) Handle(r Record) { e.HandleBatch([]Record{r}) }

func (e sortedEncoder) HandleBatch(rs []Record) {
	if e.w.err == nil {
		e.w.err = e.w.encode(rs)
	}
}

// encode appends rs to the output stream. Each record must lie within
// MaxSpan and not precede the one before it; the first that does not stops
// the batch with every record before it encoded.
func (w *Writer) encode(rs []Record) error {
	if w.version >= version4 {
		return w.encodeColumns(rs)
	}
	for _, r := range rs {
		if r.T > MaxSpan || r.T < w.last {
			return errOrder(r, w.last)
		}
		b := w.buf[:0]
		b = binary.AppendUvarint(b, uint64(r.T-w.last))
		b = append(b, byte(r.Dir)&1|byte(r.Kind)<<1)
		b = binary.AppendUvarint(b, uint64(r.Client))
		b = binary.AppendUvarint(b, uint64(r.App))
		if w.version == version1 {
			w.last = r.T
			w.n++
			if _, err := w.w.Write(b); err != nil {
				return err
			}
			continue
		}
		// v2/v3: records accumulate into the current segment's payload
		// buffer; the frame header needs the payload length and record
		// count up front, so the segment is buffered whole and flushed when
		// it reaches target.
		if w.segCount == 0 {
			w.segBase = w.last
			w.segMin = r.T
		}
		w.seg = append(w.seg, b...)
		w.segCount++
		w.last = r.T
		w.n++
		if len(w.seg) >= w.segmentTarget() {
			if err := w.flushSegment(); err != nil {
				return err
			}
		}
	}
	return nil
}

// errOrder reports why r cannot follow a record at last: it lies beyond
// MaxSpan, or before last.
func errOrder(r Record, last time.Duration) error {
	if r.T > MaxSpan {
		return fmt.Errorf("record at %v is beyond the format's %v span cap", r.T, MaxSpan)
	}
	return fmt.Errorf("trace: record at %v precedes previous record at %v", r.T, last)
}

// encodeColumns is encode for v4: the fields stripe into per-column runs,
// sealed into one columnar payload at segment-cut time. The loop keeps the
// runs and the last timestamp in locals and writes them back before every
// segment cut and on return.
func (w *Writer) encodeColumns(rs []Record) error {
	d, f, c, a, last := w.colD, w.colF, w.colC, w.colA, w.last
	target := w.segmentTarget()
	var err error
	for _, r := range rs {
		if r.T > MaxSpan || r.T < last {
			err = errOrder(r, last)
			break
		}
		if w.segCount == 0 {
			w.segBase, w.segMin = last, r.T
		}
		d = appendUvarint(d, uint64(r.T-last))
		f = append(f, byte(r.Dir)&1|byte(r.Kind)<<1)
		c = appendUvarint(c, uint64(r.Client))
		a = appendUvarint(a, uint64(r.App))
		last = r.T
		w.segCount++
		w.n++
		// Cut on accumulated record bytes, like the interleaved formats:
		// the four field encodings sum to exactly the interleaved record
		// size, so v4 segments break at the same record boundaries as v3
		// for a given SegmentPayload (the 16-byte column header is framing
		// overhead, not counted against the target).
		if len(d)+len(f)+len(c)+len(a) >= target {
			w.colD, w.colF, w.colC, w.colA, w.last = d, f, c, a, last
			if err := w.flushSegment(); err != nil {
				return err
			}
			d, f, c, a = w.colD, w.colF, w.colC, w.colA
		}
	}
	w.colD, w.colF, w.colC, w.colA, w.last = d, f, c, a, last
	return err
}

// appendUvarint is binary.AppendUvarint with the one-byte case up front:
// tied timestamps, most client ids and most payload sizes are below 0x80.
func appendUvarint(b []byte, v uint64) []byte {
	if v < 0x80 {
		return append(b, byte(v))
	}
	return binary.AppendUvarint(b, v)
}

func (w *Writer) segmentTarget() int {
	if w.SegmentPayload > 0 {
		return w.SegmentPayload
	}
	return DefaultSegmentPayload
}

// level resolves the effective compression level (0 → the version's
// default; explicit levels and CompressOff pass through).
func (w *Writer) level() int {
	if w.CompressLevel == 0 {
		if w.version >= version4 {
			return ColumnarCompressLevel
		}
		return DefaultCompressLevel
	}
	return w.CompressLevel
}

// useAsync reports whether sealed segments should compress on the worker
// pipeline. sched.Auto counts as parallel here; the pipeline resolves the
// actual pool size from the process worker budget when it starts.
func (w *Writer) useAsync() bool {
	return (w.Workers > 1 || w.Workers == sched.Auto) && w.version >= version3 && w.CompressLevel != CompressOff
}

// assembleColumnar seals the column runs into one raw columnar payload
// (column header + four runs) appended to dst.
func (w *Writer) assembleColumnar(dst []byte) []byte {
	var hdr [colHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(w.colD)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(w.colF)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(w.colC)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(w.colA)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, w.colD...)
	dst = append(dst, w.colF...)
	dst = append(dst, w.colC...)
	dst = append(dst, w.colA...)
	return dst
}

// flushSegment seals the buffered segment: its raw payload is assembled
// (columnar for v4, the interleaved buffer otherwise) and either
// compressed+written inline, or handed to the worker pipeline when Workers
// is set — the pipeline's emitter writes frames in submission order, so the
// file is identical either way. A segment is stored compressed only when
// that is strictly smaller (the per-segment flag records the choice, so
// incompressible segments cost nothing).
func (w *Writer) flushSegment() error {
	if w.segCount == 0 {
		return nil
	}
	meta := segMeta{count: w.segCount, base: w.segBase, min: w.segMin, max: w.last}
	async := w.useAsync()
	if async && w.pipe == nil {
		w.pipe = newCompPipeline(w)
	}
	var raw []byte
	switch {
	case w.version >= version4 && async:
		raw = w.assembleColumnar(slabFor(colHeaderLen + len(w.colD) + len(w.colF) + len(w.colC) + len(w.colA))[:0])
		w.colD, w.colF, w.colC, w.colA = w.colD[:0], w.colF[:0], w.colC[:0], w.colA[:0]
	case w.version >= version4:
		// The interleaved buffer is unused in v4; reuse it as the assembly
		// slab.
		raw = w.assembleColumnar(w.seg[:0])
		w.seg = raw
		w.colD, w.colF, w.colC, w.colA = w.colD[:0], w.colF[:0], w.colC[:0], w.colA[:0]
	case async:
		raw = append(slabFor(len(w.seg))[:0], w.seg...)
		w.seg = w.seg[:0]
	default:
		raw = w.seg
	}
	w.segCount = 0
	if async {
		if err := w.pipe.submit(raw, meta); err != nil {
			// submit runs on the caller's goroutine, so the pipeline failure
			// can latch into the plain field Write checks per record.
			if w.err == nil {
				w.err = err
			}
			return err
		}
		return nil
	}
	payload := raw
	var flags uint32
	if w.version >= version3 {
		if w.cs == nil {
			w.cs = getCompScratch()
		}
		var err error
		if payload, flags, err = w.cs.encode(int(w.version), raw, w.level()); err != nil {
			return w.latchIO(err)
		}
	}
	err := w.writeFrame(payload, flags, len(raw), meta)
	w.seg = w.seg[:0]
	return err
}

// writeFrame emits one "CSEG" frame (header + stored payload) and records
// its index entry. With the pipeline running, only its emitter calls this,
// so the output stream, offset and index stay single-writer.
func (w *Writer) writeFrame(payload []byte, flags uint32, rawLen int, meta segMeta) error {
	si := SegmentInfo{
		Offset:     w.off,
		PayloadLen: len(payload),
		Count:      meta.count,
		Flags:      flags,
		RawLen:     rawLen,
		BaseT:      meta.base,
		MinT:       meta.min,
		MaxT:       meta.max,
	}
	w.index = append(w.index, si)
	var hdr [segHeaderLenV3 + 4]byte
	copy(hdr[:4], segMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(meta.count))
	rest := hdr[12:]
	hl := segHeaderLen
	if w.version >= version3 {
		binary.LittleEndian.PutUint32(hdr[12:], flags)
		rest = hdr[16:]
		hl = segHeaderLenV3
	}
	binary.LittleEndian.PutUint64(rest[0:], uint64(meta.base))
	binary.LittleEndian.PutUint64(rest[8:], uint64(meta.min))
	binary.LittleEndian.PutUint64(rest[16:], uint64(meta.max))
	if flags&SegCompressed != 0 {
		binary.LittleEndian.PutUint32(hdr[segHeaderLenV3:], uint32(rawLen))
		hl = segHeaderLenV3 + 4
	}
	if _, err := w.w.Write(hdr[:hl]); err != nil {
		return w.latchIO(err)
	}
	if _, err := w.w.Write(payload); err != nil {
		return w.latchIO(err)
	}
	w.off += int64(hl) + int64(len(payload))
	w.frames++
	if w.SyncEvery > 0 && w.frames%int64(w.SyncEvery) == 0 {
		return w.latchIO(w.syncDst())
	}
	return nil
}

// syncDst makes every byte written so far durable: the bufio layer flushes
// to the destination, which is then fsynced when it exposes the file-like
// Sync() error method (a plain in-memory sink just gets the flush).
func (w *Writer) syncDst() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if s, ok := w.dst.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() int64 { return w.n }

// Flush seals and flushes the trace, surfacing any error latched by the
// Handle paths or the compression pipeline first. It releases any records
// the SortWindow still holds; for the indexed formats it then writes the
// final partial segment, drains the pipeline and writes the segment index
// and the footer — so it must be called exactly once, after the last
// Write; further Writes fail with ErrFinished.
func (w *Writer) Flush() error {
	if err := w.Err(); err != nil {
		return err
	}
	if !w.wrote {
		// An empty trace still gets a header (and, for the indexed formats,
		// an empty index + footer, so the file remains seekable and
		// well-formed).
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	if w.sorted != nil && !w.sealed {
		if w.sorted.Flush(); w.err != nil {
			return w.err
		}
	}
	if w.version >= version2 && !w.sealed {
		if err := w.flushSegment(); err != nil {
			return err
		}
		if w.pipe != nil {
			if err := w.pipe.drain(); err != nil {
				if w.err == nil {
					w.err = err
				}
				return err
			}
		}
		if w.cs != nil {
			putCompScratch(w.cs)
			w.cs = nil
		}
		w.returnSegBufs()
		if err := w.writeIndexAndFooter(); err != nil {
			return w.latchIO(err)
		}
		w.sealed = true
	}
	if err := w.w.Flush(); err != nil {
		return w.latchIO(err)
	}
	if w.SyncEvery > 0 {
		// The seal itself must be durable too: without this, a crash right
		// after Flush could leave a file whose segments are synced but whose
		// index+footer are not — recoverable, but needlessly so.
		return w.latchIO(w.syncDst())
	}
	return nil
}

// Reader streams records from the binary trace format, accepting every
// version (v1–v4) transparently. Read and ReadAll decode one record at a
// time and are the reference; ReadAllSharded and ReadRange run indexed
// (v2+) segments through the read engine — through the index when the
// source is seekable and the index valid, otherwise by scanning the frames
// off the stream (with a Warning).
type Reader struct {
	// Salvage, when set before the first read, makes the planned read paths
	// (ReadAllSharded, ReadRange) fall back to Recover when the footer or
	// index of a seekable v2+ file is missing or damaged: the forward scan
	// rebuilds an index over the intact segment prefix and decode proceeds
	// as if the file were sealed, delivering exactly the validated records
	// with no error and the degradation note in Warning. The zero value
	// keeps the strict behavior: a damaged index degrades to the frame
	// scan, which surfaces the corruption it runs into.
	Salvage bool

	src     io.Reader     // the unbuffered source: the header, then the index source
	r       *bufio.Reader // Read and the frame scan decode from it; see buffer
	last    time.Duration
	init    bool
	version uint8
	seg     SegmentInfo // v2+: the frame scan's current segment header
	done    bool        // v2+: index frame reached — clean end of records
	err     error
	warn    string

	// v2+ serial Read path: segments decode whole (they may be compressed
	// or columnar), so decoded records queue here and pop one per Read
	// call.
	q    []Record
	qPos int
	qErr error
	sc   segScratch
}

// NewReader creates a Reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{src: r}
}

// buffer puts the stream reader Read and the frame scan decode from in
// place, on first use: a read through the index never needs its buffer.
func (r *Reader) buffer() {
	if r.r == nil {
		r.r = bufio.NewReaderSize(r.src, 1<<16)
	}
}

// Version returns the trace format version (1–4), or 0 before the header
// has been read.
func (r *Reader) Version() int { return int(r.version) }

// Err returns the cause latched behind the last error the Reader surfaced,
// or nil. The sentinels (ErrBadMagic, ErrCorrupt) keep error identity
// stable for callers; Err preserves the close/EOF-tail state of the source
// — e.g. an io.ErrUnexpectedEOF from a truncated file, or the I/O error a
// failing disk returned mid-record. Errors from a read through the index
// latch in wrapped form: errors.Is against both ErrCorrupt and the
// underlying cause works.
func (r *Reader) Err() error { return r.err }

// Warning returns a human-readable note when a read path degraded (e.g.
// ReadAllSharded scanned the frames because the index was truncated, or
// salvaged a torn file's intact prefix), or "" if none. It depends only on
// the file, the source and Salvage, never on the worker count.
func (r *Reader) Warning() string { return r.warn }

// latch records err as the underlying cause and returns the sentinel.
func (r *Reader) latch(sentinel, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if r.err == nil {
		r.err = err
	}
	return sentinel
}

func (r *Reader) readHeader() error {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r.src, hdr[:]); err != nil {
		return r.latch(ErrBadMagic, err)
	}
	if string(hdr[:4]) != magic {
		return ErrBadMagic
	}
	switch hdr[4] {
	case version1, version2, version3, version4:
		r.version = hdr[4]
	default:
		return ErrBadVersion
	}
	r.init = true
	return nil
}

// Read returns the next record, or io.EOF at a clean end of stream.
func (r *Reader) Read() (Record, error) {
	if !r.init {
		if err := r.readHeader(); err != nil {
			return Record{}, err
		}
	}
	r.buffer()
	if r.version >= version2 {
		return r.readSegmented()
	}
	// v1 has no segments: its records decode one varint at a time off the
	// buffered reader, and EOF at a record boundary is the clean end.
	delta, err := binary.ReadUvarint(r.r)
	if err == io.EOF {
		return Record{}, io.EOF
	}
	if err != nil {
		return Record{}, r.latch(ErrCorrupt, err)
	}
	flags, err := r.r.ReadByte()
	if err != nil {
		return Record{}, r.latch(ErrCorrupt, err)
	}
	client, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Record{}, r.latch(ErrCorrupt, err)
	}
	app, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Record{}, r.latch(ErrCorrupt, err)
	}
	if client > 1<<32-1 || app > 1<<16-1 {
		return Record{}, ErrCorrupt
	}
	// The uint64 comparison first: a near-2^64 delta would wrap the
	// Duration sum before the span check could see it.
	if delta > uint64(MaxSpan) || r.last+time.Duration(delta) > MaxSpan {
		return Record{}, r.latch(ErrCorrupt,
			fmt.Errorf("timestamp jumps past the %v span cap", MaxSpan))
	}
	r.last += time.Duration(delta)
	return Record{
		T:      r.last,
		Dir:    Direction(flags & 1),
		Kind:   Kind(flags >> 1 & 0x7),
		Client: uint32(client),
		App:    uint16(app),
	}, nil
}

// readSegmented is the v2+ serial Read path: segments may be compressed or
// columnar, so each decodes whole into an in-memory queue and Read pops one
// record at a time. Records decoded before a mid-segment corruption still
// pop before the error surfaces, preserving records-before-error delivery.
func (r *Reader) readSegmented() (Record, error) {
	for r.qPos >= len(r.q) {
		if r.qErr != nil {
			return Record{}, r.qErr
		}
		r.fillSegmentQueue()
	}
	rec := r.q[r.qPos]
	r.qPos++
	return rec, nil
}

// fillSegmentQueue loads, decompresses and decodes the next segment into
// the Read queue, recording the terminal error (io.EOF at a clean end) for
// delivery after the queued records drain.
func (r *Reader) fillSegmentQueue() {
	r.q = r.q[:0]
	r.qPos = 0
	if err := r.nextSegment(); err != nil {
		r.qErr = err
		return
	}
	stored, err := r.readFrame(&r.sc)
	d, decErr := r.sc.decode(stored, r.seg, false)
	for _, blk := range d.blocks {
		r.q = append(r.q, *blk...)
		FreeBlock(blk)
	}
	r.qErr = cmp.Or(err, decErr)
}

// ReadAll drains the stream into h in BlockSize batches, returning the
// record count. On error, records decoded before the error still reach h.
func (r *Reader) ReadAll(h Handler) (int64, error) {
	return r.readSpan(0, math.MaxInt64, h)
}

// readSpan is the per-record reference scan: it decodes from the current
// position, delivers the records with from ≤ T < to, and stops at the first
// record at or past to — the format stores records in time order, so
// nothing later can be in range.
func (r *Reader) readSpan(from, to time.Duration, h Handler) (int64, error) {
	bat := NewBatcher(Batch(h))
	defer bat.Close()
	var n int64
	for {
		rec, err := r.Read()
		if err == io.EOF || err == nil && rec.T >= to {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if rec.T >= from {
			bat.Handle(rec)
			n++
		}
	}
}
