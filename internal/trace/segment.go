package trace

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"
)

// Segment framing for the indexed formats. Each segment is an independently
// decodable chunk of the record stream: its frame header carries everything
// a decoder needs (payload length, record count, the delta base timestamp
// and — since v3 — a flags word announcing per-segment compression), so
// workers can decode segments concurrently from an io.ReaderAt without any
// shared state, and a frame scan can walk them with a plain io.Reader. See
// docs/FORMAT.md for the byte-level specification.

const (
	segMagic    = "CSEG"
	indexMagic  = "CSIX"
	footerMagic = "CSFT"

	// segHeaderLen is the fixed v2 "CSEG" frame header:
	// magic 4 | payloadLen u32 | count u32 | baseT u64 | minT u64 | maxT u64.
	segHeaderLen = 4 + 4 + 4 + 8 + 8 + 8
	// segHeaderLenV3 is the fixed v3 frame header: the v2 fields plus a
	// flags u32 between count and baseT. A compressed segment appends one
	// more rawLen u32 after maxT.
	segHeaderLenV3 = segHeaderLen + 4
	// indexEntryLen is one v2 index entry:
	// offset u64 | payloadLen u32 | count u32 | baseT u64 | minT u64 | maxT u64.
	indexEntryLen = 8 + 4 + 4 + 8 + 8 + 8
	// indexEntryLenV3 is one v3 index entry: the v2 fields plus
	// flags u32 | rawLen u32 between count and baseT (always present in the
	// index, unlike the frame's conditional rawLen).
	indexEntryLenV3 = indexEntryLen + 4 + 4
	// indexHeaderLen is the "CSIX" frame header: magic 4 | segCount u32.
	indexHeaderLen = 4 + 4
	// footerLen is the fixed trailer:
	// records u64 | indexOff u64 | segCount u32 | magic 4.
	footerLen = 8 + 8 + 4 + 4
)

// Per-segment flag bits. All bits not defined for the file's format version
// are reserved and must be zero; readers reject them as corruption (an
// unknown layout cannot be skipped).
const (
	// SegCompressed (bit 0, since v3) marks a flate-compressed payload.
	SegCompressed uint32 = 1 << 0
	// SegColumnar (bit 1, since v4) marks a field-striped payload: the
	// record fields are stored as four separate runs — timestamp deltas,
	// flags, client ids, app sizes — instead of interleaved per record.
	// See docs/FORMAT.md §v4 for the run layout.
	SegColumnar uint32 = 1 << 1
)

// segFlagMask returns the flag bits a reader of the given format version
// accepts; anything outside the mask fails closed as corruption.
func segFlagMask(version int) uint32 {
	if version >= version4 {
		return SegCompressed | SegColumnar
	}
	return SegCompressed
}

// SegmentInfo describes one segment of an indexed trace, as recorded in the
// index and duplicated in the segment's own frame header.
type SegmentInfo struct {
	// Offset is the file offset of the segment frame (its "CSEG" marker).
	Offset int64
	// PayloadLen is the on-disk payload size in bytes (frame header
	// excluded). For a compressed v3 segment this is the flate stream
	// length; RawLen holds the decompressed size.
	PayloadLen int
	// Count is the number of records in the segment (always ≥ 1; the
	// writer never emits empty segments).
	Count int
	// Flags holds the v3 per-segment flags (SegCompressed); always zero in
	// a v2 trace.
	Flags uint32
	// RawLen is the record payload size after decompression — the length
	// of the byte range that concatenates into the v1 stream. It equals
	// PayloadLen when the segment is stored uncompressed.
	RawLen int
	// BaseT is the timestamp of the last record before this segment (0 for
	// the first segment): the segment's first delta is relative to it, so
	// decode needs no other context.
	BaseT time.Duration
	// MinT and MaxT are the timestamps of the segment's first and last
	// record — the seek key for time-range queries.
	MinT, MaxT time.Duration
}

// Compressed reports whether the segment's payload is flate-compressed.
func (si SegmentInfo) Compressed() bool { return si.Flags&SegCompressed != 0 }

// Columnar reports whether the segment's payload is field-striped (v4).
func (si SegmentInfo) Columnar() bool { return si.Flags&SegColumnar != 0 }

// frameHeaderLen returns the "CSEG" frame header size for this segment
// under the given format version: 36 bytes in v2, 40 in v3, plus the
// 4-byte rawLen field when the segment is compressed.
func (si SegmentInfo) frameHeaderLen(version int) int {
	if version >= version3 {
		if si.Compressed() {
			return segHeaderLenV3 + 4
		}
		return segHeaderLenV3
	}
	return segHeaderLen
}

// parseSegmentHeader decodes the fixed part of a "CSEG" frame header (36
// bytes in v2, 40 in v3). For a compressed v3 segment the caller must read
// the trailing rawLen field separately and store it via setRawLen.
func parseSegmentHeader(hdr []byte, version int) (SegmentInfo, error) {
	if string(hdr[:4]) != segMagic {
		return SegmentInfo{}, fmt.Errorf("%w: bad segment marker %q", ErrCorrupt, hdr[:4])
	}
	si := SegmentInfo{
		PayloadLen: int(binary.LittleEndian.Uint32(hdr[4:])),
		Count:      int(binary.LittleEndian.Uint32(hdr[8:])),
	}
	rest := hdr[12:]
	if version >= version3 {
		si.Flags = binary.LittleEndian.Uint32(hdr[12:])
		if si.Flags&^segFlagMask(version) != 0 {
			return SegmentInfo{}, fmt.Errorf("%w: unknown segment flags %#x", ErrCorrupt, si.Flags)
		}
		rest = hdr[16:]
	}
	si.BaseT = time.Duration(binary.LittleEndian.Uint64(rest[0:]))
	si.MinT = time.Duration(binary.LittleEndian.Uint64(rest[8:]))
	si.MaxT = time.Duration(binary.LittleEndian.Uint64(rest[16:]))
	if !si.Compressed() {
		si.RawLen = si.PayloadLen
	}
	if si.Count <= 0 || si.PayloadLen <= 0 || si.BaseT < 0 ||
		si.MinT < si.BaseT || si.MaxT < si.MinT || si.MaxT > MaxSpan {
		return SegmentInfo{}, fmt.Errorf("%w: implausible segment header", ErrCorrupt)
	}
	return si, nil
}

// maxFlateExpansion bounds how much a DEFLATE stream can inflate: stored
// and huffman-coded blocks expand at most ~1032×. A declared RawLen beyond
// this bound cannot be produced by PayloadLen input bytes, so readers
// reject it as corruption *before* allocating the output slab — a flipped
// RawLen must not turn into a multi-gigabyte allocation per decode worker.
const maxFlateExpansion = 1040

// setRawLen records the decompressed size read from a compressed frame's
// trailing field (or index entry), validating it against the expansion
// bound.
func (si *SegmentInfo) setRawLen(rawLen int) error {
	if rawLen <= 0 {
		return fmt.Errorf("%w: compressed segment declares %d raw bytes", ErrCorrupt, rawLen)
	}
	if rawLen > si.PayloadLen*maxFlateExpansion {
		return fmt.Errorf("%w: compressed segment declares %d raw bytes from %d on disk (beyond flate's expansion bound)",
			ErrCorrupt, rawLen, si.PayloadLen)
	}
	si.RawLen = rawLen
	return nil
}

// nextSegment advances the frame scan to the next segment frame. It
// returns io.EOF at the clean end of records: the index frame, or — for a
// file whose tail was lost — a bare EOF at a frame boundary (latched as a
// warning, since the records themselves were all recovered).
func (r *Reader) nextSegment() error {
	if r.done {
		return io.EOF
	}
	var mark [4]byte
	if _, err := io.ReadFull(r.r, mark[:]); err != nil {
		if err == io.EOF {
			r.done = true
			if r.warn == "" {
				r.warn = "indexed trace ends without an index frame (truncated tail); all segments before it were recovered"
			}
			return io.EOF
		}
		return r.latch(ErrCorrupt, err)
	}
	switch string(mark[:]) {
	case indexMagic:
		// End of record segments; the rest of the file is index + footer,
		// which the frame scan does not need.
		r.done = true
		return io.EOF
	case segMagic:
		hl := segHeaderLen
		if r.version >= version3 {
			hl = segHeaderLenV3
		}
		var hdr [segHeaderLenV3]byte
		copy(hdr[:4], mark[:])
		if _, err := io.ReadFull(r.r, hdr[4:hl]); err != nil {
			return r.latch(ErrCorrupt, err)
		}
		si, err := parseSegmentHeader(hdr[:hl], int(r.version))
		if err != nil {
			return err
		}
		if si.Compressed() {
			var rl [4]byte
			if _, err := io.ReadFull(r.r, rl[:]); err != nil {
				return r.latch(ErrCorrupt, err)
			}
			if err := si.setRawLen(int(binary.LittleEndian.Uint32(rl[:]))); err != nil {
				return err
			}
		}
		r.seg = si
		return nil
	default:
		return fmt.Errorf("%w: unknown frame marker %q", ErrCorrupt, mark[:])
	}
}

// decodePayload decodes an in-memory (decompressed) segment payload into
// pooled blocks. This is the indexed fast path: varints decode straight out
// of the slab with no per-byte reader calls, which is what makes segment
// decode worth parallelizing (the per-record cost drops well below the v1
// bufio path).
//
// Every decoded record is appended to blocks obtained from the pool and the
// full set is returned; on a corrupt payload the blocks decoded so far are
// returned alongside the error so callers can preserve ReadAll's
// records-before-error delivery semantics. Count and MinT/MaxT from si are
// cross-checked against the payload — any mismatch is corruption.
func decodePayload(p []byte, si SegmentInfo) ([]*Block, error) {
	// A record takes at least one payload byte: a header claiming more
	// records than that must not size the slice.
	blocks := make([]*Block, 0, blocksFor(min(si.Count, len(p))))
	blk := NewBlock()
	last := si.BaseT
	for i := 0; i < si.Count; i++ {
		delta, n := binary.Uvarint(p)
		if n <= 0 {
			return closePayload(blocks, blk), fmt.Errorf("%w: truncated delta at record %d", ErrCorrupt, i)
		}
		p = p[n:]
		if len(p) == 0 {
			return closePayload(blocks, blk), fmt.Errorf("%w: truncated flags at record %d", ErrCorrupt, i)
		}
		flags := p[0]
		p = p[1:]
		client, n := binary.Uvarint(p)
		if n <= 0 {
			return closePayload(blocks, blk), fmt.Errorf("%w: truncated client at record %d", ErrCorrupt, i)
		}
		p = p[n:]
		app, n := binary.Uvarint(p)
		if n <= 0 {
			return closePayload(blocks, blk), fmt.Errorf("%w: truncated app at record %d", ErrCorrupt, i)
		}
		p = p[n:]
		if client > 1<<32-1 || app > 1<<16-1 {
			return closePayload(blocks, blk), fmt.Errorf("%w: out-of-range field at record %d", ErrCorrupt, i)
		}
		if delta > uint64(MaxSpan) || last+time.Duration(delta) > MaxSpan {
			return closePayload(blocks, blk), fmt.Errorf("%w: timestamp jump past the span cap at record %d", ErrCorrupt, i)
		}
		last += time.Duration(delta)
		if len(*blk) == cap(*blk) {
			blocks = append(blocks, blk)
			blk = NewBlock()
		}
		*blk = append(*blk, Record{
			T:      last,
			Dir:    Direction(flags & 1),
			Kind:   Kind(flags >> 1 & 0x7),
			Client: uint32(client),
			App:    uint16(app),
		})
	}
	blocks = closePayload(blocks, blk)
	if len(p) != 0 {
		return blocks, fmt.Errorf("%w: %d trailing bytes after segment records", ErrCorrupt, len(p))
	}
	if first := (*blocks[0])[0].T; first != si.MinT {
		return blocks, fmt.Errorf("%w: first record at %v, header says %v", ErrCorrupt, first, si.MinT)
	}
	if last != si.MaxT {
		return blocks, fmt.Errorf("%w: last record at %v, header says %v", ErrCorrupt, last, si.MaxT)
	}
	return blocks, nil
}

// closePayload appends the in-progress block (or recycles it if empty).
func closePayload(blocks []*Block, blk *Block) []*Block {
	if len(*blk) > 0 {
		return append(blocks, blk)
	}
	FreeBlock(blk)
	return blocks
}

// segScratch bundles the reusable buffers of one segment-decoding worker:
// the on-disk frame bytes, the decompression output slab, and the DEFLATE
// decoder's tables.
type segScratch struct {
	frame []byte
	raw   []byte
	inf   *inflater
}

// inflateRun inflates one DEFLATE stream — a v3 payload, or one stored v4
// column run — into dst, requiring the stream to end exactly at len(dst):
// the sizes come from the headers, so trailing compressed data is
// corruption, not slack. It returns how many bytes landed in dst; a stream
// that yields more fills dst and fails with errOverflow.
func (sc *segScratch) inflateRun(dst, stored []byte) (int, error) {
	if sc.inf == nil {
		sc.inf = new(inflater)
	}
	return sc.inf.inflate(dst, stored)
}

// decompress reconstructs a compressed segment's raw payload into the
// scratch raw slab on the layout its flags announce: per-run columnar
// streams (v4) or one whole-payload flate stream (v3). On a truncated or
// damaged stream it returns the bytes recovered before the damage alongside
// an ErrCorrupt-wrapped error, so callers can decode the partial prefix and
// preserve records-before-error delivery.
//
// The slab is sized by the bytes at hand, not only by the header: p can
// inflate to no more than colHeaderLen + len(p)×maxFlateExpansion bytes, so
// a frame scan that met a header lying in both PayloadLen and RawLen, with
// a few KiB behind it, allocates a few MiB, and the shortfall is ErrCorrupt.
func (sc *segScratch) decompress(p []byte, si SegmentInfo) ([]byte, error) {
	n := min(si.RawLen, colHeaderLen+len(p)*maxFlateExpansion)
	if cap(sc.raw) < n {
		sc.raw = slabFor(n)
	}
	dst := sc.raw[:n]
	if si.Columnar() {
		return sc.inflateColumnarInto(dst, p, si)
	}
	got, err := sc.inflateRun(dst, p)
	if err == nil && got < si.RawLen {
		err = errShortfall
	}
	if err != nil {
		return dst[:got], fmt.Errorf("%w: compressed payload damaged after %d of %d raw bytes: %w", ErrCorrupt, got, si.RawLen, err)
	}
	return dst, nil
}

// errShortfall is the cause reported when a compressed payload's stored
// bytes are too few to inflate to the raw size its header declares.
var errShortfall = errors.New("stored bytes too few for the declared raw size")

// readFrame reads the current segment's stored payload off the stream into
// sc.frame, for Read and the frame scan. It returns the bytes that arrived
// — the whole payload, or on a short read its prefix, which the caller
// still decodes so those records are delivered — latching a short read as
// ErrCorrupt.
func (r *Reader) readFrame(sc *segScratch) ([]byte, error) {
	stored, err := readPayload(r.r, sc.frame, r.seg.PayloadLen)
	sc.frame = stored
	if err != nil {
		err = r.latch(ErrCorrupt, err)
	}
	return stored, err
}

// payloadStep is the first read of a payload off the stream. The frame
// header that sizes the payload has not been checked against anything yet,
// so the slab grows only as bytes arrive.
const payloadStep = 1 << 20

// readPayload reads an n-byte payload from r into buf's storage and returns
// the bytes read, with io.ReadFull's errors. The slab grows by at most
// payloadStep or its own length at a time, and only once the bytes before
// have arrived, so a header claiming more than the stream holds costs
// about twice the bytes actually there.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), payloadStep)))
		}
		m, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			if err == io.EOF && len(buf) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
	}
	return buf, nil
}

// fetchSegmentFrame reads one segment's frame from an io.ReaderAt into the
// worker's scratch buffers and returns the payload exactly as stored on
// disk — still compressed when the segment is flagged so. The frame header
// re-read from the file is cross-checked against the index entry, so a file
// whose index and segments disagree surfaces as ErrCorrupt rather than
// silently mis-decoding.
func fetchSegmentFrame(ra io.ReaderAt, si SegmentInfo, version int, sc *segScratch) ([]byte, error) {
	hl := si.frameHeaderLen(version)
	need := hl + si.PayloadLen
	if cap(sc.frame) < need {
		sc.frame = slabFor(need)
	}
	sc.frame = sc.frame[:need]
	if _, err := ra.ReadAt(sc.frame, si.Offset); err != nil {
		return nil, fmt.Errorf("%w: segment at offset %d: %w", ErrCorrupt, si.Offset, err)
	}
	fixed := segHeaderLen
	if version >= version3 {
		fixed = segHeaderLenV3
	}
	got, err := parseSegmentHeader(sc.frame[:fixed], version)
	if err != nil {
		return nil, err
	}
	if got.Compressed() {
		if err := got.setRawLen(int(binary.LittleEndian.Uint32(sc.frame[fixed:]))); err != nil {
			return nil, err
		}
	}
	got.Offset = si.Offset
	if got != si {
		return nil, fmt.Errorf("%w: segment header at offset %d disagrees with index", ErrCorrupt, si.Offset)
	}
	return sc.frame[hl:need], nil
}

// decodeSegment decodes a raw segment payload into ColumnBlocks when cols is
// set and the segment is field-striped — keeping the on-disk field
// separation for column-aware sinks — and into record blocks otherwise.
func decodeSegment(p []byte, si SegmentInfo, cols bool) (d segData, err error) {
	if cols && si.Columnar() {
		d.cols, err = decodeColumnarColumns(p, si)
	} else {
		d.blocks, err = decodeSegmentPayload(p, si)
	}
	return d, err
}

// decode inflates a stored payload when the segment is compressed and
// decodes it as decodeSegment does. Damage inside a compressed payload still
// decodes the recovered raw prefix, preserving records-before-error
// delivery; the inflate failure is then reported as the cause, since the
// decode of the prefix necessarily hit its truncation point too.
func (sc *segScratch) decode(stored []byte, si SegmentInfo, cols bool) (segData, error) {
	raw, err := stored, error(nil)
	if si.Compressed() {
		raw, err = sc.decompress(stored, si)
	}
	d, derr := decodeSegment(raw, si, cols)
	return d, cmp.Or(err, derr)
}
