package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"
)

// Field-striped (columnar) segment payloads — format v4. A v4 segment
// stores its record fields as four separate runs instead of interleaving
// them per record:
//
//	column header: dLen u32 | fLen u32 | cLen u32 | aLen u32  (raw run sizes)
//	delta run:     timestamp deltas, uvarint each
//	flags run:     one byte per record (bit0 direction, bits1-3 kind)
//	client run:    client ids, uvarint each
//	app run:       app sizes, uvarint each
//
// fLen always equals the segment's record count (one flag byte per record);
// readers reject any disagreement as corruption. Striping pays twice: each
// run is self-similar so flate compresses it markedly better than the
// interleaved stream, and a collector that only consumes one field can sweep
// that run without reconstructing the others.
//
// A compressed columnar segment (flags SegColumnar|SegCompressed) deflates
// each run independently and prepends a second header with the stored run
// sizes:
//
//	raw header    (16 bytes, as above)
//	stored header: dSto u32 | fSto u32 | cSto u32 | aSto u32
//	four stored runs
//
// A run whose stored size equals its raw size is a literal copy; a smaller
// stored size is a flate stream inflating to exactly the raw size; a larger
// one is corruption. The segment is stored compressed only when the whole
// stored form is strictly smaller than the raw columnar payload, so the
// choice — like v3's — is deterministic and incompressible segments cost
// nothing. See docs/FORMAT.md for the byte-level specification.

// colHeaderLen is the fixed columnar payload header: four u32 run lengths
// (timestamp deltas, flags, client ids, app sizes).
const colHeaderLen = 4 * 4

// colNames names the four field columns, in payload order.
var colNames = [4]string{"deltas", "flags", "clients", "apps"}

// parseColHeader decodes four u32 run lengths.
func parseColHeader(b []byte) (l [4]int, sum int) {
	for c := range l {
		l[c] = int(binary.LittleEndian.Uint32(b[4*c:]))
		sum += l[c]
	}
	return l, sum
}

// checkColHeader parses and validates the raw column header of a columnar
// payload prefix against the segment's index entry.
func checkColHeader(p []byte, si SegmentInfo) ([4]int, error) {
	if len(p) < colHeaderLen {
		return [4]int{}, fmt.Errorf("%w: columnar payload truncated inside its %d-byte header", ErrCorrupt, colHeaderLen)
	}
	lens, sum := parseColHeader(p)
	if lens[1] != si.Count {
		return lens, fmt.Errorf("%w: flags column holds %d bytes for %d records", ErrCorrupt, lens[1], si.Count)
	}
	if colHeaderLen+sum != si.RawLen {
		return lens, fmt.Errorf("%w: column runs sum to %d bytes, segment declares %d raw", ErrCorrupt, colHeaderLen+sum, si.RawLen)
	}
	return lens, nil
}

// storedColHeaders parses and validates the run-length headers of a
// columnar payload as stored on disk, returning the raw (decoded) and
// stored size of each run and the offset of the first stored run. An
// uncompressed payload stores its runs raw behind the one header; a
// compressed one carries a second header of stored sizes, each run either
// literal (stored == raw) or a flate stream (stored < raw).
func storedColHeaders(p []byte, si SegmentInfo) (rawL, stoL [4]int, runsOff int, err error) {
	if !si.Compressed() {
		rawL, err = checkColHeader(p, si)
		return rawL, rawL, colHeaderLen, err
	}
	if len(p) < 2*colHeaderLen {
		return rawL, stoL, 0, fmt.Errorf("%w: compressed columnar payload truncated inside its headers", ErrCorrupt)
	}
	if rawL, err = checkColHeader(p, si); err != nil {
		return rawL, stoL, 0, err
	}
	stoL, stoSum := parseColHeader(p[colHeaderLen:])
	if 2*colHeaderLen+stoSum != si.PayloadLen {
		return rawL, stoL, 0, fmt.Errorf("%w: stored column runs sum to %d bytes, segment payload is %d", ErrCorrupt, 2*colHeaderLen+stoSum, si.PayloadLen)
	}
	for c := range rawL {
		if stoL[c] > rawL[c] {
			return rawL, stoL, 0, fmt.Errorf("%w: %s column stores %d bytes for %d raw", ErrCorrupt, colNames[c], stoL[c], rawL[c])
		}
	}
	return rawL, stoL, 2 * colHeaderLen, nil
}

// clampRun slices run c out of a possibly-truncated payload: the run's
// declared byte range, cut short at the end of the available bytes.
func clampRun(p []byte, off, length int) []byte {
	if off >= len(p) {
		return nil
	}
	end := off + length
	if end > len(p) {
		end = len(p)
	}
	return p[off:end]
}

// blocksFor returns how many BlockSize blocks hold n records.
func blocksFor(n int) int { return (n + BlockSize - 1) / BlockSize }

// errColTruncated reports column c (in payload order) running out of bytes
// at record i.
func errColTruncated(c, i int) error {
	return fmt.Errorf("%w: truncated %s column at record %d", ErrCorrupt, colNames[c], i)
}

// decodeSegmentPayload decodes a raw in-memory segment payload into pooled
// record blocks on the layout the segment's flags announce: the interleaved
// record stream (v1–v3) directly, field-striped columns (v4) through the
// column decoder with each block interleaved as it comes out. Only sinks
// that take records pay for that interleave (see decodeSegment).
func decodeSegmentPayload(p []byte, si SegmentInfo) ([]*Block, error) {
	if !si.Columnar() {
		return decodePayload(p, si)
	}
	blocks := make([]*Block, 0, blocksFor(min(si.Count, len(p)))) // see decodePayload
	err := decodeColumnar(p, si, func(cb *ColumnBlock) {
		blk := NewBlock()
		*blk = cb.AppendRecords(*blk)
		blocks = append(blocks, blk)
		FreeColumnBlock(cb)
	})
	return blocks, err
}

// ColumnBlock is the struct-of-arrays counterpart of Block: one decoded
// columnar segment chunk with the fields still separated, so a collector
// that consumes a single field sweeps a dense array instead of striding
// through Records. All four slices share a length (Len).
type ColumnBlock struct {
	T      []time.Duration
	Flags  []uint8 // on-disk encoding: bit0 direction, bits1-3 kind
	Client []uint32
	App    []uint16
}

// Len returns the number of records in the block.
func (cb *ColumnBlock) Len() int { return len(cb.T) }

// AppendRecords interleaves the columns into dst as full Records.
func (cb *ColumnBlock) AppendRecords(dst []Record) []Record {
	n := len(cb.T)
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	ts, fs, cs, as := cb.T[:n], cb.Flags[:n], cb.Client[:n], cb.App[:n]
	for i := range out {
		r := &out[i]
		r.T = ts[i]
		r.Dir = Direction(fs[i] & 1)
		r.Kind = Kind(fs[i] >> 1 & 0x7)
		r.Client = cs[i]
		r.App = as[i]
	}
	return dst[:len(dst)+n]
}

// AppendFrom transposes rs onto the end of the columns, the inverse of
// AppendRecords. The flags byte is the writer's (bit0 direction, kind from
// bit1), so a Kind past three bits reads back here as it would from a file.
func (cb *ColumnBlock) AppendFrom(rs []Record) {
	n, m := len(cb.T), len(cb.T)+len(rs)
	cb.T = slices.Grow(cb.T, len(rs))[:m]
	cb.Flags = slices.Grow(cb.Flags, len(rs))[:m]
	cb.Client = slices.Grow(cb.Client, len(rs))[:m]
	cb.App = slices.Grow(cb.App, len(rs))[:m]
	ts, fs, cs, as := cb.T[n:m], cb.Flags[n:m], cb.Client[n:m], cb.App[n:m]
	for i, r := range rs {
		ts[i] = r.T
		fs[i] = byte(r.Dir)&1 | byte(r.Kind)<<1
		cs[i] = r.Client
		as[i] = r.App
	}
}

var columnBlockPool = sync.Pool{
	New: func() any {
		return &ColumnBlock{
			T:      make([]time.Duration, 0, BlockSize),
			Flags:  make([]uint8, 0, BlockSize),
			Client: make([]uint32, 0, BlockSize),
			App:    make([]uint16, 0, BlockSize),
		}
	},
}

// NewColumnBlock returns an empty column block with capacity BlockSize from
// the pool.
func NewColumnBlock() *ColumnBlock {
	poolOut.Add(1)
	cb := columnBlockPool.Get().(*ColumnBlock)
	cb.truncate(0)
	return cb
}

// FreeColumnBlock recycles a block obtained from NewColumnBlock.
func FreeColumnBlock(cb *ColumnBlock) {
	if cb == nil || cap(cb.T) == 0 {
		return
	}
	poolOut.Add(-1)
	columnBlockPool.Put(cb)
}

// clone returns a pooled copy of cb.
func (cb *ColumnBlock) clone() *ColumnBlock {
	c := NewColumnBlock()
	c.T = append(c.T, cb.T...)
	c.Flags = append(c.Flags, cb.Flags...)
	c.Client = append(c.Client, cb.Client...)
	c.App = append(c.App, cb.App...)
	return c
}

func (cb *ColumnBlock) truncate(n int) {
	cb.T = cb.T[:n]
	cb.Flags = cb.Flags[:n]
	cb.Client = cb.Client[:n]
	cb.App = cb.App[:n]
}

// colDecoder is the one decoder of raw columnar payloads. It walks the four
// runs a block at a time — up to BlockSize values of each column per step,
// so a block's columns are still cache-hot when the record path interleaves
// them — carrying each run's undecoded remainder between steps.
type colDecoder struct {
	si    SegmentInfo
	runs  [4][]byte     // undecoded remainder of each column run
	first time.Duration // first decoded timestamp, for the MinT cross-check
	last  time.Duration // delta base for the next timestamp
	n     int           // records decoded so far
}

// decodeColumnar decodes a (possibly truncated) raw columnar payload,
// handing each decoded block to emit, which takes ownership (and must
// eventually FreeColumnBlock it). On damage the records complete in every
// column before the first error are still emitted, preserving
// records-before-error delivery; header-level damage (truncated header,
// column-length mismatch, run sizes disagreeing with the segment) fails
// closed with no records, like an implausible frame header.
func decodeColumnar(p []byte, si SegmentInfo, emit func(*ColumnBlock)) error {
	lens, err := checkColHeader(p, si)
	d := colDecoder{si: si, last: si.BaseT}
	off := colHeaderLen
	for c, l := range lens {
		d.runs[c] = clampRun(p, off, l)
		off += l
	}
	for err == nil && d.n < si.Count {
		cb := NewColumnBlock()
		err = d.next(cb)
		if cb.Len() == 0 {
			FreeColumnBlock(cb)
		} else {
			emit(cb)
		}
	}
	return err
}

// decodeColumnarColumns decodes a raw columnar payload into pooled
// ColumnBlocks, preserving the on-disk field separation for column-aware
// sinks.
func decodeColumnarColumns(p []byte, si SegmentInfo) ([]*ColumnBlock, error) {
	cbs := make([]*ColumnBlock, 0, blocksFor(min(si.Count, len(p)))) // see decodePayload
	err := decodeColumnar(p, si, func(cb *ColumnBlock) { cbs = append(cbs, cb) })
	return cbs, err
}

// next decodes the next min(BlockSize, remaining) records into cb, which
// ends up holding the records complete in every column. After the segment's
// last record the fully decoded columns are cross-checked — no trailing run
// bytes, first/last timestamp equal to the header's MinT/MaxT — exactly as
// the interleaved decoder does.
func (d *colDecoder) next(cb *ColumnBlock) error {
	cb.truncate(min(BlockSize, d.si.Count-d.n))
	nT, errT := d.deltas(cb.T)
	if d.n == 0 && nT > 0 {
		d.first = cb.T[0]
	}
	nF, errF := d.flags(cb.Flags)
	nC, errC := d.clients(cb.Client)
	nA, errA := d.apps(cb.App)
	cb.truncate(min(nT, nF, nC, nA))
	d.n += cb.Len()
	for _, e := range [...]error{errT, errF, errC, errA} {
		if e != nil {
			return e
		}
	}
	if d.n < d.si.Count {
		return nil
	}
	for c, run := range d.runs {
		if len(run) != 0 {
			return fmt.Errorf("%w: %d trailing bytes in %s column", ErrCorrupt, len(run), colNames[c])
		}
	}
	if d.first != d.si.MinT {
		return fmt.Errorf("%w: first record at %v, header says %v", ErrCorrupt, d.first, d.si.MinT)
	}
	if d.last != d.si.MaxT {
		return fmt.Errorf("%w: last record at %v, header says %v", ErrCorrupt, d.last, d.si.MaxT)
	}
	return nil
}

// deltas decodes the next len(ts) timestamps, returning how many it got.
func (d *colDecoder) deltas(ts []time.Duration) (n int, err error) {
	run, last := d.runs[0], d.last
	for n < len(ts) {
		// A busy server's deltas are one byte inside a snapshot burst and
		// two or three (up to 2 ms) between packets; peeling those cases off
		// the generic decode loop is worth several ns/record on the sweep.
		var delta uint64
		if len(run) != 0 && run[0] < 0x80 {
			delta, run = uint64(run[0]), run[1:]
		} else if len(run) > 1 && run[1] < 0x80 {
			delta, run = uint64(run[0]&0x7f)|uint64(run[1])<<7, run[2:]
		} else if len(run) > 2 && run[2] < 0x80 {
			delta, run = uint64(run[0]&0x7f)|uint64(run[1]&0x7f)<<7|uint64(run[2])<<14, run[3:]
		} else if v, w := binary.Uvarint(run); w > 0 {
			delta, run = v, run[w:]
		} else {
			err = errColTruncated(0, d.n+n)
			break
		}
		if delta > uint64(MaxSpan) || last+time.Duration(delta) > MaxSpan {
			err = fmt.Errorf("%w: timestamp jump past the span cap at record %d", ErrCorrupt, d.n+n)
			break
		}
		last += time.Duration(delta)
		ts[n] = last
		n++
	}
	d.runs[0], d.last = run, last
	return n, err
}

// flags decodes the next len(fs) flag bytes (one per record).
func (d *colDecoder) flags(fs []uint8) (int, error) {
	n := copy(fs, d.runs[1])
	d.runs[1] = d.runs[1][n:]
	if n < len(fs) {
		return n, errColTruncated(1, d.n+n)
	}
	return n, nil
}

// clients decodes the next len(cs) client ids.
func (d *colDecoder) clients(cs []uint32) (n int, err error) {
	run := d.runs[2]
	for n < len(cs) {
		var client uint64
		if len(run) != 0 && run[0] < 0x80 {
			client, run = uint64(run[0]), run[1:]
		} else if len(run) > 1 && run[1] < 0x80 {
			client, run = uint64(run[0]&0x7f)|uint64(run[1])<<7, run[2:]
		} else if v, w := binary.Uvarint(run); w > 0 {
			client, run = v, run[w:]
		} else {
			err = errColTruncated(2, d.n+n)
			break
		}
		if client > 1<<32-1 {
			err = fmt.Errorf("%w: out-of-range client at record %d", ErrCorrupt, d.n+n)
			break
		}
		cs[n] = uint32(client)
		n++
	}
	d.runs[2] = run
	return n, err
}

// apps decodes the next len(as) app sizes.
func (d *colDecoder) apps(as []uint16) (n int, err error) {
	run := d.runs[3]
	for n < len(as) {
		var app uint64
		if len(run) > 1 && run[0] >= 0x80 && run[1] < 0x80 {
			// App sizes cluster in the two-byte band (128–16383).
			app, run = uint64(run[0]&0x7f)|uint64(run[1])<<7, run[2:]
		} else if len(run) != 0 && run[0] < 0x80 {
			app, run = uint64(run[0]), run[1:]
		} else if v, w := binary.Uvarint(run); w > 0 {
			app, run = v, run[w:]
		} else {
			err = errColTruncated(3, d.n+n)
			break
		}
		if app > 1<<16-1 {
			err = fmt.Errorf("%w: out-of-range app at record %d", ErrCorrupt, d.n+n)
			break
		}
		as[n] = uint16(app)
		n++
	}
	d.runs[3] = run
	return n, err
}

// inflateColumnarInto reconstructs the raw columnar payload of a compressed
// columnar segment into dst (len si.RawLen, or less when p is too short to
// fill that): the raw header followed by the four runs, each either copied
// (stored literally) or inflated with the scratch decoder. On damage it
// returns the contiguous raw prefix recovered before the error, so the
// column decoders can deliver the records complete in every column up to
// the damage.
func (sc *segScratch) inflateColumnarInto(dst, p []byte, si SegmentInfo) ([]byte, error) {
	rawL, stoL, poff, err := storedColHeaders(p, si)
	if err != nil {
		return dst[:0], err
	}
	copy(dst[:colHeaderLen], p[:colHeaderLen])
	off := colHeaderLen
	for c := range rawL {
		raw, sto := rawL[c], stoL[c]
		stored, out := clampRun(p, poff, sto), clampRun(dst, off, raw)
		if sto == raw {
			n := copy(out, stored)
			if n < raw {
				return dst[:off+n], fmt.Errorf("%w: %s column truncated after %d of %d bytes", ErrCorrupt, colNames[c], n, raw)
			}
		} else {
			n, err := sc.inflateRun(out, stored)
			if err == nil && n < raw {
				err = errShortfall
			}
			if err != nil {
				return dst[:off+n], fmt.Errorf("%w: %s column damaged after %d of %d raw bytes: %w", ErrCorrupt, colNames[c], n, raw, err)
			}
		}
		off += raw
		poff += sto
	}
	return dst[:off], nil
}

// ColumnStats aggregates the per-column footprint of a trace's columnar
// segments: raw and on-disk (stored) bytes per field run, read from the
// payload headers alone — no run is inflated or decoded.
type ColumnStats struct {
	// Segments counts the columnar segments; Compressed those among them
	// stored with per-run compression.
	Segments, Compressed int
	// Raw and Stored are per-column byte totals in payload order:
	// timestamp deltas, flags, client ids, app sizes. Stored equals Raw
	// for columns of uncompressed segments.
	Raw, Stored [4]int64
}

// ColumnNames names the four ColumnStats columns, in order.
func (ColumnStats) ColumnNames() [4]string { return colNames }

// ReadColumnStats sums per-column sizes across the columnar segments of an
// indexed trace.
func ReadColumnStats(ra io.ReaderAt, ix *Index) (ColumnStats, error) {
	var cs ColumnStats
	for i, si := range ix.Segments {
		if !si.Columnar() {
			continue
		}
		cs.Segments++
		n := colHeaderLen
		if si.Compressed() {
			cs.Compressed++
			n = 2 * colHeaderLen
		}
		var hdr [2 * colHeaderLen]byte
		if _, err := ra.ReadAt(hdr[:n], si.Offset+int64(si.frameHeaderLen(ix.Version))); err != nil {
			return cs, fmt.Errorf("%w: segment %d column header: %w", ErrCorrupt, i, err)
		}
		rawL, _ := parseColHeader(hdr[:])
		stoL := rawL
		if si.Compressed() {
			stoL, _ = parseColHeader(hdr[colHeaderLen:])
		}
		for c := range rawL {
			cs.Raw[c] += int64(rawL[c])
			cs.Stored[c] += int64(stoL[c])
		}
	}
	return cs, nil
}
