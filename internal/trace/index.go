package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"time"
)

// The segment index and footer of the indexed formats (v2+), and the read
// planner built on them. The index ("CSIX" frame) duplicates every segment's
// frame header plus its file offset; the fixed-size footer at the end of the
// file points back at the index, so an indexed reader needs exactly two
// reads (footer, then index) before it can fan segment decode out across
// workers. The index is advisory: the frame scan never needs it, and an
// unreadable index degrades to a rebuilt one (Reader.Salvage) or to the
// frame scan (see Reader.plan).

// Index is the parsed segment index of an indexed (v2+) trace.
type Index struct {
	// Version is the trace format version (2, 3 or 4 for an indexed trace).
	Version int
	// Records is the total record count, from the footer.
	Records int64
	// Segments lists every segment in file order.
	Segments []SegmentInfo
}

// PayloadBytes sums the on-disk record payload bytes across segments
// (compressed sizes where segments are compressed).
func (ix *Index) PayloadBytes() int64 {
	var n int64
	for _, s := range ix.Segments {
		n += int64(s.PayloadLen)
	}
	return n
}

// RawBytes sums the decompressed record payload bytes across segments — the
// length of the equivalent v1 record stream. It equals PayloadBytes when no
// segment is compressed.
func (ix *Index) RawBytes() int64 {
	var n int64
	for _, s := range ix.Segments {
		n += int64(s.RawLen)
	}
	return n
}

// CompressedSegments counts the segments stored with a flate-compressed
// payload.
func (ix *Index) CompressedSegments() int {
	var n int
	for _, s := range ix.Segments {
		if s.Compressed() {
			n++
		}
	}
	return n
}

// writeIndexAndFooter appends the "CSIX" frame and the footer. Called by
// Flush after the final segment.
func (w *Writer) writeIndexAndFooter() error {
	indexOff := w.off
	var b []byte
	b = append(b, indexMagic...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(w.index)))
	for _, si := range w.index {
		b = binary.LittleEndian.AppendUint64(b, uint64(si.Offset))
		b = binary.LittleEndian.AppendUint32(b, uint32(si.PayloadLen))
		b = binary.LittleEndian.AppendUint32(b, uint32(si.Count))
		if w.version >= version3 {
			b = binary.LittleEndian.AppendUint32(b, si.Flags)
			b = binary.LittleEndian.AppendUint32(b, uint32(si.RawLen))
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(si.BaseT))
		b = binary.LittleEndian.AppendUint64(b, uint64(si.MinT))
		b = binary.LittleEndian.AppendUint64(b, uint64(si.MaxT))
	}
	// Footer: records u64 | indexOff u64 | segCount u32 | "CSFT".
	b = binary.LittleEndian.AppendUint64(b, uint64(w.n))
	b = binary.LittleEndian.AppendUint64(b, uint64(indexOff))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(w.index)))
	b = append(b, footerMagic...)
	_, err := w.w.Write(b)
	w.off += int64(len(b))
	return err
}

// ReadIndex reads and validates the segment index of an indexed trace from
// a random-access source of the given total size. It returns ErrNoIndex for
// a v1 trace, and a descriptive error (wrapping ErrCorrupt where the bytes
// are implausible) when the index or footer is damaged — callers treat any
// error as "scan the frames instead".
func ReadIndex(ra io.ReaderAt, size int64) (*Index, error) {
	if size < headerLen+footerLen {
		return nil, fmt.Errorf("%w: file too small (%d bytes) for an indexed trace", ErrCorrupt, size)
	}
	var hdr [headerLen]byte
	if _, err := ra.ReadAt(hdr[:], 0); err != nil {
		return nil, err
	}
	if string(hdr[:4]) != magic {
		return nil, ErrBadMagic
	}
	switch hdr[4] {
	case version1:
		return nil, ErrNoIndex
	case version2, version3, version4:
	default:
		return nil, ErrBadVersion
	}
	ver := int(hdr[4])
	entryLen := int64(indexEntryLen)
	if ver >= version3 {
		entryLen = indexEntryLenV3
	}

	var foot [footerLen]byte
	if _, err := ra.ReadAt(foot[:], size-footerLen); err != nil {
		return nil, err
	}
	if string(foot[16+4:]) != footerMagic {
		return nil, fmt.Errorf("%w: bad footer magic %q", ErrCorrupt, foot[20:])
	}
	records := int64(binary.LittleEndian.Uint64(foot[0:]))
	indexOff := int64(binary.LittleEndian.Uint64(foot[8:]))
	segCount := int64(binary.LittleEndian.Uint32(foot[16:]))
	indexLen := int64(indexHeaderLen) + segCount*entryLen
	if records < 0 || indexOff < headerLen || indexOff+indexLen != size-footerLen {
		return nil, fmt.Errorf("%w: footer geometry does not match file size", ErrCorrupt)
	}

	raw := make([]byte, indexLen)
	if _, err := ra.ReadAt(raw, indexOff); err != nil {
		return nil, err
	}
	if string(raw[:4]) != indexMagic {
		return nil, fmt.Errorf("%w: bad index marker %q", ErrCorrupt, raw[:4])
	}
	if int64(binary.LittleEndian.Uint32(raw[4:])) != segCount {
		return nil, fmt.Errorf("%w: index and footer disagree on segment count", ErrCorrupt)
	}

	ix := &Index{Version: ver, Records: records, Segments: make([]SegmentInfo, segCount)}
	var sum int64
	nextOff := int64(headerLen)
	b := raw[indexHeaderLen:]
	for i := range ix.Segments {
		si := SegmentInfo{
			Offset:     int64(binary.LittleEndian.Uint64(b[0:])),
			PayloadLen: int(binary.LittleEndian.Uint32(b[8:])),
			Count:      int(binary.LittleEndian.Uint32(b[12:])),
		}
		rest := b[16:]
		if ver >= version3 {
			si.Flags = binary.LittleEndian.Uint32(b[16:])
			rawLen := int(binary.LittleEndian.Uint32(b[20:]))
			rest = b[24:]
			if si.Flags&^segFlagMask(ver) != 0 {
				return nil, fmt.Errorf("%w: index entry %d carries unknown flags %#x", ErrCorrupt, i, si.Flags)
			}
			if si.Compressed() {
				if err := si.setRawLen(rawLen); err != nil {
					return nil, fmt.Errorf("index entry %d: %w", i, err)
				}
			} else if rawLen != si.PayloadLen {
				return nil, fmt.Errorf("%w: index entry %d raw/payload mismatch on uncompressed segment", ErrCorrupt, i)
			} else {
				si.RawLen = rawLen
			}
		} else {
			si.RawLen = si.PayloadLen
		}
		si.BaseT = sliceDuration(rest[0:])
		si.MinT = sliceDuration(rest[8:])
		si.MaxT = sliceDuration(rest[16:])
		b = b[entryLen:]
		// Segments tile the byte range [header, index) exactly, counts are
		// positive, and the delta-base chain links each segment to its
		// predecessor's last timestamp.
		if si.Offset != nextOff || si.Count <= 0 || si.PayloadLen <= 0 ||
			si.MinT < si.BaseT || si.MaxT < si.MinT {
			return nil, fmt.Errorf("%w: index entry %d implausible", ErrCorrupt, i)
		}
		if i == 0 {
			if si.BaseT != 0 {
				return nil, fmt.Errorf("%w: first segment delta base %v, want 0", ErrCorrupt, si.BaseT)
			}
		} else if si.BaseT != ix.Segments[i-1].MaxT {
			return nil, fmt.Errorf("%w: index entry %d breaks the timestamp chain", ErrCorrupt, i)
		}
		nextOff = si.Offset + int64(si.frameHeaderLen(ver)) + int64(si.PayloadLen)
		sum += int64(si.Count)
		ix.Segments[i] = si
	}
	if nextOff != indexOff {
		return nil, fmt.Errorf("%w: segments end at %d but index starts at %d", ErrCorrupt, nextOff, indexOff)
	}
	if sum != records {
		return nil, fmt.Errorf("%w: index counts %d records, footer says %d", ErrCorrupt, sum, records)
	}
	return ix, nil
}

func sliceDuration(b []byte) time.Duration {
	return time.Duration(binary.LittleEndian.Uint64(b))
}

// seekerAt is what the indexed read path needs from the source.
type seekerAt interface {
	io.ReaderAt
	io.Seeker
}

// sourceSize probes the source's total size without disturbing its current
// position (the frame scan must still find the stream where it was).
func sourceSize(s io.Seeker) (int64, error) {
	pos, err := s.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, err
	}
	size, err := s.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, err
	}
	_, err = s.Seek(pos, io.SeekStart)
	return size, err
}

// plan is the one place a Reader picks the segment source for a read of the
// records with from ≤ T < to, returning nil for a v1 stream, which has no
// segments (its callers use readSpan). The ladder, top to bottom:
//
//	v1                                   nil: per-record readSpan
//	seekable, index valid                the index, silent
//	index damaged, Salvage, Recover ok   Recover's rebuilt index + Warning
//	anything else                        the frame scan + Warning
//
// An index source covers only the segments overlapping the range. plan
// never sees the worker count, so one torn file yields one record count and
// one Warning however many workers read it.
func (r *Reader) plan(from, to time.Duration) (segSource, error) {
	if !r.init {
		if err := r.readHeader(); err != nil {
			return nil, err
		}
	}
	if r.version == version1 {
		return nil, nil
	}
	ra, ix, note := r.usableIndex()
	r.warn = note
	if ix == nil {
		r.warn += "; scanning frames instead"
		r.buffer()
		return &frameScan{r: r, from: from, to: to}, nil
	}
	segs := ix.Segments
	lo := sort.Search(len(segs), func(i int) bool { return segs[i].MaxT >= from })
	hi := sort.Search(len(segs), func(i int) bool { return segs[i].MinT >= to })
	return &indexSource{ra: ra, version: ix.Version, segs: segs[lo:hi]}, nil
}

// usableIndex returns the source's index — its own, or with Salvage set
// Recover's rebuild over the intact segment prefix — and the note Warning
// carries about it, or a nil index and the reason there is none.
func (r *Reader) usableIndex() (io.ReaderAt, *Index, string) {
	sa, ok := r.src.(seekerAt)
	if !ok {
		return nil, nil, "indexed read needs a seekable source"
	}
	size, err := sourceSize(sa)
	if err != nil {
		return nil, nil, fmt.Sprintf("indexed read: source size unavailable (%v)", err)
	}
	ix, err := ReadIndex(sa, size)
	if err == nil {
		return sa, ix, ""
	}
	if r.Salvage {
		// Decode through the rebuilt index as if the file were sealed; the
		// torn tail is dropped rather than surfaced as corruption.
		if rix, rep, rerr := Recover(sa, size); rerr == nil {
			return sa, rix, fmt.Sprintf("segment index unreadable (%v); salvaged %d intact segments (%d records, %d bytes dropped)",
				err, rep.Segments, rep.Records, rep.DroppedBytes())
		}
	}
	return nil, nil, fmt.Sprintf("segment index unreadable (%v)", err)
}
