package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"
)

// Crash recovery for indexed traces. A capture that dies before Flush —
// SIGKILL, disk full, node loss — leaves a file with no footer, no index,
// and possibly a torn final frame. The segment frames before the damage are
// still self-describing (that is the point of duplicating the index fields
// into every frame header), so Recover walks them forward, validates each
// one by fully decoding it, and rebuilds the index the Flush never wrote.
// The indexed decode engine then treats the salvaged prefix exactly like a
// sealed file; see docs/FORMAT.md §Recovery rules for what a
// reader may and may not trust without a footer.

// RecoverReport describes what Recover salvaged and why it stopped.
type RecoverReport struct {
	// Version is the trace format version (2–4).
	Version int
	// Sealed is true when the file's own footer and index validated: the
	// returned index is the file's, and nothing needed salvage.
	Sealed bool
	// Segments and Records count what the rebuilt index covers.
	Segments int
	Records  int64
	// GoodBytes is the length of the validated prefix: the header plus
	// every intact segment frame. Bytes past it — a torn frame, a damaged
	// index, trailing garbage — are not represented in the index.
	GoodBytes int64
	// TotalBytes is the scanned file's size.
	TotalBytes int64
	// Reason says why the forward scan stopped where it did.
	Reason string
}

// DroppedBytes returns how many trailing bytes the salvage left behind.
func (rep *RecoverReport) DroppedBytes() int64 { return rep.TotalBytes - rep.GoodBytes }

// String renders the report as the one-line summary the salvage CLI prints.
func (rep *RecoverReport) String() string {
	if rep.Sealed {
		return fmt.Sprintf("sealed v%d trace: %d segments, %d records, %d bytes (%s)",
			rep.Version, rep.Segments, rep.Records, rep.TotalBytes, rep.Reason)
	}
	return fmt.Sprintf("salvaged v%d trace: %d intact segments, %d records, %d/%d bytes kept, %d dropped (%s)",
		rep.Version, rep.Segments, rep.Records, rep.GoodBytes, rep.TotalBytes, rep.DroppedBytes(), rep.Reason)
}

// Recover rebuilds the segment index of a damaged indexed (v2+) trace. When
// the file's own footer and index validate, they are returned as-is (Sealed
// in the report). Otherwise the segment frames are scanned forward from the
// header; every frame whose header parses, whose flags carry no reserved
// bits, whose timestamps chain onto the previous segment, and whose payload
// fully decompresses and decodes with matching record count and MinT/MaxT
// joins the rebuilt index. The scan stops at the first damage — a torn or
// implausible frame, a broken chain, a failed decode — so the returned
// index covers exactly the intact prefix, and decoding through it (Reader.
// Salvage, DecodeIndex) yields byte-identical records to a cleanly written
// file holding the same prefix.
//
// The error is non-nil only when the input cannot be a recoverable indexed
// trace at all: too small for a header, bad magic, unknown version, or v1
// (ErrNoIndex — an unsegmented stream has no frames to salvage; scan it
// serially instead). A header-only file recovers to an empty index.
func Recover(ra io.ReaderAt, size int64) (*Index, *RecoverReport, error) {
	rep := &RecoverReport{TotalBytes: size}
	if size < headerLen {
		return nil, nil, fmt.Errorf("%w: %d bytes is smaller than a trace header", ErrCorrupt, size)
	}
	var hdr [headerLen]byte
	if _, err := ra.ReadAt(hdr[:], 0); err != nil {
		return nil, nil, err
	}
	if string(hdr[:4]) != magic {
		return nil, nil, ErrBadMagic
	}
	switch hdr[4] {
	case version1:
		return nil, nil, ErrNoIndex
	case version2, version3, version4:
	default:
		return nil, nil, ErrBadVersion
	}
	ver := int(hdr[4])
	rep.Version = ver

	// A sealed file's own index is structurally authoritative — it validated
	// against the footer, entry tiling and timestamp chain — but the footer
	// says nothing about the payload bytes. Decode-validate every indexed
	// segment too; on the first failure, keep the intact prefix of the
	// index. This is what lets salvage repair a file whose index survived a
	// crash but whose segment data did not.
	sc := pooledScratch()
	defer sc.release()
	if six, err := ReadIndex(ra, size); err == nil {
		good := int64(headerLen)
		for i, si := range six.Segments {
			if verr := validateSegment(ra, si, ver, &sc); verr != nil {
				ix := &Index{Version: ver, Segments: six.Segments[:i]}
				for _, s := range ix.Segments {
					ix.Records += int64(s.Count)
				}
				rep.Segments = i
				rep.Records = ix.Records
				rep.GoodBytes = good
				rep.Reason = fmt.Sprintf("index is valid but segment at offset %d fails decode (%v); index truncated before it", si.Offset, verr)
				return ix, rep, nil
			}
			good = si.Offset + int64(si.frameHeaderLen(ver)) + int64(si.PayloadLen)
		}
		rep.Sealed = true
		rep.Segments = len(six.Segments)
		rep.Records = six.Records
		rep.GoodBytes = size
		rep.Reason = "footer, index and all segment payloads are valid; nothing to salvage"
		return six, rep, nil
	}

	ix := &Index{Version: ver}
	var prevMax time.Duration
	off := int64(headerLen)
	rep.GoodBytes = off
	stop := func(reason string) (*Index, *RecoverReport, error) {
		rep.Segments = len(ix.Segments)
		rep.Reason = reason
		return ix, rep, nil
	}
	for {
		remain := size - off
		if remain == 0 {
			return stop("file ends cleanly at a segment boundary (missing index and footer)")
		}
		fixed := segHeaderLen
		if ver >= version3 {
			fixed = segHeaderLenV3
		}
		if remain < int64(fixed) {
			return stop(fmt.Sprintf("file ends %d bytes into a frame header at offset %d", remain, off))
		}
		var fh [segHeaderLenV3]byte
		if _, err := ra.ReadAt(fh[:fixed], off); err != nil {
			return stop(fmt.Sprintf("frame header at offset %d unreadable: %v", off, err))
		}
		if string(fh[:4]) == indexMagic {
			return stop("records end at the index frame (footer or index damaged)")
		}
		si, err := parseSegmentHeader(fh[:fixed], ver)
		if err != nil {
			return stop(fmt.Sprintf("frame at offset %d: %v", off, err))
		}
		hl := fixed
		if si.Compressed() {
			if remain < int64(fixed+4) {
				return stop(fmt.Sprintf("file ends inside the compressed-frame header at offset %d", off))
			}
			var rl [4]byte
			if _, err := ra.ReadAt(rl[:], off+int64(fixed)); err != nil {
				return stop(fmt.Sprintf("frame header at offset %d unreadable: %v", off, err))
			}
			if err := si.setRawLen(int(binary.LittleEndian.Uint32(rl[:]))); err != nil {
				return stop(fmt.Sprintf("frame at offset %d: %v", off, err))
			}
			hl = fixed + 4
		}
		// The delta chain is the cheapest strong check: every segment's base
		// must be the previous segment's last timestamp (0 for the first),
		// exactly as ReadIndex enforces on a sealed index.
		if len(ix.Segments) == 0 {
			if si.BaseT != 0 {
				return stop(fmt.Sprintf("frame at offset %d: first segment delta base %v, want 0", off, si.BaseT))
			}
		} else if si.BaseT != prevMax {
			return stop(fmt.Sprintf("frame at offset %d breaks the timestamp chain (base %v, previous segment ends %v)", off, si.BaseT, prevMax))
		}
		frameLen := int64(hl) + int64(si.PayloadLen)
		if remain < frameLen {
			return stop(fmt.Sprintf("segment at offset %d is torn (frame needs %d bytes, %d remain)", off, frameLen, remain))
		}
		si.Offset = off
		// Full validation: the payload must decompress and decode end to
		// end, with the decoded record count and first/last timestamps
		// matching the header. Only segments passing this enter the rebuilt
		// index, which is what makes decoding through it equivalent to a
		// cleanly written file — a salvaged index never points at bytes that
		// merely look like a frame.
		if derr := validateSegment(ra, si, ver, &sc); derr != nil {
			return stop(fmt.Sprintf("segment at offset %d fails decode: %v", off, derr))
		}
		ix.Segments = append(ix.Segments, si)
		ix.Records += int64(si.Count)
		rep.Records = ix.Records
		prevMax = si.MaxT
		off += frameLen
		rep.GoodBytes = off
	}
}

// validateSegment fully decodes one segment — fetch, decompress, decode,
// cross-check record count and MinT/MaxT against the header — and frees the
// decoded blocks. It is the acceptance test a segment must pass before
// Recover will vouch for it.
func validateSegment(ra io.ReaderAt, si SegmentInfo, ver int, sc *segScratch) error {
	stored, err := fetchSegmentFrame(ra, si, ver, sc)
	if err == nil {
		var d segData
		d, err = sc.decode(stored, si, true)
		d.free()
	}
	return err
}

// DecodeIndex streams every record of the segments listed in ix — typically
// one rebuilt by Recover — from ra into h in file order, decoding segments
// on max(workers, 2) goroutines. It is the salvage pipeline's decode stage:
// the read engine ReadAllSharded runs on a sealed file, minus the footer
// lookup.
func DecodeIndex(ra io.ReaderAt, ix *Index, h Handler, workers int) (int64, error) {
	return decodeSegments(&indexSource{ra: ra, version: ix.Version, segs: ix.Segments}, 0, math.MaxInt64, h, workers)
}
