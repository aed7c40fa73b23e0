package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"
)

// pcapng block type codes (from the pcapng specification).
const (
	blockSHB uint32 = 0x0a0d0d0a // Section Header Block
	blockIDB uint32 = 0x00000001 // Interface Description Block
	blockSPB uint32 = 0x00000003 // Simple Packet Block
	blockEPB uint32 = 0x00000006 // Enhanced Packet Block
)

// byteOrderMagic is the SHB field that reveals the section's endianness.
const byteOrderMagic = 0x1a2b3c4d

// maxBlockLen rejects absurd block lengths: no block the tooling writes or
// reads legitimately exceeds a jumbo frame plus headroom. Bodies are read
// by appendRead, so even a length under the cap allocates only as the
// bytes arrive.
const maxBlockLen = 16 << 20

// pcapng option codes used here.
const (
	optEndOfOpt  uint16 = 0
	optIfTsResol uint16 = 9
)

// pcapng errors.
var (
	ErrNgBadMagic    = errors.New("pcapng: not a pcapng file")
	ErrNgBadBlockLen = errors.New("pcapng: block length mismatch")
	ErrNgNoInterface = errors.New("pcapng: packet references unknown interface")
)

// NgWriter writes a pcapng capture: one section, one interface, enhanced
// packet blocks with nanosecond timestamps. This covers what the trace
// tooling needs; the classic Writer remains the default interchange format.
type NgWriter struct {
	w        io.Writer
	linkType uint32
	snapLen  uint32
	wrote    bool
}

// NewNgWriter creates a pcapng writer for a single interface of the given
// link type and snap length.
func NewNgWriter(w io.Writer, linkType, snapLen uint32) *NgWriter {
	return &NgWriter{w: w, linkType: linkType, snapLen: snapLen}
}

// writeBlock emits a complete block: type, length, body (already padded),
// trailing length.
func (w *NgWriter) writeBlock(typ uint32, body []byte) error {
	total := uint32(12 + len(body))
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], typ)
	binary.LittleEndian.PutUint32(hdr[4:8], total)
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(body); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], total)
	_, err := w.w.Write(tail[:])
	return err
}

// WriteHeader writes the section header and interface description. It is
// called automatically by the first WritePacket.
func (w *NgWriter) WriteHeader() error {
	if w.wrote {
		return nil
	}
	w.wrote = true

	// SHB body: byte-order magic, version 1.0, section length unknown (-1).
	shb := make([]byte, 16)
	binary.LittleEndian.PutUint32(shb[0:4], byteOrderMagic)
	binary.LittleEndian.PutUint16(shb[4:6], 1)
	binary.LittleEndian.PutUint16(shb[6:8], 0)
	binary.LittleEndian.PutUint64(shb[8:16], ^uint64(0))
	if err := w.writeBlock(blockSHB, shb); err != nil {
		return err
	}

	// IDB body: link type, reserved, snaplen, if_tsresol=9 (nanoseconds),
	// end of options.
	idb := make([]byte, 8, 8+8)
	binary.LittleEndian.PutUint16(idb[0:2], uint16(w.linkType))
	binary.LittleEndian.PutUint32(idb[4:8], w.snapLen)
	opt := make([]byte, 8)
	binary.LittleEndian.PutUint16(opt[0:2], optIfTsResol)
	binary.LittleEndian.PutUint16(opt[2:4], 1)
	opt[4] = 9 // 10^-9 seconds
	// bytes 5-7: padding to 32 bits; end-of-options follows as zeros.
	idb = append(idb, opt...)
	var end [4]byte
	idb = append(idb, end[:]...)
	return w.writeBlock(blockIDB, idb)
}

// WritePacket writes one enhanced packet block.
func (w *NgWriter) WritePacket(ci CaptureInfo, data []byte) error {
	if err := w.WriteHeader(); err != nil {
		return err
	}
	if len(data) != ci.CaptureLength {
		return fmt.Errorf("pcap: capture length %d does not match data length %d",
			ci.CaptureLength, len(data))
	}
	if uint32(len(data)) > w.snapLen && w.snapLen > 0 {
		return ErrSnapLen
	}
	ts := uint64(ci.Timestamp.UnixNano())
	pad := (4 - len(data)%4) % 4
	body := make([]byte, 20+len(data)+pad)
	binary.LittleEndian.PutUint32(body[0:4], 0) // interface 0
	binary.LittleEndian.PutUint32(body[4:8], uint32(ts>>32))
	binary.LittleEndian.PutUint32(body[8:12], uint32(ts))
	binary.LittleEndian.PutUint32(body[12:16], uint32(ci.CaptureLength))
	binary.LittleEndian.PutUint32(body[16:20], uint32(ci.Length))
	copy(body[20:], data)
	return w.writeBlock(blockEPB, body)
}

// ngInterface records what the reader needs per interface: link type,
// snap length and timestamp resolution (ticks per second).
type ngInterface struct {
	linkType uint32
	snapLen  uint32
	resol    uint64
}

// NgReader reads a pcapng capture. Unknown block types are skipped; multiple
// interfaces and a new section header mid-stream (a concatenated capture)
// are handled.
type NgReader struct {
	r      io.Reader
	order  binary.ByteOrder
	ifaces []ngInterface
	buf    []byte
}

// NewNgReader parses the initial section header and returns a reader.
func NewNgReader(r io.Reader) (*NgReader, error) {
	rd := &NgReader{r: r}
	typ, body, err := rd.readBlockStart()
	if err != nil {
		return nil, err
	}
	if typ != blockSHB {
		return nil, ErrNgBadMagic
	}
	if err := rd.parseSHB(body); err != nil {
		return nil, err
	}
	return rd, nil
}

// readBlockStart reads one complete block and returns its type and body
// (without the length fields). Before the first SHB is parsed, the order is
// detected from the SHB itself.
func (r *NgReader) readBlockStart() (uint32, []byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, ErrTruncated
	}
	typ := binary.LittleEndian.Uint32(hdr[0:4])
	order := r.order
	if typ == blockSHB || order == nil {
		// Detect endianness from the byte-order magic that follows.
		var bom [4]byte
		if _, err := io.ReadFull(r.r, bom[:]); err != nil {
			return 0, nil, ErrTruncated
		}
		switch {
		case binary.LittleEndian.Uint32(bom[:]) == byteOrderMagic:
			order = binary.LittleEndian
		case binary.BigEndian.Uint32(bom[:]) == byteOrderMagic:
			order = binary.BigEndian
		default:
			return 0, nil, ErrNgBadMagic
		}
		r.order = order
		typ = order.Uint32(hdr[0:4])
		if typ != blockSHB {
			return 0, nil, ErrNgBadMagic
		}
		total := order.Uint32(hdr[4:8])
		if total < 12+4 || total%4 != 0 || total > maxBlockLen {
			return 0, nil, ErrNgBadBlockLen
		}
		body, err := appendRead(r.r, bom[:], int(total-16))
		if err != nil {
			return 0, nil, ErrTruncated
		}
		return r.finishBlock(typ, total, body)
	}
	typ = order.Uint32(hdr[0:4])
	total := order.Uint32(hdr[4:8])
	if total < 12 || total%4 != 0 || total > maxBlockLen {
		return 0, nil, ErrNgBadBlockLen
	}
	body, err := appendRead(r.r, r.buf[:0], int(total-12))
	r.buf = body
	if err != nil {
		return 0, nil, ErrTruncated
	}
	return r.finishBlock(typ, total, body)
}

// readStep is the first growth step of a block body being read.
const readStep = 64 << 10

// appendRead appends n bytes read from r to dst. The block length that sizes
// a body is checked only against maxBlockLen, so the buffer grows only as
// bytes arrive — by readStep or its own length at a time — and a length
// claiming more than the stream holds costs about twice the bytes actually
// there, not what it claims.
func appendRead(r io.Reader, dst []byte, n int) ([]byte, error) {
	end := len(dst) + n
	for len(dst) < end {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, min(end-len(dst), max(len(dst), readStep)))
		}
		m, err := io.ReadFull(r, dst[len(dst):min(end, cap(dst))])
		dst = dst[:len(dst)+m]
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// finishBlock validates the trailing block length.
func (r *NgReader) finishBlock(typ, total uint32, body []byte) (uint32, []byte, error) {
	var tail [4]byte
	if _, err := io.ReadFull(r.r, tail[:]); err != nil {
		return 0, nil, ErrTruncated
	}
	if r.order.Uint32(tail[:]) != total {
		return 0, nil, ErrNgBadBlockLen
	}
	return typ, body, nil
}

// parseSHB starts a new section: interfaces reset, endianness already set.
func (r *NgReader) parseSHB(body []byte) error {
	if len(body) < 16 {
		return ErrTruncated
	}
	if major := r.order.Uint16(body[4:6]); major != 1 {
		return ErrBadVersion
	}
	r.ifaces = r.ifaces[:0]
	return nil
}

// parseIDB registers an interface.
func (r *NgReader) parseIDB(body []byte) error {
	if len(body) < 8 {
		return ErrTruncated
	}
	iface := ngInterface{
		linkType: uint32(r.order.Uint16(body[0:2])),
		snapLen:  r.order.Uint32(body[4:8]),
		resol:    1_000_000, // default: microseconds
	}
	// Walk options for if_tsresol.
	opts := body[8:]
	for len(opts) >= 4 {
		code := r.order.Uint16(opts[0:2])
		olen := int(r.order.Uint16(opts[2:4]))
		opts = opts[4:]
		if code == optEndOfOpt {
			break
		}
		if olen > len(opts) {
			return ErrTruncated
		}
		if code == optIfTsResol && olen >= 1 {
			v := opts[0]
			if v&0x80 != 0 {
				iface.resol = 1 << (v & 0x7f)
			} else {
				iface.resol = 1
				for i := byte(0); i < v; i++ {
					iface.resol *= 10
				}
			}
		}
		opts = opts[(olen+3)/4*4:]
	}
	r.ifaces = append(r.ifaces, iface)
	return nil
}

// Interfaces returns the number of interfaces seen in the current section.
func (r *NgReader) Interfaces() int { return len(r.ifaces) }

// LinkType returns the link type of interface 0, or LinkTypeEthernet when no
// interface block has been seen yet.
func (r *NgReader) LinkType() uint32 {
	if len(r.ifaces) == 0 {
		return LinkTypeEthernet
	}
	return r.ifaces[0].linkType
}

// ReadPacket returns the next packet in the capture, skipping non-packet
// blocks. The data slice is reused across calls; copy it if it must outlive
// the next read. io.EOF marks a clean end of file.
func (r *NgReader) ReadPacket() (CaptureInfo, []byte, error) {
	for {
		typ, body, err := r.readBlockStart()
		if err != nil {
			return CaptureInfo{}, nil, err
		}
		switch typ {
		case blockSHB:
			if err := r.parseSHB(body); err != nil {
				return CaptureInfo{}, nil, err
			}
		case blockIDB:
			if err := r.parseIDB(body); err != nil {
				return CaptureInfo{}, nil, err
			}
		case blockEPB:
			return r.parseEPB(body)
		case blockSPB:
			return r.parseSPB(body)
		default:
			// Skip name resolution, statistics and custom blocks.
		}
	}
}

// parseEPB decodes an enhanced packet block.
func (r *NgReader) parseEPB(body []byte) (CaptureInfo, []byte, error) {
	if len(body) < 20 {
		return CaptureInfo{}, nil, ErrTruncated
	}
	ifID := r.order.Uint32(body[0:4])
	if int(ifID) >= len(r.ifaces) {
		return CaptureInfo{}, nil, ErrNgNoInterface
	}
	iface := r.ifaces[ifID]
	ts := uint64(r.order.Uint32(body[4:8]))<<32 | uint64(r.order.Uint32(body[8:12]))
	capLen := r.order.Uint32(body[12:16])
	origLen := r.order.Uint32(body[16:20])
	if int(capLen) > len(body)-20 {
		return CaptureInfo{}, nil, ErrTruncated
	}
	sec := ts / iface.resol
	frac := ts % iface.resol
	nanos := frac * uint64(time.Second) / iface.resol
	ci := CaptureInfo{
		Timestamp:     time.Unix(int64(sec), int64(nanos)).UTC(),
		CaptureLength: int(capLen),
		Length:        int(origLen),
	}
	return ci, body[20 : 20+capLen], nil
}

// parseSPB decodes a simple packet block: no timestamp, interface 0, capture
// length implied by the block length bounded by the snap length.
func (r *NgReader) parseSPB(body []byte) (CaptureInfo, []byte, error) {
	if len(body) < 4 {
		return CaptureInfo{}, nil, ErrTruncated
	}
	if len(r.ifaces) == 0 {
		return CaptureInfo{}, nil, ErrNgNoInterface
	}
	origLen := r.order.Uint32(body[0:4])
	capLen := uint32(len(body) - 4)
	if snap := r.ifaces[0].snapLen; snap > 0 && origLen < capLen {
		capLen = origLen
	}
	ci := CaptureInfo{
		Timestamp:     time.Unix(0, 0).UTC(),
		CaptureLength: int(capLen),
		Length:        int(origLen),
	}
	return ci, body[4 : 4+capLen], nil
}
