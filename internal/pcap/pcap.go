// Package pcap reads and writes classic libpcap capture files, the format
// the original study's tcpdump trace would have been stored in and the one
// every capture tool reads. The writer stores nanosecond timestamps (magic
// 0xa1b23c4d); the reader also takes the microsecond variant (0xa1b2c3d4),
// in either byte order.
//
// Only the stdlib is used; the format is simple enough that binding libpcap
// (as gopacket does) buys nothing for file processing.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Magic numbers for the classic pcap format.
const (
	MagicMicroseconds = 0xa1b2c3d4
	MagicNanoseconds  = 0xa1b23c4d
)

// LinkTypeEthernet is the pcap link type of Ethernet frames.
const LinkTypeEthernet uint32 = 1

// maxSnapLen is libpcap's maximum snap length: no capture tool stores more
// than this many bytes of one packet.
const maxSnapLen = 262144

// Header errors.
var (
	ErrBadMagic   = errors.New("pcap: bad magic number")
	ErrBadVersion = errors.New("pcap: unsupported version")
	ErrTruncated  = errors.New("pcap: truncated file")
	ErrSnapLen    = errors.New("pcap: capture exceeds snap length")
)

// FileHeader is the 24-byte global header.
type FileHeader struct {
	Nanosecond   bool // nanosecond timestamp variant
	VersionMajor uint16
	VersionMinor uint16
	SnapLen      uint32
	LinkType     uint32
}

// CaptureInfo describes one captured packet (gopacket's CaptureInfo).
type CaptureInfo struct {
	// Timestamp is the capture time.
	Timestamp time.Time
	// CaptureLength is the number of bytes actually stored.
	CaptureLength int
	// Length is the original wire length of the packet.
	Length int
}

// Writer writes a little-endian pcap file with nanosecond timestamps.
type Writer struct {
	w       io.Writer
	hdr     FileHeader
	wrote   bool
	scratch [16]byte
}

// NewWriter creates a Writer with the given link type and snap length.
// Timestamps are written with nanosecond resolution.
func NewWriter(w io.Writer, linkType uint32, snapLen uint32) *Writer {
	return &Writer{w: w, hdr: FileHeader{
		Nanosecond:   true,
		VersionMajor: 2,
		VersionMinor: 4,
		SnapLen:      snapLen,
		LinkType:     linkType,
	}}
}

// WriteHeader writes the global header. It is called automatically by the
// first WritePacket.
func (w *Writer) WriteHeader() error {
	if w.wrote {
		return nil
	}
	w.wrote = true
	var b [24]byte
	binary.LittleEndian.PutUint32(b[0:4], MagicNanoseconds)
	binary.LittleEndian.PutUint16(b[4:6], w.hdr.VersionMajor)
	binary.LittleEndian.PutUint16(b[6:8], w.hdr.VersionMinor)
	// thiszone and sigfigs are zero.
	binary.LittleEndian.PutUint32(b[16:20], w.hdr.SnapLen)
	binary.LittleEndian.PutUint32(b[20:24], w.hdr.LinkType)
	_, err := w.w.Write(b[:])
	return err
}

// WritePacket writes one packet record. data may be shorter than
// ci.Length (a snapped capture) but not longer than SnapLen.
func (w *Writer) WritePacket(ci CaptureInfo, data []byte) error {
	if err := w.WriteHeader(); err != nil {
		return err
	}
	if len(data) != ci.CaptureLength {
		return fmt.Errorf("pcap: capture length %d does not match data length %d",
			ci.CaptureLength, len(data))
	}
	if uint32(len(data)) > w.hdr.SnapLen {
		return ErrSnapLen
	}
	b := w.scratch[:16]
	binary.LittleEndian.PutUint32(b[0:4], uint32(ci.Timestamp.Unix()))
	binary.LittleEndian.PutUint32(b[4:8], uint32(ci.Timestamp.Nanosecond()))
	binary.LittleEndian.PutUint32(b[8:12], uint32(ci.CaptureLength))
	binary.LittleEndian.PutUint32(b[12:16], uint32(ci.Length))
	if _, err := w.w.Write(b); err != nil {
		return err
	}
	_, err := w.w.Write(data)
	return err
}

// Reader reads a pcap file.
type Reader struct {
	r       io.Reader
	hdr     FileHeader
	order   binary.ByteOrder
	scratch [16]byte
	buf     []byte
}

// NewReader parses the global header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	var b [24]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, ErrTruncated
		}
		return nil, err
	}
	rd := &Reader{r: r}
	magicLE := binary.LittleEndian.Uint32(b[0:4])
	magicBE := binary.BigEndian.Uint32(b[0:4])
	switch {
	case magicLE == MagicMicroseconds:
		rd.order = binary.LittleEndian
	case magicLE == MagicNanoseconds:
		rd.order, rd.hdr.Nanosecond = binary.LittleEndian, true
	case magicBE == MagicMicroseconds:
		rd.order = binary.BigEndian
	case magicBE == MagicNanoseconds:
		rd.order, rd.hdr.Nanosecond = binary.BigEndian, true
	default:
		return nil, ErrBadMagic
	}
	rd.hdr.VersionMajor = rd.order.Uint16(b[4:6])
	rd.hdr.VersionMinor = rd.order.Uint16(b[6:8])
	if rd.hdr.VersionMajor != 2 {
		return nil, ErrBadVersion
	}
	rd.hdr.SnapLen = rd.order.Uint32(b[16:20])
	rd.hdr.LinkType = rd.order.Uint32(b[20:24])
	return rd, nil
}

// Header returns the parsed global header.
func (r *Reader) Header() FileHeader { return r.hdr }

// ReadPacket returns the next packet. The data slice is reused across calls;
// copy it if it must outlive the next read. io.EOF marks a clean end of
// file.
func (r *Reader) ReadPacket() (CaptureInfo, []byte, error) {
	b := r.scratch[:16]
	if _, err := io.ReadFull(r.r, b); err != nil {
		if err == io.EOF {
			return CaptureInfo{}, nil, io.EOF
		}
		return CaptureInfo{}, nil, ErrTruncated
	}
	sec := r.order.Uint32(b[0:4])
	sub := r.order.Uint32(b[4:8])
	capLen := r.order.Uint32(b[8:12])
	origLen := r.order.Uint32(b[12:16])
	// The capture length sizes an allocation before any packet byte is
	// read, so it is bounded whatever the file header claims (a SnapLen of
	// 0 means "unknown", not "unlimited").
	if capLen > maxSnapLen || capLen > r.hdr.SnapLen && r.hdr.SnapLen > 0 {
		return CaptureInfo{}, nil, ErrSnapLen
	}
	if cap(r.buf) < int(capLen) {
		r.buf = make([]byte, capLen)
	}
	data := r.buf[:capLen]
	if _, err := io.ReadFull(r.r, data); err != nil {
		return CaptureInfo{}, nil, ErrTruncated
	}
	nanos := int64(sub)
	if !r.hdr.Nanosecond {
		nanos *= 1000
	}
	ci := CaptureInfo{
		Timestamp:     time.Unix(int64(sec), nanos).UTC(),
		CaptureLength: int(capLen),
		Length:        int(origLen),
	}
	return ci, data, nil
}
