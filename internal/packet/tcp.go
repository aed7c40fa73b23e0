package packet

import (
	"encoding/binary"
	"net/netip"
)

// IPProtoTCP is the IPv4 protocol number for TCP.
const IPProtoTCP = 6

// TCP is the transport layer of the bulk-transfer traffic the paper
// contrasts game traffic against (§IV-A: "the majority of traffic being
// carried in today's networks involve bulk data transfers using TCP").
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	// DataOffset is the header length in 32-bit words as decoded; it is
	// recomputed from Options on serialization.
	DataOffset                             uint8
	FIN, SYN, RST, PSH, ACK, URG, ECE, CWR bool
	Window                                 uint16
	Checksum                               uint16
	Urgent                                 uint16
	// Options holds the raw option bytes, already padded to a multiple of
	// four (the padding is part of the header on the wire).
	Options []byte

	contents []byte
	payload  []byte
}

// LayerType implements Layer.
func (t *TCP) LayerType() LayerType { return LayerTypeTCP }

// LayerContents implements Layer.
func (t *TCP) LayerContents() []byte { return t.contents }

// LayerPayload implements Layer.
func (t *TCP) LayerPayload() []byte { return t.payload }

// NextLayerType implements DecodingLayer.
func (t *TCP) NextLayerType() LayerType { return LayerTypePayload }

// DecodeFromBytes implements DecodingLayer. The checksum is stored but not
// verified here because verification needs the IP pseudo-header; call
// VerifyChecksum with the addresses from the enclosing IPv4 layer.
func (t *TCP) DecodeFromBytes(data []byte) error {
	if len(data) < 20 {
		return ErrTruncated
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	t.DataOffset = data[12] >> 4
	hdr := int(t.DataOffset) * 4
	if hdr < 20 || hdr > len(data) {
		return ErrBadLength
	}
	flags := data[13]
	t.FIN = flags&0x01 != 0
	t.SYN = flags&0x02 != 0
	t.RST = flags&0x04 != 0
	t.PSH = flags&0x08 != 0
	t.ACK = flags&0x10 != 0
	t.URG = flags&0x20 != 0
	t.ECE = flags&0x40 != 0
	t.CWR = flags&0x80 != 0
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.Checksum = binary.BigEndian.Uint16(data[16:18])
	t.Urgent = binary.BigEndian.Uint16(data[18:20])
	t.Options = data[20:hdr]
	t.contents = data[:hdr]
	t.payload = data[hdr:]
	return nil
}

// HeaderLen returns the serialized header length: 20 bytes plus options
// padded to a multiple of four.
func (t *TCP) HeaderLen() int { return 20 + (len(t.Options)+3)/4*4 }

func (t *TCP) flagByte() byte {
	var f byte
	if t.FIN {
		f |= 0x01
	}
	if t.SYN {
		f |= 0x02
	}
	if t.RST {
		f |= 0x04
	}
	if t.PSH {
		f |= 0x08
	}
	if t.ACK {
		f |= 0x10
	}
	if t.URG {
		f |= 0x20
	}
	if t.ECE {
		f |= 0x40
	}
	if t.CWR {
		f |= 0x80
	}
	return f
}

// SerializeTo writes the header into b, which must have room (HeaderLen
// bytes). Options are zero-padded to a four-byte boundary and DataOffset is
// recomputed. The checksum is written as stored; use ComputeChecksum first
// for a valid one.
func (t *TCP) SerializeTo(b []byte) (int, error) {
	n := t.HeaderLen()
	if len(b) < n {
		return 0, ErrTruncated
	}
	if n > 60 {
		return 0, ErrBadLength // DataOffset is 4 bits: max 15 words
	}
	t.DataOffset = uint8(n / 4)
	binary.BigEndian.PutUint16(b[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], t.DstPort)
	binary.BigEndian.PutUint32(b[4:8], t.Seq)
	binary.BigEndian.PutUint32(b[8:12], t.Ack)
	b[12] = t.DataOffset << 4
	b[13] = t.flagByte()
	binary.BigEndian.PutUint16(b[14:16], t.Window)
	binary.BigEndian.PutUint16(b[16:18], t.Checksum)
	binary.BigEndian.PutUint16(b[18:20], t.Urgent)
	copy(b[20:20+len(t.Options)], t.Options)
	for i := 20 + len(t.Options); i < n; i++ {
		b[i] = 0
	}
	return n, nil
}

// ComputeChecksum sets Checksum for the given pseudo-header addresses and
// payload, as it would appear on the wire.
func (t *TCP) ComputeChecksum(src, dst netip.Addr, payload []byte) error {
	t.Checksum = 0
	buf := make([]byte, t.HeaderLen()+len(payload))
	if _, err := t.SerializeTo(buf); err != nil {
		return err
	}
	copy(buf[t.HeaderLen():], payload)
	t.Checksum = TransportChecksum(src, dst, IPProtoTCP, buf)
	return nil
}

// VerifyChecksum reports whether the decoded segment's checksum is valid
// for the given pseudo-header addresses.
func (t *TCP) VerifyChecksum(src, dst netip.Addr) bool {
	seg := make([]byte, 0, len(t.contents)+len(t.payload))
	seg = append(seg, t.contents...)
	seg = append(seg, t.payload...)
	return TransportChecksum(src, dst, IPProtoTCP, seg) == 0
}

// TransportChecksum computes the Internet checksum of an IPv4 pseudo-header
// (src, dst, protocol, length) followed by the transport segment. A segment
// containing a correct embedded checksum yields zero.
func TransportChecksum(src, dst netip.Addr, proto uint8, segment []byte) uint16 {
	var pseudo [12]byte
	s4 := src.As4()
	d4 := dst.As4()
	copy(pseudo[0:4], s4[:])
	copy(pseudo[4:8], d4[:])
	pseudo[9] = proto
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(segment)))

	var sum uint32
	for _, chunk := range [][]byte{pseudo[:], segment} {
		for len(chunk) >= 2 {
			sum += uint32(binary.BigEndian.Uint16(chunk[:2]))
			chunk = chunk[2:]
		}
		if len(chunk) == 1 {
			sum += uint32(chunk[0]) << 8
		}
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}
