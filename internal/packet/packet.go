// Package packet provides decoding and serialization for the protocol stack
// the trace consists of: Ethernet (optionally 802.1Q-tagged), IPv4 and UDP,
// with the game payload as the application layer.
//
// The API follows the shape of the gopacket library — a zero-allocation
// Parser decodes a known stack into preallocated layer structs, and
// endpoints give hashable src/dst identities — but is implemented entirely
// on the standard library.
package packet

import (
	"encoding/binary"
	"errors"
	"net/netip"
)

// LayerType identifies a protocol layer.
type LayerType uint8

const (
	LayerTypeEthernet LayerType = iota + 1
	LayerTypeIPv4
	LayerTypeUDP
	LayerTypePayload
)

// Common decode errors.
var (
	ErrTruncated   = errors.New("packet: truncated layer")
	ErrBadVersion  = errors.New("packet: bad IP version")
	ErrBadChecksum = errors.New("packet: bad checksum")
	ErrBadLength   = errors.New("packet: bad length field")
)

// EtherType values used in the trace.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeVLAN uint16 = 0x8100
)

// MAC is a 6-byte Ethernet address.
type MAC [6]byte

// Ethernet is the link layer. The capture link the paper's byte accounting
// implies was 802.1Q-tagged; HasVLAN/VLANID carry the tag when present.
type Ethernet struct {
	DstMAC, SrcMAC MAC
	EtherType      uint16
	HasVLAN        bool
	VLANID         uint16 // 12-bit VLAN identifier
	VLANPriority   uint8  // 3-bit PCP

	payload []byte
}

// LayerPayload returns the bytes this layer carries.
func (e *Ethernet) LayerPayload() []byte { return e.payload }

// NextLayerType reports the type of this layer's payload.
func (e *Ethernet) NextLayerType() LayerType {
	if e.EtherType == EtherTypeIPv4 {
		return LayerTypeIPv4
	}
	return LayerTypePayload
}

// DecodeFromBytes parses data into the receiver, which keeps references
// into data.
func (e *Ethernet) DecodeFromBytes(data []byte) error {
	if len(data) < 14 {
		return ErrTruncated
	}
	copy(e.DstMAC[:], data[0:6])
	copy(e.SrcMAC[:], data[6:12])
	et := binary.BigEndian.Uint16(data[12:14])
	hdr := 14
	e.HasVLAN = false
	e.VLANID = 0
	e.VLANPriority = 0
	if et == EtherTypeVLAN {
		if len(data) < 18 {
			return ErrTruncated
		}
		tci := binary.BigEndian.Uint16(data[14:16])
		e.HasVLAN = true
		e.VLANPriority = uint8(tci >> 13)
		e.VLANID = tci & 0x0fff
		et = binary.BigEndian.Uint16(data[16:18])
		hdr = 18
	}
	e.EtherType = et
	e.payload = data[hdr:]
	return nil
}

// HeaderLen returns the serialized header length.
func (e *Ethernet) HeaderLen() int {
	if e.HasVLAN {
		return 18
	}
	return 14
}

// SerializeTo writes the header into b, which must have room (HeaderLen
// bytes). It returns the number of bytes written.
func (e *Ethernet) SerializeTo(b []byte) (int, error) {
	n := e.HeaderLen()
	if len(b) < n {
		return 0, ErrTruncated
	}
	copy(b[0:6], e.DstMAC[:])
	copy(b[6:12], e.SrcMAC[:])
	if e.HasVLAN {
		binary.BigEndian.PutUint16(b[12:14], EtherTypeVLAN)
		tci := uint16(e.VLANPriority)<<13 | e.VLANID&0x0fff
		binary.BigEndian.PutUint16(b[14:16], tci)
		binary.BigEndian.PutUint16(b[16:18], e.EtherType)
	} else {
		binary.BigEndian.PutUint16(b[12:14], e.EtherType)
	}
	return n, nil
}

// IPv4 is the network layer (no options support; game traffic never uses
// them).
type IPv4 struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint8 // 3 bits
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src, Dst netip.Addr

	payload []byte
}

// IPProtoUDP is the IPv4 protocol number for UDP.
const IPProtoUDP = 17

// LayerPayload returns the bytes this layer carries.
func (ip *IPv4) LayerPayload() []byte { return ip.payload }

// NextLayerType reports the type of this layer's payload.
func (ip *IPv4) NextLayerType() LayerType {
	if ip.Protocol == IPProtoUDP {
		return LayerTypeUDP
	}
	return LayerTypePayload
}

// DecodeFromBytes parses data into the receiver, which keeps references
// into data.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < 20 {
		return ErrTruncated
	}
	if v := data[0] >> 4; v != 4 {
		return ErrBadVersion
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < 20 || len(data) < ihl {
		return ErrTruncated
	}
	ip.TOS = data[1]
	ip.TotalLen = binary.BigEndian.Uint16(data[2:4])
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ff := binary.BigEndian.Uint16(data[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOff = ff & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = data[9]
	ip.Checksum = binary.BigEndian.Uint16(data[10:12])
	ip.Src = netip.AddrFrom4([4]byte(data[12:16]))
	ip.Dst = netip.AddrFrom4([4]byte(data[16:20]))
	if int(ip.TotalLen) < ihl || int(ip.TotalLen) > len(data) {
		return ErrBadLength
	}
	if Checksum(data[:ihl]) != 0 {
		return ErrBadChecksum
	}
	ip.payload = data[ihl:ip.TotalLen]
	return nil
}

// HeaderLen returns the serialized header length (always 20: no options).
func (ip *IPv4) HeaderLen() int { return 20 }

// SerializeTo writes the header into b with a freshly computed checksum.
// TotalLen must already be set (header + payload length).
func (ip *IPv4) SerializeTo(b []byte) (int, error) {
	if len(b) < 20 {
		return 0, ErrTruncated
	}
	if !ip.Src.Is4() || !ip.Dst.Is4() {
		return 0, errors.New("packet: IPv4.SerializeTo: src/dst must be IPv4 addresses")
	}
	b[0] = 0x45 // version 4, IHL 5
	b[1] = ip.TOS
	binary.BigEndian.PutUint16(b[2:4], ip.TotalLen)
	binary.BigEndian.PutUint16(b[4:6], ip.ID)
	binary.BigEndian.PutUint16(b[6:8], uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	b[8] = ip.TTL
	b[9] = ip.Protocol
	b[10], b[11] = 0, 0
	src := ip.Src.As4()
	dst := ip.Dst.As4()
	copy(b[12:16], src[:])
	copy(b[16:20], dst[:])
	ip.Checksum = Checksum(b[:20])
	binary.BigEndian.PutUint16(b[10:12], ip.Checksum)
	return 20, nil
}

// UDP is the transport layer.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16

	payload []byte
}

// LayerPayload returns the bytes this layer carries.
func (u *UDP) LayerPayload() []byte { return u.payload }

// NextLayerType reports the type of this layer's payload.
func (u *UDP) NextLayerType() LayerType { return LayerTypePayload }

// DecodeFromBytes parses data into the receiver, which keeps references
// into data.
func (u *UDP) DecodeFromBytes(data []byte) error {
	if len(data) < 8 {
		return ErrTruncated
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.Length = binary.BigEndian.Uint16(data[4:6])
	u.Checksum = binary.BigEndian.Uint16(data[6:8])
	if int(u.Length) < 8 || int(u.Length) > len(data) {
		return ErrBadLength
	}
	u.payload = data[8:u.Length]
	return nil
}

// HeaderLen returns the serialized header length.
func (u *UDP) HeaderLen() int { return 8 }

// SerializeTo writes the header into b. Length must already be set
// (8 + payload). The checksum is left as stored (0 = none), matching the
// common configuration for latency-sensitive UDP.
func (u *UDP) SerializeTo(b []byte) (int, error) {
	if len(b) < 8 {
		return 0, ErrTruncated
	}
	binary.BigEndian.PutUint16(b[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], u.DstPort)
	binary.BigEndian.PutUint16(b[4:6], u.Length)
	binary.BigEndian.PutUint16(b[6:8], u.Checksum)
	return 8, nil
}

// Checksum computes the 16-bit one's-complement Internet checksum of data.
// A buffer containing a correct embedded checksum sums to zero.
func Checksum(data []byte) uint16 {
	var sum uint32
	for len(data) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(data[:2]))
		data = data[2:]
	}
	if len(data) == 1 {
		sum += uint32(data[0]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}
