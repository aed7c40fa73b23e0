package packet

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

func mkTCPFrame(t *testing.T, tcp *TCP, payload []byte) []byte {
	t.Helper()
	var s Serializer
	eth := &Ethernet{
		DstMAC: MAC{0x00, 0x11, 0x22, 0x33, 0x44, 0x55},
		SrcMAC: MAC{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff},
	}
	ip := &IPv4{
		TTL: 64,
		Src: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
		Dst: netip.AddrFrom4([4]byte{192, 168, 1, 2}),
	}
	frame, err := s.TCPFrame(eth, ip, tcp, payload)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(frame))
	copy(out, frame)
	return out
}

func TestTCPRoundTrip(t *testing.T) {
	in := &TCP{
		SrcPort: 3456, DstPort: 80,
		Seq: 0xdeadbeef, Ack: 0x01020304,
		PSH: true, ACK: true,
		Window: 8760,
	}
	payload := []byte("GET / HTTP/1.0\r\n\r\n")
	frame := mkTCPFrame(t, in, payload)

	var p Parser
	var decoded []LayerType
	if err := p.DecodeLayers(frame, &decoded); err != nil {
		t.Fatal(err)
	}
	want := []LayerType{LayerTypeEthernet, LayerTypeIPv4, LayerTypeTCP, LayerTypePayload}
	if len(decoded) != len(want) {
		t.Fatalf("decoded = %v, want %v", decoded, want)
	}
	for i := range want {
		if decoded[i] != want[i] {
			t.Fatalf("decoded = %v, want %v", decoded, want)
		}
	}
	got := p.TCP
	if got.SrcPort != in.SrcPort || got.DstPort != in.DstPort {
		t.Errorf("ports = %d->%d, want %d->%d", got.SrcPort, got.DstPort, in.SrcPort, in.DstPort)
	}
	if got.Seq != in.Seq || got.Ack != in.Ack {
		t.Errorf("seq/ack = %x/%x, want %x/%x", got.Seq, got.Ack, in.Seq, in.Ack)
	}
	if !got.PSH || !got.ACK || got.SYN || got.FIN || got.RST || got.URG {
		t.Errorf("flags wrong: %+v", got)
	}
	if got.Window != in.Window {
		t.Errorf("window = %d, want %d", got.Window, in.Window)
	}
	if !bytes.Equal(p.AppPayload, payload) {
		t.Errorf("payload = %q, want %q", p.AppPayload, payload)
	}
	if !got.VerifyChecksum(p.IP.Src, p.IP.Dst) {
		t.Error("checksum does not verify")
	}
}

func TestTCPChecksumDetectsCorruption(t *testing.T) {
	in := &TCP{SrcPort: 1, DstPort: 2, SYN: true, Window: 1024}
	frame := mkTCPFrame(t, in, []byte("abc"))
	// Flip one payload bit.
	frame[len(frame)-1] ^= 0x01

	var p Parser
	var decoded []LayerType
	if err := p.DecodeLayers(frame, &decoded); err != nil {
		t.Fatal(err)
	}
	if p.TCP.VerifyChecksum(p.IP.Src, p.IP.Dst) {
		t.Error("corrupted segment passed checksum verification")
	}
}

func TestTCPOptionsPaddedAndRecovered(t *testing.T) {
	// MSS option (kind 2, len 4, value 1460) plus one NOP: 5 bytes of
	// options that must be padded to 8 on the wire.
	in := &TCP{
		SrcPort: 5, DstPort: 6, SYN: true,
		Options: []byte{2, 4, 0x05, 0xb4, 1},
	}
	if in.HeaderLen() != 28 {
		t.Fatalf("HeaderLen = %d, want 28", in.HeaderLen())
	}
	frame := mkTCPFrame(t, in, nil)

	var p Parser
	var decoded []LayerType
	if err := p.DecodeLayers(frame, &decoded); err != nil {
		t.Fatal(err)
	}
	if p.TCP.DataOffset != 7 {
		t.Errorf("DataOffset = %d, want 7", p.TCP.DataOffset)
	}
	wantOpts := []byte{2, 4, 0x05, 0xb4, 1, 0, 0, 0}
	if !bytes.Equal(p.TCP.Options, wantOpts) {
		t.Errorf("Options = %v, want %v", p.TCP.Options, wantOpts)
	}
}

func TestTCPTruncatedAndBadOffset(t *testing.T) {
	var tcp TCP
	if err := tcp.DecodeFromBytes(make([]byte, 19)); err != ErrTruncated {
		t.Errorf("19-byte decode err = %v, want ErrTruncated", err)
	}
	// DataOffset below the minimum of 5 words.
	b := make([]byte, 20)
	b[12] = 4 << 4
	if err := tcp.DecodeFromBytes(b); err != ErrBadLength {
		t.Errorf("offset-4 decode err = %v, want ErrBadLength", err)
	}
	// DataOffset pointing past the segment.
	b[12] = 15 << 4
	if err := tcp.DecodeFromBytes(b); err != ErrBadLength {
		t.Errorf("offset-15 decode err = %v, want ErrBadLength", err)
	}
}

func TestTCPSerializeRejectsOversizedOptions(t *testing.T) {
	tcp := &TCP{Options: make([]byte, 44)} // header would exceed 60 bytes
	buf := make([]byte, 128)
	if _, err := tcp.SerializeTo(buf); err != ErrBadLength {
		t.Errorf("err = %v, want ErrBadLength", err)
	}
}

// TestTCPQuickRoundTrip drives the codec with arbitrary field values and
// checks serialize→decode is the identity on every header field.
func TestTCPQuickRoundTrip(t *testing.T) {
	f := func(srcPort, dstPort uint16, seq, ack uint32, window, urgent uint16, flags uint8, payload []byte) bool {
		in := &TCP{
			SrcPort: srcPort, DstPort: dstPort,
			Seq: seq, Ack: ack,
			Window: window, Urgent: urgent,
			FIN: flags&1 != 0, SYN: flags&2 != 0, RST: flags&4 != 0,
			PSH: flags&8 != 0, ACK: flags&16 != 0, URG: flags&32 != 0,
			ECE: flags&64 != 0, CWR: flags&128 != 0,
		}
		src := netip.AddrFrom4([4]byte{10, 1, 2, 3})
		dst := netip.AddrFrom4([4]byte{10, 4, 5, 6})
		if err := in.ComputeChecksum(src, dst, payload); err != nil {
			return false
		}
		buf := make([]byte, in.HeaderLen()+len(payload))
		if _, err := in.SerializeTo(buf); err != nil {
			return false
		}
		copy(buf[in.HeaderLen():], payload)

		var out TCP
		if err := out.DecodeFromBytes(buf); err != nil {
			return false
		}
		return out.SrcPort == in.SrcPort && out.DstPort == in.DstPort &&
			out.Seq == in.Seq && out.Ack == in.Ack &&
			out.Window == in.Window && out.Urgent == in.Urgent &&
			out.FIN == in.FIN && out.SYN == in.SYN && out.RST == in.RST &&
			out.PSH == in.PSH && out.ACK == in.ACK && out.URG == in.URG &&
			out.ECE == in.ECE && out.CWR == in.CWR &&
			bytes.Equal(out.LayerPayload(), payload) &&
			out.VerifyChecksum(src, dst)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
