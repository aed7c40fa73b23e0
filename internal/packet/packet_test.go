package packet

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

func mkFrame(t *testing.T, vlan bool, payload []byte) []byte {
	t.Helper()
	var s Serializer
	eth := &Ethernet{
		DstMAC:  MAC{0x00, 0x11, 0x22, 0x33, 0x44, 0x55},
		SrcMAC:  MAC{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff},
		HasVLAN: vlan,
		VLANID:  42,
	}
	ip := &IPv4{
		TTL: 64,
		Src: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
		Dst: netip.AddrFrom4([4]byte{192, 168, 1, 2}),
	}
	udp := &UDP{SrcPort: 27005, DstPort: 27015}
	frame, err := s.Frame(eth, ip, udp, payload)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(frame))
	copy(out, frame)
	return out
}

func TestRoundTrip(t *testing.T) {
	payload := []byte("usercmd: forward+attack")
	frame := mkFrame(t, false, payload)

	var p Parser
	var decoded []LayerType
	if err := p.DecodeLayers(frame, &decoded); err != nil {
		t.Fatal(err)
	}
	want := []LayerType{LayerTypeEthernet, LayerTypeIPv4, LayerTypeUDP, LayerTypePayload}
	if len(decoded) != len(want) {
		t.Fatalf("decoded = %v", decoded)
	}
	for i := range want {
		if decoded[i] != want[i] {
			t.Fatalf("decoded = %v, want %v", decoded, want)
		}
	}
	if !bytes.Equal(p.AppPayload, payload) {
		t.Errorf("payload = %q", p.AppPayload)
	}
	if p.UDP.SrcPort != 27005 || p.UDP.DstPort != 27015 {
		t.Errorf("ports = %d->%d", p.UDP.SrcPort, p.UDP.DstPort)
	}
	if p.IP.Src != netip.AddrFrom4([4]byte{10, 0, 0, 1}) {
		t.Errorf("src = %v", p.IP.Src)
	}
	if p.IP.TTL != 64 {
		t.Errorf("ttl = %d", p.IP.TTL)
	}
	if p.Eth.HasVLAN {
		t.Error("unexpected VLAN tag")
	}
}

func TestRoundTripVLAN(t *testing.T) {
	payload := []byte{1, 2, 3}
	frame := mkFrame(t, true, payload)
	var p Parser
	var decoded []LayerType
	if err := p.DecodeLayers(frame, &decoded); err != nil {
		t.Fatal(err)
	}
	if !p.Eth.HasVLAN || p.Eth.VLANID != 42 {
		t.Errorf("VLAN = %v id=%d", p.Eth.HasVLAN, p.Eth.VLANID)
	}
	if !bytes.Equal(p.AppPayload, payload) {
		t.Errorf("payload = %v", p.AppPayload)
	}
	if len(frame) != 18+20+8+3 {
		t.Errorf("frame len = %d", len(frame))
	}
}

func TestRoundTripProperty(t *testing.T) {
	var s Serializer
	var p Parser
	var decoded []LayerType
	f := func(payload []byte, srcPort, dstPort uint16, a, b, c, d byte, vlan bool) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		eth := &Ethernet{HasVLAN: vlan, VLANID: 7}
		ip := &IPv4{
			TTL: 128,
			Src: netip.AddrFrom4([4]byte{a, b, c, d}),
			Dst: netip.AddrFrom4([4]byte{d, c, b, a}),
		}
		udp := &UDP{SrcPort: srcPort, DstPort: dstPort}
		frame, err := s.Frame(eth, ip, udp, payload)
		if err != nil {
			return false
		}
		if err := p.DecodeLayers(frame, &decoded); err != nil {
			return false
		}
		return bytes.Equal(p.AppPayload, payload) &&
			p.UDP.SrcPort == srcPort && p.UDP.DstPort == dstPort &&
			p.IP.Src == ip.Src && p.IP.Dst == ip.Dst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	frame := mkFrame(t, false, []byte("hello"))
	var p Parser
	var decoded []LayerType
	// Any truncation point inside a header must produce an error, never a
	// panic or silent success.
	for cut := 0; cut < len(frame); cut++ {
		err := p.DecodeLayers(frame[:cut], &decoded)
		if cut < 14+20+8 && err == nil {
			t.Fatalf("cut=%d: want error", cut)
		}
	}
}

func TestDecodeCorruptChecksum(t *testing.T) {
	frame := mkFrame(t, false, []byte("hello"))
	frame[14+10] ^= 0xff // corrupt IP checksum
	var p Parser
	var decoded []LayerType
	if err := p.DecodeLayers(frame, &decoded); err != ErrBadChecksum {
		t.Errorf("err = %v, want ErrBadChecksum", err)
	}
}

func TestDecodeBadVersion(t *testing.T) {
	frame := mkFrame(t, false, []byte("hi"))
	frame[14] = 0x65 // version 6
	var p Parser
	var decoded []LayerType
	if err := p.DecodeLayers(frame, &decoded); err != ErrBadVersion {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestDecodeNonIPv4StopsCleanly(t *testing.T) {
	frame := mkFrame(t, false, []byte("hi"))
	frame[12], frame[13] = 0x86, 0xdd // IPv6 ethertype (unhandled)
	var p Parser
	var decoded []LayerType
	if err := p.DecodeLayers(frame, &decoded); err != nil {
		t.Fatalf("unknown next layer should not error: %v", err)
	}
	if len(decoded) != 1 || decoded[0] != LayerTypeEthernet {
		t.Errorf("decoded = %v", decoded)
	}
	if len(p.AppPayload) == 0 {
		t.Error("remainder should land in AppPayload")
	}
}

func TestDecodeNonUDPStopsCleanly(t *testing.T) {
	frame := mkFrame(t, false, []byte("hi"))
	// Change protocol to GRE (which the parser does not handle) and fix
	// the header checksum.
	ihl := frame[14:]
	ihl[9] = 47
	ihl[10], ihl[11] = 0, 0
	ck := Checksum(ihl[:20])
	ihl[10], ihl[11] = byte(ck>>8), byte(ck)
	var p Parser
	var decoded []LayerType
	if err := p.DecodeLayers(frame, &decoded); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if len(decoded) != 2 {
		t.Errorf("decoded = %v", decoded)
	}
}

func TestChecksum(t *testing.T) {
	// RFC 1071 example: checksum of {0x0001, 0xf203, 0xf4f5, 0xf6f7}.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	got := Checksum(data)
	want := ^uint16(0xddf2)
	if got != want {
		t.Errorf("Checksum = %#04x, want %#04x", got, want)
	}
	// Odd-length input.
	if Checksum([]byte{0xff}) != ^uint16(0xff00) {
		t.Error("odd-length checksum")
	}
}

func TestChecksumSelfVerifyProperty(t *testing.T) {
	// Property: embedding the checksum makes the buffer sum to zero.
	f := func(data []byte) bool {
		if len(data) < 2 {
			return true
		}
		if len(data)%2 == 1 {
			data = data[:len(data)-1]
		}
		data[0], data[1] = 0, 0
		ck := Checksum(data)
		data[0], data[1] = byte(ck>>8), byte(ck)
		return Checksum(data) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLayerAccessors(t *testing.T) {
	frame := mkFrame(t, false, []byte("xyz"))
	var p Parser
	var decoded []LayerType
	if err := p.DecodeLayers(frame, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(p.Eth.LayerPayload()) != 20+8+3 {
		t.Error("eth payload")
	}
	if len(p.IP.LayerPayload()) != 8+3 {
		t.Error("ip payload")
	}
	if got := p.UDP.LayerPayload(); string(got) != "xyz" {
		t.Errorf("udp payload = %q", got)
	}
}

func BenchmarkDecodeLayers(b *testing.B) {
	var s Serializer
	eth := &Ethernet{}
	ip := &IPv4{TTL: 64, Src: netip.AddrFrom4([4]byte{10, 0, 0, 1}), Dst: netip.AddrFrom4([4]byte{10, 0, 0, 2})}
	udp := &UDP{SrcPort: 1, DstPort: 2}
	frame, _ := s.Frame(eth, ip, udp, make([]byte, 80))
	var p Parser
	decoded := make([]LayerType, 0, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.DecodeLayers(frame, &decoded); err != nil {
			b.Fatal(err)
		}
	}
}
