package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"

	"cstrace/internal/packet"
	"cstrace/internal/pcap"
	"cstrace/internal/units"
)

func TestWireAccounting(t *testing.T) {
	r := Record{App: 40}
	if r.Wire() != 40+units.WireOverhead {
		t.Errorf("Wire = %d", r.Wire())
	}
}

func TestDirectionKindStrings(t *testing.T) {
	if In.String() != "in" || Out.String() != "out" {
		t.Error("Direction.String")
	}
	kinds := map[Kind]string{
		KindGame: "game", KindHandshake: "handshake", KindText: "text",
		KindVoice: "voice", KindDownload: "download", Kind(99): "unknown",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	recs := []Record{
		{T: 0, Dir: In, Kind: KindHandshake, Client: 1, App: 12},
		{T: 41 * time.Millisecond, Dir: In, Kind: KindGame, Client: 1, App: 40},
		{T: 50 * time.Millisecond, Dir: Out, Kind: KindGame, Client: 1, App: 130},
		{T: 50 * time.Millisecond, Dir: Out, Kind: KindGame, Client: 2, App: 255},
		{T: 100 * time.Hour, Dir: Out, Kind: KindDownload, Client: 70000, App: 65000},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != int64(len(recs)) {
		t.Errorf("Count = %d", w.Count())
	}

	r := NewReader(&buf)
	var got Collect
	n, err := r.ReadAll(&got)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(recs)) {
		t.Fatalf("read %d records", n)
	}
	for i := range recs {
		if got.Records[i] != recs[i] {
			t.Errorf("record %d: got %+v, want %+v", i, got.Records[i], recs[i])
		}
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(deltas []uint16, dirs []bool, apps []uint16, clients []uint32) bool {
		n := len(deltas)
		if len(dirs) < n {
			n = len(dirs)
		}
		if len(apps) < n {
			n = len(apps)
		}
		if len(clients) < n {
			n = len(clients)
		}
		recs := make([]Record, n)
		var tm time.Duration
		for i := 0; i < n; i++ {
			tm += time.Duration(deltas[i]) * time.Microsecond
			d := In
			if dirs[i] {
				d = Out
			}
			recs[i] = Record{T: tm, Dir: d, Kind: Kind(i % 5), Client: clients[i], App: apps[i]}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		var got Collect
		if _, err := NewReader(&buf).ReadAll(&got); err != nil {
			return false
		}
		if len(got.Records) != n {
			return false
		}
		for i := range recs {
			if got.Records[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWriterRejectsTimeRegression(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Record{T: time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{T: 0}); err == nil {
		t.Error("want error for time regression")
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("err = %v, want io.EOF", err)
	}
}

func TestReaderBadInput(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("nope"))).Read(); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
	bad := append([]byte("CSTR"), 99, 0, 0, 0)
	if _, err := NewReader(bytes.NewReader(bad)).Read(); err != ErrBadVersion {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
	// v1 header followed by garbage mid-record.
	trunc := append([]byte("CSTR"), version1, 0, 0, 0, 0x80)
	if _, err := NewReader(bytes.NewReader(trunc)).Read(); err != ErrCorrupt {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
	// v2 header followed by an unknown frame marker.
	badFrame := append([]byte("CSTR"), version2, 0, 0, 0)
	badFrame = append(badFrame, "WHAT"...)
	if _, err := NewReader(bytes.NewReader(badFrame)).Read(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestClientAddrStability(t *testing.T) {
	a1 := ClientAddr(1234)
	a2 := ClientAddr(1234)
	if a1 != a2 {
		t.Error("ClientAddr must be deterministic")
	}
	if ClientAddr(1) == ClientAddr(2) {
		t.Error("distinct clients should get distinct addresses")
	}
	if a1 == DefaultServerAddr {
		t.Error("client address collides with server")
	}
	// Never produce .0 or .255 host bytes.
	for id := uint32(0); id < 1000; id++ {
		a := ClientAddr(id).As4()
		if a[3] == 0 || a[3] == 255 {
			t.Fatalf("id %d produced %v", id, ClientAddr(id))
		}
	}
}

func TestPCAPRoundTrip(t *testing.T) {
	recs := []Record{
		{T: 0, Dir: In, Client: 7, App: 40},
		{T: 10 * time.Millisecond, Dir: Out, Client: 7, App: 130},
		{T: 20 * time.Millisecond, Dir: In, Client: 9, App: 45},
	}
	var buf bytes.Buffer
	pw := NewPCAPWriter(&buf, time.Date(2002, 4, 11, 8, 55, 4, 0, time.UTC))
	for _, r := range recs {
		if err := pw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	var got Collect
	n, skipped, err := ReadPCAP(&buf, DefaultServerAddr, DefaultServerPort, &got)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || skipped != 0 {
		t.Fatalf("n=%d skipped=%d", n, skipped)
	}
	for i, r := range got.Records {
		if r.T != recs[i].T || r.Dir != recs[i].Dir || r.App != recs[i].App {
			t.Errorf("record %d: got %+v, want %+v", i, r, recs[i])
		}
	}
	// Same original client -> same reassigned id; different -> different.
	if got.Records[0].Client != got.Records[1].Client {
		t.Error("same endpoint should map to same client id")
	}
	if got.Records[0].Client == got.Records[2].Client {
		t.Error("different endpoints should map to different ids")
	}
}

func TestReadPCAPSkipsTCP(t *testing.T) {
	// A TCP frame addressed at the server must be counted as skipped, not
	// misparsed as a game record. It is a UDP frame to the server port
	// with the IPv4 protocol set to TCP (6) and the header checksum redone.
	var s packet.Serializer
	eth := &packet.Ethernet{}
	ip := &packet.IPv4{
		TTL: 64,
		Src: ClientAddr(1), Dst: DefaultServerAddr,
	}
	udp := &packet.UDP{SrcPort: 1234, DstPort: DefaultServerPort}
	frame, err := s.Frame(eth, ip, udp, make([]byte, 20))
	if err != nil {
		t.Fatal(err)
	}
	hdr := frame[eth.HeaderLen() : eth.HeaderLen()+ip.HeaderLen()]
	hdr[9] = 6
	hdr[10], hdr[11] = 0, 0
	binary.BigEndian.PutUint16(hdr[10:12], packet.Checksum(hdr))
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, pcap.LinkTypeEthernet, 65535)
	ci := pcap.CaptureInfo{
		Timestamp:     time.Unix(0, 0),
		CaptureLength: len(frame),
		Length:        len(frame),
	}
	if err := w.WritePacket(ci, frame); err != nil {
		t.Fatal(err)
	}
	var got Collect
	n, skipped, err := ReadPCAP(&buf, DefaultServerAddr, DefaultServerPort, &got)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || skipped != 1 {
		t.Errorf("n=%d skipped=%d, want 0/1", n, skipped)
	}
}
