package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/quick"
	"time"
)

func writeNgCapture(t *testing.T, packets [][]byte, times []time.Time) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewNgWriter(&buf, LinkTypeEthernet, 65535)
	for i, p := range packets {
		ci := CaptureInfo{Timestamp: times[i], CaptureLength: len(p), Length: len(p)}
		if err := w.WritePacket(ci, p); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestNgRoundTrip(t *testing.T) {
	base := time.Date(2002, 4, 11, 8, 55, 4, 123456789, time.UTC)
	packets := [][]byte{
		[]byte("first packet"),
		[]byte("x"),                  // 1 byte: exercises padding
		bytes.Repeat([]byte{7}, 101), // odd length > 4-byte pad
	}
	times := []time.Time{base, base.Add(50 * time.Millisecond), base.Add(time.Second)}
	raw := writeNgCapture(t, packets, times)

	r, err := NewNgReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range packets {
		ci, data, err := r.ReadPacket()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("packet %d data = %q, want %q", i, data, want)
		}
		if !ci.Timestamp.Equal(times[i]) {
			t.Errorf("packet %d ts = %v, want %v", i, ci.Timestamp, times[i])
		}
		if ci.Length != len(want) || ci.CaptureLength != len(want) {
			t.Errorf("packet %d lengths = %d/%d", i, ci.CaptureLength, ci.Length)
		}
	}
	if _, _, err := r.ReadPacket(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
	if r.LinkType() != LinkTypeEthernet {
		t.Errorf("LinkType = %d", r.LinkType())
	}
	if r.Interfaces() != 1 {
		t.Errorf("Interfaces = %d", r.Interfaces())
	}
}

func TestNgRejectsClassicPcap(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeEthernet, 65535)
	ci := CaptureInfo{Timestamp: time.Unix(1, 0), CaptureLength: 2, Length: 2}
	if err := w.WritePacket(ci, []byte("ab")); err != nil {
		t.Fatal(err)
	}
	if _, err := NewNgReader(bytes.NewReader(buf.Bytes())); err != ErrNgBadMagic {
		t.Errorf("err = %v, want ErrNgBadMagic", err)
	}
}

func TestNgTruncatedFile(t *testing.T) {
	raw := writeNgCapture(t, [][]byte{[]byte("hello world")},
		[]time.Time{time.Unix(100, 0)})
	// Chop the file at several points; every prefix must fail cleanly
	// (ErrTruncated or ErrNgBadMagic), never panic or succeed.
	for cut := 1; cut < len(raw); cut += 7 {
		r, err := NewNgReader(bytes.NewReader(raw[:cut]))
		if err != nil {
			continue // truncated inside the SHB
		}
		for {
			_, _, err = r.ReadPacket()
			if err != nil {
				break
			}
		}
		if err == io.EOF && cut < len(raw) {
			// EOF is acceptable only at block boundaries.
			if (len(raw)-cut)%4 != 0 {
				t.Errorf("cut=%d: clean EOF inside a block", cut)
			}
		}
	}
}

func TestNgBadTrailingLength(t *testing.T) {
	raw := writeNgCapture(t, [][]byte{[]byte("abcd")}, []time.Time{time.Unix(1, 0)})
	// Corrupt the trailing length of the last block (last 4 bytes).
	raw[len(raw)-1] ^= 0xff
	r, err := NewNgReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = r.ReadPacket()
	if err != ErrNgBadBlockLen {
		t.Errorf("err = %v, want ErrNgBadBlockLen", err)
	}
}

func TestNgUnknownInterface(t *testing.T) {
	raw := writeNgCapture(t, [][]byte{[]byte("abcd")}, []time.Time{time.Unix(1, 0)})
	// The EPB is the last block: find it and bump its interface ID.
	// Block layout from the end: [... EPB ...]; EPB body starts 8 bytes
	// after its header. Easier: scan for the EPB type code.
	for i := 0; i+4 <= len(raw); i += 4 {
		if binary.LittleEndian.Uint32(raw[i:i+4]) == blockEPB {
			binary.LittleEndian.PutUint32(raw[i+8:i+12], 5) // interface 5
			break
		}
	}
	r, err := NewNgReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ReadPacket(); err != ErrNgNoInterface {
		t.Errorf("err = %v, want ErrNgNoInterface", err)
	}
}

func TestNgSkipsUnknownBlocks(t *testing.T) {
	base := time.Unix(50, 0)
	raw := writeNgCapture(t, [][]byte{[]byte("payload")}, []time.Time{base})

	// Splice an unknown block (type 0x0bad) between IDB and EPB. Find the
	// EPB offset first.
	epbOff := -1
	for i := 0; i+4 <= len(raw); i += 4 {
		if binary.LittleEndian.Uint32(raw[i:i+4]) == blockEPB {
			epbOff = i
			break
		}
	}
	if epbOff < 0 {
		t.Fatal("no EPB found")
	}
	unknown := make([]byte, 16)
	binary.LittleEndian.PutUint32(unknown[0:4], 0x0bad)
	binary.LittleEndian.PutUint32(unknown[4:8], 16)
	binary.LittleEndian.PutUint32(unknown[12:16], 16)
	spliced := append(append(append([]byte{}, raw[:epbOff]...), unknown...), raw[epbOff:]...)

	r, err := NewNgReader(bytes.NewReader(spliced))
	if err != nil {
		t.Fatal(err)
	}
	ci, data, err := r.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "payload" || !ci.Timestamp.Equal(base) {
		t.Errorf("got %q @ %v", data, ci.Timestamp)
	}
}

func TestNgBigEndianSection(t *testing.T) {
	// Hand-build a big-endian section: SHB + IDB (µs resolution, no
	// options) + one EPB.
	var buf bytes.Buffer
	be := binary.BigEndian
	writeBlock := func(typ uint32, body []byte) {
		total := uint32(12 + len(body))
		var b [8]byte
		be.PutUint32(b[0:4], typ)
		be.PutUint32(b[4:8], total)
		buf.Write(b[:])
		buf.Write(body)
		var tail [4]byte
		be.PutUint32(tail[:], total)
		buf.Write(tail[:])
	}
	shb := make([]byte, 16)
	be.PutUint32(shb[0:4], byteOrderMagic)
	be.PutUint16(shb[4:6], 1)
	be.PutUint64(shb[8:16], ^uint64(0))
	writeBlock(blockSHB, shb)

	idb := make([]byte, 8)
	be.PutUint16(idb[0:2], uint16(LinkTypeEthernet))
	be.PutUint32(idb[4:8], 65535)
	writeBlock(blockIDB, idb)

	payload := []byte("bigend")
	ts := uint64(1018515304) * 1_000_000 // seconds → µs ticks
	epb := make([]byte, 20+8)            // 6 bytes payload + 2 pad
	be.PutUint32(epb[0:4], 0)
	be.PutUint32(epb[4:8], uint32(ts>>32))
	be.PutUint32(epb[8:12], uint32(ts))
	be.PutUint32(epb[12:16], uint32(len(payload)))
	be.PutUint32(epb[16:20], uint32(len(payload)))
	copy(epb[20:], payload)
	writeBlock(blockEPB, epb)

	r, err := NewNgReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ci, data, err := r.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, payload) {
		t.Errorf("data = %q", data)
	}
	want := time.Unix(1018515304, 0).UTC()
	if !ci.Timestamp.Equal(want) {
		t.Errorf("ts = %v, want %v", ci.Timestamp, want)
	}
}

func TestNgPowerOfTwoResolution(t *testing.T) {
	// IDB with if_tsresol = 0x83 (2^-8 ticks): 256 ticks per second.
	var buf bytes.Buffer
	le := binary.LittleEndian
	writeBlock := func(typ uint32, body []byte) {
		total := uint32(12 + len(body))
		var b [8]byte
		le.PutUint32(b[0:4], typ)
		le.PutUint32(b[4:8], total)
		buf.Write(b[:])
		buf.Write(body)
		var tail [4]byte
		le.PutUint32(tail[:], total)
		buf.Write(tail[:])
	}
	shb := make([]byte, 16)
	le.PutUint32(shb[0:4], byteOrderMagic)
	le.PutUint16(shb[4:6], 1)
	writeBlock(blockSHB, shb)

	idb := make([]byte, 8+8+4)
	le.PutUint16(idb[0:2], uint16(LinkTypeEthernet))
	le.PutUint32(idb[4:8], 65535)
	le.PutUint16(idb[8:10], optIfTsResol)
	le.PutUint16(idb[10:12], 1)
	idb[12] = 0x88 // 2^-8
	writeBlock(blockIDB, idb)

	payload := []byte("pow2")
	ticks := uint64(10*256 + 128) // 10.5 s
	epb := make([]byte, 20+4)
	le.PutUint32(epb[4:8], uint32(ticks>>32))
	le.PutUint32(epb[8:12], uint32(ticks))
	le.PutUint32(epb[12:16], uint32(len(payload)))
	le.PutUint32(epb[16:20], uint32(len(payload)))
	copy(epb[20:], payload)
	writeBlock(blockEPB, epb)

	r, err := NewNgReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ci, _, err := r.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	want := time.Unix(10, 500_000_000).UTC()
	if !ci.Timestamp.Equal(want) {
		t.Errorf("ts = %v, want %v", ci.Timestamp, want)
	}
}

func TestNgMultiSection(t *testing.T) {
	// Two concatenated single-packet captures must both be readable.
	a := writeNgCapture(t, [][]byte{[]byte("sec1")}, []time.Time{time.Unix(1, 0)})
	b := writeNgCapture(t, [][]byte{[]byte("sec2")}, []time.Time{time.Unix(2, 0)})
	r, err := NewNgReader(bytes.NewReader(append(a, b...)))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sec1", "sec2"} {
		_, data, err := r.ReadPacket()
		if err != nil {
			t.Fatalf("%s: %v", want, err)
		}
		if string(data) != want {
			t.Errorf("data = %q, want %q", data, want)
		}
	}
	if _, _, err := r.ReadPacket(); err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
}

func TestReadersNeverPanicOnRandomBytes(t *testing.T) {
	// Both file-format readers must reject arbitrary input with errors,
	// never panic — they are fed files straight from disk.
	f := func(data []byte) bool {
		if r, err := NewReader(bytes.NewReader(data)); err == nil {
			for i := 0; i < 10; i++ {
				if _, _, err := r.ReadPacket(); err != nil {
					break
				}
			}
		}
		if r, err := NewNgReader(bytes.NewReader(data)); err == nil {
			for i := 0; i < 10; i++ {
				if _, _, err := r.ReadPacket(); err != nil {
					break
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestNgBlockLengthBoundsAllocation: a block length under maxBlockLen but
// past the end of the stream costs about the bytes actually there, not the
// length claimed.
func TestNgBlockLengthBoundsAllocation(t *testing.T) {
	raw := writeNgCapture(t, [][]byte{[]byte("abcd")}, []time.Time{time.Unix(1, 0)})
	r, err := NewNgReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	// Append a block header claiming just under maxBlockLen, then 32 bytes.
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], blockEPB)
	binary.LittleEndian.PutUint32(hdr[4:], maxBlockLen-4)
	r.r = io.MultiReader(r.r, bytes.NewReader(hdr[:]), bytes.NewReader(make([]byte, 32)))
	var rerr error
	n := allocDuring(func() {
		for rerr == nil {
			_, _, rerr = r.ReadPacket()
		}
	})
	if rerr != ErrTruncated {
		t.Errorf("err = %v, want ErrTruncated", rerr)
	}
	if n >= 1<<20 {
		t.Errorf("a truncated %d-byte block allocated %d bytes", maxBlockLen-4, n)
	}
}
