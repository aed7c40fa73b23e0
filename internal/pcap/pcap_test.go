package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeEthernet, 65535)
	packets := [][]byte{
		[]byte("first packet"),
		[]byte("second"),
		{},
		bytes.Repeat([]byte{0xab}, 1500),
	}
	base := time.Date(2002, 4, 11, 8, 55, 4, 123456789, time.UTC)
	for i, p := range packets {
		ci := CaptureInfo{
			Timestamp:     base.Add(time.Duration(i) * 50 * time.Millisecond),
			CaptureLength: len(p),
			Length:        len(p),
		}
		if err := w.WritePacket(ci, p); err != nil {
			t.Fatal(err)
		}
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header().LinkType != LinkTypeEthernet {
		t.Errorf("link type = %d", r.Header().LinkType)
	}
	if !r.Header().Nanosecond {
		t.Error("writer should emit nanosecond format")
	}
	for i, want := range packets {
		ci, data, err := r.ReadPacket()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("packet %d data mismatch", i)
		}
		wantT := base.Add(time.Duration(i) * 50 * time.Millisecond)
		if !ci.Timestamp.Equal(wantT) {
			t.Errorf("packet %d timestamp = %v, want %v", i, ci.Timestamp, wantT)
		}
		if ci.Length != len(want) || ci.CaptureLength != len(want) {
			t.Errorf("packet %d lengths = %d/%d", i, ci.CaptureLength, ci.Length)
		}
	}
	if _, _, err := r.ReadPacket(); err != io.EOF {
		t.Errorf("want io.EOF at end, got %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte, secs uint32, nanos uint32) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf, LinkTypeEthernet, 65535)
		if err := w.WriteHeader(); err != nil {
			return false
		}
		ts := time.Unix(int64(secs), int64(nanos%1e9)).UTC()
		kept := make([][]byte, 0, len(payloads))
		for _, p := range payloads {
			if len(p) > 65535 {
				continue
			}
			kept = append(kept, p)
			ci := CaptureInfo{Timestamp: ts, CaptureLength: len(p), Length: len(p)}
			if err := w.WritePacket(ci, p); err != nil {
				return false
			}
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for _, want := range kept {
			ci, data, err := r.ReadPacket()
			if err != nil || !bytes.Equal(data, want) || !ci.Timestamp.Equal(ts) {
				return false
			}
		}
		_, _, err = r.ReadPacket()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMicrosecondVariant(t *testing.T) {
	// Hand-build a microsecond, big-endian file with one packet.
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.BigEndian.PutUint32(hdr[0:4], MagicMicroseconds)
	binary.BigEndian.PutUint16(hdr[4:6], 2)
	binary.BigEndian.PutUint16(hdr[6:8], 4)
	binary.BigEndian.PutUint32(hdr[16:20], 65535)
	binary.BigEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.BigEndian.PutUint32(rec[0:4], 1018515304) // 2002-04-11 08:55:04 UTC
	binary.BigEndian.PutUint32(rec[4:8], 500000)     // 0.5 s in µs
	binary.BigEndian.PutUint32(rec[8:12], 3)
	binary.BigEndian.PutUint32(rec[12:16], 80)
	buf.Write(rec)
	buf.Write([]byte{1, 2, 3})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header().Nanosecond {
		t.Error("should be microsecond variant")
	}
	ci, data, err := r.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if ci.Timestamp.Nanosecond() != 500000000 {
		t.Errorf("sub-second = %d", ci.Timestamp.Nanosecond())
	}
	if ci.Length != 80 || ci.CaptureLength != 3 || len(data) != 3 {
		t.Errorf("ci = %+v", ci)
	}
}

func TestBadMagic(t *testing.T) {
	buf := bytes.NewReader(make([]byte, 24))
	if _, err := NewReader(buf); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedHeader(t *testing.T) {
	buf := bytes.NewReader([]byte{1, 2, 3})
	if _, err := NewReader(buf); err != ErrTruncated {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestTruncatedPacketBody(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeEthernet, 65535)
	ci := CaptureInfo{Timestamp: time.Now(), CaptureLength: 10, Length: 10}
	if err := w.WritePacket(ci, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	r, err := NewReader(bytes.NewReader(full[:len(full)-5]))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ReadPacket(); err != ErrTruncated {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestWriteValidation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeEthernet, 100)
	ci := CaptureInfo{Timestamp: time.Now(), CaptureLength: 5, Length: 5}
	if err := w.WritePacket(ci, make([]byte, 6)); err == nil {
		t.Error("want error for mismatched capture length")
	}
	big := CaptureInfo{Timestamp: time.Now(), CaptureLength: 200, Length: 200}
	if err := w.WritePacket(big, make([]byte, 200)); err != ErrSnapLen {
		t.Errorf("err = %v, want ErrSnapLen", err)
	}
}

func TestUnsupportedVersion(t *testing.T) {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], MagicMicroseconds)
	binary.LittleEndian.PutUint16(hdr[4:6], 3) // future major version
	if _, err := NewReader(bytes.NewReader(hdr)); err != ErrBadVersion {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

// allocDuring returns how many heap bytes f allocates.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadPacketBoundsCaptureLength: a record header's capture length sizes
// an allocation before any packet byte is read, so it is checked against
// libpcap's maximum snap length whatever the file header's SnapLen says —
// a 40-byte file cannot make the reader allocate what it claims.
func TestReadPacketBoundsCaptureLength(t *testing.T) {
	for _, snap := range []uint32{0, 1<<32 - 1} {
		var b [40]byte
		binary.LittleEndian.PutUint32(b[0:], MagicMicroseconds)
		binary.LittleEndian.PutUint16(b[4:], 2)
		binary.LittleEndian.PutUint16(b[6:], 4)
		binary.LittleEndian.PutUint32(b[16:], snap)
		binary.LittleEndian.PutUint32(b[20:], LinkTypeEthernet)
		binary.LittleEndian.PutUint32(b[32:], 64<<20) // capture length
		binary.LittleEndian.PutUint32(b[36:], 64<<20) // wire length
		r, err := NewReader(bytes.NewReader(b[:]))
		if err != nil {
			t.Fatal(err)
		}
		var rerr error
		if n := allocDuring(func() { _, _, rerr = r.ReadPacket() }); n >= 1<<20 {
			t.Errorf("SnapLen %d: reading one record header allocated %d bytes", snap, n)
		}
		if rerr != ErrSnapLen {
			t.Errorf("SnapLen %d: err = %v, want ErrSnapLen", snap, rerr)
		}
	}
}

// TestReadersNeverPanicOnRandomBytes: the file reader must reject arbitrary
// input with errors, never panic — it is fed files straight from disk.
func TestReadersNeverPanicOnRandomBytes(t *testing.T) {
	f := func(data []byte) bool {
		if r, err := NewReader(bytes.NewReader(data)); err == nil {
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
