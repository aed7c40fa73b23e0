package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
	"time"

	"cstrace/internal/pcap"
)

// pcapAllocBound is FuzzReadPCAP's allocation budget for reading n input
// bytes: a constant for the reader's fixed state — one record block, one
// capture buffer of up to libpcap's 256 KiB maximum snap length — plus a
// multiple of the input for what grows with it (block bodies, the client
// map).
func pcapAllocBound(n int) uint64 { return 1<<20 + 64*uint64(n) }

// countFrames reads data with the capture reader alone and returns how many
// frames it yields before the first error.
func countFrames(data []byte) int64 {
	pr, err := pcap.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0
	}
	var n int64
	for {
		if _, _, err := pr.ReadPacket(); err != nil {
			return n
		}
		n++
	}
}

// bigEndianMicro rewrites a capture in the variant the writer never emits:
// big-endian, microsecond timestamps (magic 0xa1b2c3d4), as older tools on
// big-endian hosts wrote it.
func bigEndianMicro(tb testing.TB, raw []byte) []byte {
	pr, err := pcap.NewReader(bytes.NewReader(raw))
	if err != nil {
		tb.Fatal(err)
	}
	hdr := pr.Header()
	be := binary.BigEndian
	out := be.AppendUint32(nil, pcap.MagicMicroseconds)
	out = be.AppendUint16(out, hdr.VersionMajor)
	out = be.AppendUint16(out, hdr.VersionMinor)
	out = append(out, make([]byte, 8)...) // thiszone, sigfigs
	out = be.AppendUint32(out, hdr.SnapLen)
	out = be.AppendUint32(out, hdr.LinkType)
	for {
		ci, data, err := pr.ReadPacket()
		if err == io.EOF {
			return out
		}
		if err != nil {
			tb.Fatal(err)
		}
		out = be.AppendUint32(out, uint32(ci.Timestamp.Unix()))
		out = be.AppendUint32(out, uint32(ci.Timestamp.Nanosecond()/1000))
		out = be.AppendUint32(out, uint32(ci.CaptureLength))
		out = be.AppendUint32(out, uint32(ci.Length))
		out = append(out, data...)
	}
}

// FuzzReadPCAP feeds arbitrary bytes — seeded with a short exported trace,
// the same capture as big-endian microseconds, and their prefixes — to
// ReadPCAP. It may not panic, every record or skip must stand for a frame
// the capture reader yields, and what a read allocates is bounded by
// pcapAllocBound of the input size, however large the lengths the input
// claims.
func FuzzReadPCAP(f *testing.F) {
	var buf bytes.Buffer
	pw := NewPCAPWriter(&buf, time.Date(2002, 4, 11, 8, 55, 4, 0, time.UTC))
	for i := range 6 {
		r := Record{T: time.Duration(i) * 7 * time.Millisecond, Dir: Direction(i & 1), Client: uint32(i%3 + 1), App: uint16(30 + 40*i)}
		if err := pw.Write(r); err != nil {
			f.Fatal(err)
		}
	}
	for _, raw := range [][]byte{buf.Bytes(), bigEndianMicro(f, buf.Bytes())} {
		if n, skipped, err := ReadPCAP(bytes.NewReader(raw), DefaultServerAddr, DefaultServerPort, HandlerFunc(func(Record) {})); n != 6 || skipped != 0 || err != nil {
			f.Fatalf("seed capture reads back %d records, %d skipped, err %v; want 6, 0, nil", n, skipped, err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		f.Add(raw[:30])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var delivered int64
		h := HandlerFunc(func(Record) { delivered++ })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		records, skipped, _ := ReadPCAP(bytes.NewReader(data), DefaultServerAddr, DefaultServerPort, h)
		runtime.ReadMemStats(&after)
		if delivered != records {
			t.Fatalf("%d records reported, %d delivered", records, delivered)
		}
		if frames := countFrames(data); records+skipped > frames {
			t.Fatalf("%d records + %d skipped from %d frames", records, skipped, frames)
		}
		if n, bound := after.TotalAlloc-before.TotalAlloc, pcapAllocBound(len(data)); n > bound {
			t.Fatalf("reading %d bytes allocated %d (bound %d)", len(data), n, bound)
		}
	})
}
