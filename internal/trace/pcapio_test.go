package trace

import (
	"bytes"
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
func countFrames(data []byte, ng bool) int64 {
	var fr frameReader
	var err error
	if ng {
		fr, err = pcap.NewNgReader(bytes.NewReader(data))
	} else {
		fr, err = pcap.NewReader(bytes.NewReader(data))
	}
	if err != nil {
		return 0
	}
	var n int64
	for {
		if _, _, err := fr.ReadPacket(); err != nil {
			return n
		}
		n++
	}
}

// FuzzReadPCAP feeds arbitrary bytes — seeded with a short exported trace in
// both capture formats and their prefixes — to ReadPCAP and ReadPCAPNG.
// Neither may panic, every record or skip must stand for a frame the capture
// reader yields, and what a read allocates is bounded by pcapAllocBound of
// the input size, however large the lengths the input claims.
func FuzzReadPCAP(f *testing.F) {
	start := time.Date(2002, 4, 11, 8, 55, 4, 0, time.UTC)
	for _, newWriter := range []func(io.Writer, time.Time) *PCAPWriter{NewPCAPWriter, NewPCAPNGWriter} {
		var buf bytes.Buffer
		pw := newWriter(&buf, start)
		for i := range 6 {
			r := Record{T: time.Duration(i) * 7 * time.Millisecond, Dir: Direction(i & 1), Client: uint32(i%3 + 1), App: uint16(30 + 40*i)}
			if err := pw.Write(r); err != nil {
				f.Fatal(err)
			}
		}
		raw := buf.Bytes()
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		f.Add(raw[:30])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, ng := range []bool{false, true} {
			read := ReadPCAP
			if ng {
				read = ReadPCAPNG
			}
			var delivered int64
			h := HandlerFunc(func(Record) { delivered++ })
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			records, skipped, _ := read(bytes.NewReader(data), DefaultServerAddr, DefaultServerPort, h)
			runtime.ReadMemStats(&after)
			if delivered != records {
				t.Fatalf("pcapng %v: %d records reported, %d delivered", ng, records, delivered)
			}
			if frames := countFrames(data, ng); records+skipped > frames {
				t.Fatalf("pcapng %v: %d records + %d skipped from %d frames", ng, records, skipped, frames)
			}
			if n, bound := after.TotalAlloc-before.TotalAlloc, pcapAllocBound(len(data)); n > bound {
				t.Fatalf("pcapng %v: reading %d bytes allocated %d (bound %d)", ng, len(data), n, bound)
			}
		}
	})
}
