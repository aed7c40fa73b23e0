package trace_test

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"cstrace/internal/trace"
)

// ExampleWriter writes a few records in format v4 and inspects the segment
// index the Flush sealed into the file. SegmentPayload is shrunk so even
// this tiny stream spans several independently-decodable segments; real
// traces keep the 256 KiB default. (Segments this small never shrink under
// flate, so they are stored raw — see Example_compressedTrace for the
// compression path.)
func ExampleWriter() {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	w.SegmentPayload = 16 // absurdly small: force a segment every few records
	for i := 0; i < 10; i++ {
		if err := w.Write(trace.Record{
			T:      time.Duration(i) * 50 * time.Millisecond,
			Dir:    trace.Out,
			Kind:   trace.KindGame,
			Client: 7,
			App:    130,
		}); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil { // seals segments, index and footer
		log.Fatal(err)
	}

	ix, err := trace.ReadIndex(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d records in %d segments\n", ix.Records, len(ix.Segments))
	fmt.Printf("first segment spans %v .. %v\n", ix.Segments[0].MinT, ix.Segments[0].MaxT)
	// Output:
	// 10 records in 5 segments
	// first segment spans 0s .. 100ms
}

// ExampleReader decodes a trace with the read engine: indexed segments fan
// out across worker goroutines and deliver in file order, so the delivered
// stream is identical to a serial ReadAll. A non-seekable source is read by
// scanning its frames instead, and a v1 trace record by record.
func ExampleReader() {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for i := 0; i < 3; i++ {
		if err := w.Write(trace.Record{
			T:   time.Duration(i) * 50 * time.Millisecond,
			Dir: trace.Out, Kind: trace.KindGame, Client: 7, App: 130,
		}); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}

	var got trace.Collect
	rd := trace.NewReader(bytes.NewReader(buf.Bytes()))
	n, err := rd.ReadAllSharded(&got, 4)
	if err != nil {
		log.Fatal(err)
	}
	last := got.Records[n-1]
	fmt.Printf("decoded %d records from a v%d trace\n", n, rd.Version())
	fmt.Printf("last: T=%v dir=%v app=%dB\n", last.T, last.Dir, last.App)
	// Output:
	// decoded 3 records from a v4 trace
	// last: T=100ms dir=out app=130B
}

// Example_compressedTrace writes a v4 trace whose segments are large enough
// for the default per-segment flate compression to engage, then reads it
// back and inspects the on-disk savings through the index. Game traffic
// compresses well: the flags, client and size columns repeat the same few
// values over and over (the timestamp-delta column stays literal — the
// writer keeps the decode path's hot column inflate-free).
func Example_compressedTrace() {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf) // v4: per-segment compression on by default
	w.SegmentPayload = 1 << 12 // small segments so the example spans several
	// w.CompressLevel = 9 would trade write CPU for the smallest file;
	// trace.CompressOff would store every segment raw.
	for i := 0; i < 20000; i++ {
		if err := w.Write(trace.Record{
			T:      time.Duration(i) * 5 * time.Millisecond,
			Dir:    trace.Direction(i % 2),
			Kind:   trace.KindGame,
			Client: uint32(i % 22),
			App:    [2]uint16{40, 130}[i%2],
		}); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}

	ix, err := trace.ReadIndex(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("all %d segments compressed: %v\n",
		len(ix.Segments), ix.CompressedSegments() == len(ix.Segments))
	fmt.Printf("on disk smaller than raw: %v\n", ix.PayloadBytes() < ix.RawBytes())

	var got trace.Collect
	rd := trace.NewReader(bytes.NewReader(buf.Bytes()))
	n, err := rd.ReadAllSharded(&got, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read back %d records from a v%d trace\n", n, rd.Version())
	// Output:
	// all 37 segments compressed: true
	// on disk smaller than raw: true
	// read back 20000 records from a v4 trace
}
