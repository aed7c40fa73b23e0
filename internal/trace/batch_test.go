package trace

import (
	"errors"
	"testing"
	"time"
)

// testStream builds a deterministic stream with the generator's disorder
// profile: mostly increasing timestamps with bounded interleaving, mixed
// directions, kinds and clients.
func testStream(n int) []Record {
	recs := make([]Record, 0, n)
	state := uint64(0x1234_5678_9abc_def0)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	t := time.Duration(0)
	for i := 0; i < n; i++ {
		t += time.Duration(next() % 2_000_000)       // 0-2 ms forward progress
		jitter := time.Duration(next() % 40_000_000) // up to 40 ms back
		rt := t - jitter
		if rt < 0 {
			rt = 0
		}
		recs = append(recs, Record{
			T:      rt,
			Dir:    Direction(next() % 2),
			Kind:   Kind(next() % 6),
			Client: uint32(next() % 30),
			App:    uint16(next() % 1400),
		})
	}
	return recs
}

// feedRecords drives h one record at a time.
func feedRecords(h Handler, recs []Record) {
	for _, r := range recs {
		h.Handle(r)
	}
}

// feedBlocks drives h through the batch path in uneven block sizes, so
// boundaries never align with internal buffers.
func feedBlocks(h Handler, recs []Record) {
	sizes := []int{1, 7, 64, 512, BlockSize, 3}
	i, k := 0, 0
	for i < len(recs) {
		n := sizes[k%len(sizes)]
		k++
		if i+n > len(recs) {
			n = len(recs) - i
		}
		Dispatch(h, recs[i:i+n])
		i += n
	}
}

func equalStreams(t *testing.T, name string, want, got []Record) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: record path produced %d records, batch path %d", name, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: records diverge at %d: %+v vs %+v", name, i, want[i], got[i])
		}
	}
}

// TestBatchGoldenTee: Tee delivers identical streams to every downstream on
// both paths.
func TestBatchGoldenTee(t *testing.T) {
	recs := testStream(20_000)
	var a1, a2, b1, b2 Collect
	feedRecords(Tee(&a1, &a2), recs)
	feedBlocks(Tee(&b1, &b2), recs)
	equalStreams(t, "tee[0]", a1.Records, b1.Records)
	equalStreams(t, "tee[1]", a2.Records, b2.Records)
}

// TestBatchGoldenSortBuffer: a per-record feed and a block feed release the
// same totally ordered stream, including tie order.
func TestBatchGoldenSortBuffer(t *testing.T) {
	recs := testStream(20_000)
	var a, b Collect
	sa := NewSortBuffer(50*time.Millisecond, &a)
	feedRecords(sa, recs)
	sa.Flush()
	sb := NewSortBuffer(50*time.Millisecond, &b)
	feedBlocks(sb, recs)
	sb.Flush()
	equalStreams(t, "sortbuffer", a.Records, b.Records)
	for i := 1; i < len(b.Records); i++ {
		if b.Records[i].T < b.Records[i-1].T {
			t.Fatalf("sortbuffer output out of order at %d", i)
		}
	}
}

// TestSortBufferMixedFeeds interleaves the per-record and batch entry
// points; the released stream must still match the pure per-record feed
// (both are the (T, arrival) total order of the input).
func TestSortBufferMixedFeeds(t *testing.T) {
	recs := testStream(20_000)
	var a, b Collect
	sa := NewSortBuffer(50*time.Millisecond, &a)
	feedRecords(sa, recs)
	sa.Flush()

	sb := NewSortBuffer(50*time.Millisecond, &b)
	for i := 0; i < len(recs); {
		n := 257 // batch chunk
		if i/257%2 == 1 {
			n = 91 // record-at-a-time chunk
		}
		if i+n > len(recs) {
			n = len(recs) - i
		}
		chunk := recs[i : i+n]
		if i/257%2 == 1 {
			feedRecords(sb, chunk)
		} else {
			sb.HandleBatch(chunk)
		}
		i += n
	}
	sb.Flush()
	equalStreams(t, "mixed", a.Records, b.Records)
}

// TestBatchGoldenComposite runs the stream through the full stage stack
// (sort → tee) on both paths.
func TestBatchGoldenComposite(t *testing.T) {
	recs := testStream(20_000)
	var a, b Collect
	sa := NewSortBuffer(50*time.Millisecond, Tee(&a))
	feedRecords(sa, recs)
	sa.Flush()
	sb := NewSortBuffer(50*time.Millisecond, Tee(&b))
	feedBlocks(sb, recs)
	sb.Flush()
	equalStreams(t, "composite", a.Records, b.Records)
}

// TestBatcherBridges verifies the per-record → block bridge preserves order
// across interleaved Handle and HandleBatch calls.
func TestBatcherBridges(t *testing.T) {
	recs := testStream(10_000)
	var got Collect
	ba := NewBatcher(&got)
	for i, r := range recs {
		if i%97 == 0 && i+5 <= len(recs) {
			ba.HandleBatch(recs[i : i+5])
		}
		ba.Handle(r)
	}
	ba.Flush()
	// Order within the mixed feed is deterministic; replay it to build the
	// expected stream.
	var want Collect
	for i, r := range recs {
		if i%97 == 0 && i+5 <= len(recs) {
			want.HandleBatch(recs[i : i+5])
		}
		want.Handle(r)
	}
	equalStreams(t, "batcher", want.Records, got.Records)
}

type failWriter struct{ n, failAt int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n += len(p)
	if f.n > f.failAt {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// TestWriterLatchesErrors: the Handler paths latch the first error and both
// Err and Flush surface it, instead of silently discarding records.
func TestWriterLatchesErrors(t *testing.T) {
	fw := &failWriter{failAt: 64}
	w := NewWriter(fw)
	recs := testStream(100_000) // enough to overflow the 64 KiB bufio buffer
	sb := NewSortBuffer(50*time.Millisecond, w)
	feedBlocks(sb, recs)
	sb.Flush()
	if w.Err() == nil {
		t.Fatal("Err() = nil after downstream write failure")
	}
	if err := w.Flush(); err == nil {
		t.Fatal("Flush() = nil after downstream write failure")
	}

	// The per-record Handle path latches too.
	fw2 := &failWriter{failAt: 64}
	w2 := NewWriter(fw2)
	for _, r := range recs {
		w2.Handle(r)
	}
	if w2.Err() == nil || w2.Flush() == nil {
		t.Fatal("per-record path did not latch the write failure")
	}
}

// TestBlockPoolRoundTrip: NewBlock hands back cleared slabs.
func TestBlockPoolRoundTrip(t *testing.T) {
	b := NewBlock()
	*b = append(*b, Record{App: 1})
	FreeBlock(b)
	b2 := NewBlock()
	if len(*b2) != 0 {
		t.Fatalf("pooled block not cleared: len %d", len(*b2))
	}
	if cap(*b2) < BlockSize {
		t.Fatalf("pooled block cap %d < BlockSize", cap(*b2))
	}
	FreeBlock(b2)
}
