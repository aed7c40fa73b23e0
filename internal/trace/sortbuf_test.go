package trace

import (
	"bytes"
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestSortBufferRestoresOrder(t *testing.T) {
	var out Collect
	sb := NewSortBuffer(50*time.Millisecond, &out)
	// Two interleaved streams with bounded disorder.
	in := []time.Duration{0, 30, 10, 40, 20, 70, 50, 90, 60, 100}
	for _, ms := range in {
		sb.Handle(Record{T: ms * time.Millisecond, App: uint16(ms)})
	}
	sb.Flush()
	if len(out.Records) != len(in) {
		t.Fatalf("got %d records", len(out.Records))
	}
	for i := 1; i < len(out.Records); i++ {
		if out.Records[i].T < out.Records[i-1].T {
			t.Fatalf("order violated at %d: %v", i, out.Records)
		}
	}
}

func TestSortBufferStableOnTies(t *testing.T) {
	var out Collect
	sb := NewSortBuffer(time.Millisecond, &out)
	for i := 0; i < 5; i++ {
		sb.Handle(Record{T: time.Second, Client: uint32(i)})
	}
	sb.Flush()
	for i, r := range out.Records {
		if r.Client != uint32(i) {
			t.Fatalf("tie order not stable: %v", out.Records)
		}
	}
}

func TestSortBufferReleasesEagerly(t *testing.T) {
	var out Collect
	sb := NewSortBuffer(10*time.Millisecond, &out)
	sb.Handle(Record{T: 0})
	sb.Handle(Record{T: 100 * time.Millisecond})
	// The record at 0 is now 100ms behind the high-water mark: released.
	if len(out.Records) != 1 {
		t.Errorf("expected eager release, pending=%d", len(sb.pend))
	}
	if len(sb.pend) != 1 {
		t.Errorf("pending = %d, want 1", len(sb.pend))
	}
}

// callCounter is a downstream that counts how each record reached it.
type callCounter struct {
	Collect
	handles, largest int
}

func (c *callCounter) Handle(r Record) { c.handles++; c.Collect.Handle(r) }

func (c *callCounter) HandleBatch(rs []Record) {
	c.largest = max(c.largest, len(rs))
	c.Collect.HandleBatch(rs)
}

// TestSortBufferReleasesBlocks: fed one record at a time, a SortBuffer
// still hands a batch downstream only in blocks, and releases the stream a
// block feed does.
func TestSortBufferReleasesBlocks(t *testing.T) {
	recs := testStream(20_000)
	var perRecord, batched callCounter
	sa := NewSortBuffer(50*time.Millisecond, &perRecord)
	feedRecords(sa, recs)
	sa.Flush()
	sb := NewSortBuffer(50*time.Millisecond, &batched)
	feedBlocks(sb, recs)
	sb.Flush()
	if perRecord.handles != 0 || batched.handles != 0 {
		t.Errorf("downstream Handle called %d times on the per-record feed, %d on the block feed; want 0",
			perRecord.handles, batched.handles)
	}
	if l := max(perRecord.largest, batched.largest); l > BlockSize {
		t.Errorf("released a block of %d records, want at most BlockSize", l)
	}
	equalStreams(t, "per-record vs block feed", batched.Records, perRecord.Records)
}

func TestSortBufferProperty(t *testing.T) {
	f := func(deltas []int16) bool {
		var out Collect
		sb := NewSortBuffer(100*time.Millisecond, &out)
		base := 200 * time.Millisecond
		tm := base
		n := 0
		for _, d := range deltas {
			// Non-decreasing walk plus jitter strictly below the slack:
			// disorder is bounded, as the generator guarantees.
			step := time.Duration(d) * time.Millisecond
			if step < 0 {
				step = -step
			}
			tm += step % (20 * time.Millisecond)
			jitter := time.Duration(d%89) * time.Millisecond
			if jitter < 0 {
				jitter = -jitter
			}
			sb.Handle(Record{T: tm + jitter})
			n++
		}
		sb.Flush()
		if len(out.Records) != n {
			return false
		}
		for i := 1; i < len(out.Records); i++ {
			if out.Records[i].T < out.Records[i-1].T {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestReorderBuffersAgree: Writer.SortWindow is a SortBuffer in front of the
// strict encoder, so a disordered stream written through a SortWindow
// writer is byte-identical to the same stream put through a SortBuffer of
// the same slack into a strict writer — ties included — and both are the
// stable time order. The cases cover the
// packed-key sort, both comparator fallbacks (more than 2^16 eligible records
// in one release; a time range too wide to pack), input already in order —
// which must be released from where it lies, the partition buffer never
// grown — and ordered input with one disordered patch, where releases of
// both kinds alternate.
func TestReorderBuffersAgree(t *testing.T) {
	// jittered walks a 1 ms grid (so exact-T ties are common) with every
	// record displaced by up to 40 grid steps; Client numbers arrivals.
	jittered := func(n int, seed int64) []Record {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]Record, n)
		var tm time.Duration
		for i := range recs {
			tm += time.Duration(rng.Intn(3)) * time.Millisecond
			recs[i] = Record{T: tm + time.Duration(rng.Intn(41))*time.Millisecond, Client: uint32(i)}
		}
		return recs
	}
	inOrder := jittered(20000, 3)
	slices.SortStableFunc(inOrder, func(a, b Record) int { return cmp.Compare(a.T, b.T) })
	patched := slices.Clone(inOrder)
	slices.Reverse(patched[10000:10030]) // ≈ 30 ms of it: inside the window
	for _, tc := range []struct {
		name    string
		recs    []Record
		window  time.Duration
		batch   int
		inPlace bool // every release must take the in-order path
	}{
		{"jitter", jittered(50000, 1), 50 * time.Millisecond, BlockSize, false},
		{"jitter, per-tick batches", jittered(50000, 2), 50 * time.Millisecond, 37, false},
		{"one huge batch", jittered(70000, 4), 50 * time.Millisecond, 70000, false},
		{"already in order", inOrder, 50 * time.Millisecond, BlockSize, true},
		{"already in order, per-tick batches", inOrder, 50 * time.Millisecond, 37, true},
		{"in order but for one patch", patched, 50 * time.Millisecond, 37, false},
		{"range too wide to pack", []Record{{T: 41 * time.Hour, Client: 1}, {T: time.Hour, Client: 2}, {T: time.Hour, Client: 3}, {T: 0, Client: 4}}, 50 * time.Hour, 4, false},
	} {
		var direct, staged bytes.Buffer
		dw := NewWriter(&direct)
		dw.SortWindow = tc.window
		sw := NewWriter(&staged)
		sb := NewSortBuffer(tc.window, sw)
		for i := 0; i < len(tc.recs); i += tc.batch {
			chunk := tc.recs[i:min(i+tc.batch, len(tc.recs))]
			dw.HandleBatch(chunk)
			sb.HandleBatch(chunk)
		}
		sb.Flush()
		if err := errors.Join(dw.Flush(), sw.Flush()); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if dw.Count() != int64(len(tc.recs)) {
			t.Fatalf("%s: wrote %d of %d records", tc.name, dw.Count(), len(tc.recs))
		}
		if grown := cap(dw.sorted.sorter.elig) + cap(sb.sorter.elig); tc.inPlace && grown != 0 {
			t.Errorf("%s: ordered input was copied out of the pending buffer (partition buffers hold %d records)", tc.name, grown)
		} else if !tc.inPlace && tc.batch < len(tc.recs) && grown == 0 {
			t.Errorf("%s: disordered input never took the partition path", tc.name)
		}
		if !bytes.Equal(direct.Bytes(), staged.Bytes()) {
			t.Errorf("%s: SortWindow writer and SortBuffer → strict writer disagree (%d vs %d bytes)",
				tc.name, direct.Len(), staged.Len())
		}
		// Both share the sort, so pin it to the library's stable sort too.
		want := slices.Clone(tc.recs)
		slices.SortStableFunc(want, func(a, b Record) int { return cmp.Compare(a.T, b.T) })
		var got Collect
		if _, err := NewReader(&direct).ReadAll(&got); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(got.Records, want) {
			t.Errorf("%s: written order is not the stable time order", tc.name)
		}
	}
}
