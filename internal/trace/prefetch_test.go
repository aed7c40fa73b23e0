package trace

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"
)

func prefetchTestTrace(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < n; i++ {
		if err := w.Write(Record{
			T:      time.Duration(i) * 137 * time.Microsecond,
			Dir:    Direction(i % 2),
			Kind:   Kind(i % 5),
			Client: uint32(i % 23),
			App:    uint16(40 + i%90),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadAllPrefetchMatchesReadAll: the prefetching path must deliver the
// identical record stream and count as the synchronous path, across sizes
// that exercise empty, partial and multi-block tails.
func TestReadAllPrefetchMatchesReadAll(t *testing.T) {
	for _, n := range []int{0, 1, BlockSize - 1, BlockSize, BlockSize + 1, 3*BlockSize + 17} {
		raw := prefetchTestTrace(t, n)

		var sync Collect
		sn, err := NewReader(bytes.NewReader(raw)).ReadAll(&sync)
		if err != nil {
			t.Fatalf("n=%d: ReadAll: %v", n, err)
		}
		var pre Collect
		pn, err := NewReader(bytes.NewReader(raw)).ReadAllPrefetch(&pre)
		if err != nil {
			t.Fatalf("n=%d: ReadAllPrefetch: %v", n, err)
		}
		if sn != pn || sn != int64(n) {
			t.Fatalf("n=%d: counts diverge: sync %d, prefetch %d", n, sn, pn)
		}
		if len(sync.Records) != len(pre.Records) {
			t.Fatalf("n=%d: lengths diverge: %d vs %d", n, len(sync.Records), len(pre.Records))
		}
		for i := range sync.Records {
			if sync.Records[i] != pre.Records[i] {
				t.Fatalf("n=%d: record %d diverges: %+v vs %+v", n, i, sync.Records[i], pre.Records[i])
			}
		}

		// A column sink takes the v4 segments as columns, in the same
		// stream, and hands every pooled block back.
		out := poolOut.Load()
		col := &columnCollect{}
		cn, err := NewReader(bytes.NewReader(raw)).ReadAllPrefetch(col)
		if err != nil {
			t.Fatalf("n=%d: ReadAllPrefetch into columns: %v", n, err)
		}
		if cn != sn || !slices.Equal(col.records, sync.Records) || (col.colIngests > 0) != (n > 0) {
			t.Fatalf("n=%d: column sink got %d records (%d delivered) in %d column blocks, want ReadAll's %d",
				n, cn, len(col.records), col.colIngests, sn)
		}
		if now := poolOut.Load(); now != out {
			t.Errorf("n=%d: %d pooled blocks not returned", n, now-out)
		}
	}
}

// TestReadAllPrefetchErrorParity: on a stream truncated mid-segment both
// paths must surface ErrCorrupt, and the prefetch path must still deliver
// every record it reported.
func TestReadAllPrefetchErrorParity(t *testing.T) {
	raw := prefetchTestTrace(t, 1000)
	// Cut a few bytes short of the first segment's frame end: every column
	// run is present but the last one is damaged, so both paths recover a
	// non-empty prefix whatever the payload layout.
	ix, err := ReadIndex(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	seg := ix.Segments[0]
	truncated := raw[:seg.Offset+int64(seg.frameHeaderLen(ix.Version))+int64(seg.PayloadLen)-3]

	var sync Collect
	sn, syncErr := NewReader(bytes.NewReader(truncated)).ReadAll(&sync)
	var pre Collect
	pn, preErr := NewReader(bytes.NewReader(truncated)).ReadAllPrefetch(&pre)

	if !errors.Is(syncErr, ErrCorrupt) || !errors.Is(preErr, ErrCorrupt) {
		t.Fatalf("truncated stream: sync err %v, prefetch err %v, want ErrCorrupt", syncErr, preErr)
	}
	// The per-record and slab decoders walk the same bytes: the pre-error
	// delivery must be identical, not merely non-empty.
	if sn == 0 || sn != pn {
		t.Errorf("pre-error counts diverge: sync %d, prefetch %d", sn, pn)
	}
	if len(pre.Records) != int(pn) || len(sync.Records) != int(sn) {
		t.Errorf("delivered/reported mismatch: sync %d/%d, prefetch %d/%d",
			len(sync.Records), sn, len(pre.Records), pn)
	}
	for i := 0; i < len(sync.Records) && i < len(pre.Records); i++ {
		if sync.Records[i] != pre.Records[i] {
			t.Fatalf("pre-error record %d diverges: %+v vs %+v", i, sync.Records[i], pre.Records[i])
		}
	}

	// The column leg: the same pre-error records, count and error, and
	// every pooled block back.
	out := poolOut.Load()
	col := &columnCollect{}
	cn, colErr := NewReader(bytes.NewReader(truncated)).ReadAllPrefetch(col)
	if colErr == nil || colErr.Error() != preErr.Error() {
		t.Errorf("column sink err %v, record sink %v", colErr, preErr)
	}
	if cn != pn || col.colIngests == 0 || !slices.Equal(col.records, pre.Records) {
		t.Errorf("column sink got %d records (%d delivered) in %d column blocks, record sink %d",
			cn, len(col.records), col.colIngests, pn)
	}
	if now := poolOut.Load(); now != out {
		t.Errorf("%d pooled blocks not returned", now-out)
	}
}

// TestReadAllPrefetchV1MatchesV2: the identical record stream encoded as v1
// and v2 decodes to the identical records on every serial path.
func TestReadAllPrefetchV1MatchesV2(t *testing.T) {
	const n = 2*BlockSize + 7
	recs := make([]Record, 0, n)
	var v1buf, v2buf bytes.Buffer
	w1, w2 := NewWriterV1(&v1buf), NewWriter(&v2buf)
	w2.SegmentPayload = 1 << 10 // force many segments
	for i := 0; i < n; i++ {
		r := Record{
			T:      time.Duration(i) * 211 * time.Microsecond,
			Dir:    Direction(i % 2),
			Kind:   Kind(i % 5),
			Client: uint32(i % 17),
			App:    uint16(30 + i%200),
		}
		recs = append(recs, r)
		if err := w1.Write(r); err != nil {
			t.Fatal(err)
		}
		if err := w2.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w1.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}

	for name, raw := range map[string][]byte{"v1": v1buf.Bytes(), "v2": v2buf.Bytes()} {
		var all, pre Collect
		if _, err := NewReader(bytes.NewReader(raw)).ReadAll(&all); err != nil {
			t.Fatalf("%s ReadAll: %v", name, err)
		}
		if _, err := NewReader(bytes.NewReader(raw)).ReadAllPrefetch(&pre); err != nil {
			t.Fatalf("%s ReadAllPrefetch: %v", name, err)
		}
		for _, got := range [][]Record{all.Records, pre.Records} {
			if len(got) != n {
				t.Fatalf("%s: decoded %d records, want %d", name, len(got), n)
			}
			for i := range got {
				if got[i] != recs[i] {
					t.Fatalf("%s: record %d = %+v, want %+v", name, i, got[i], recs[i])
				}
			}
		}
	}
}
