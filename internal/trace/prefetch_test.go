package trace

import (
	"bytes"
	"errors"
	"fmt"
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

// scanReads returns the reads under test beside ReadAll: the deprecated
// ReadAllPrefetch forward on a seekable source, and the frame scan of a
// non-seekable one at one, two and four workers.
func scanReads(raw []byte) map[string]func(h Handler) (*Reader, int64, error) {
	reads := map[string]func(h Handler) (*Reader, int64, error){
		"prefetch": func(h Handler) (*Reader, int64, error) {
			rd := NewReader(bytes.NewReader(raw))
			n, err := rd.ReadAllPrefetch(h)
			return rd, n, err
		},
	}
	for _, workers := range []int{1, 2, 4} {
		reads[fmt.Sprintf("scan/workers=%d", workers)] = func(h Handler) (*Reader, int64, error) {
			rd := NewReader(nonSeeker{bytes.NewReader(raw)})
			n, err := rd.ReadAllSharded(h, workers)
			return rd, n, err
		}
	}
	return reads
}

// TestReadAllPrefetchMatchesReadAll: every read in scanReads must deliver
// the identical record stream and count as ReadAll, across sizes that
// exercise empty, partial and multi-block tails, into a record sink and
// into a column sink.
func TestReadAllPrefetchMatchesReadAll(t *testing.T) {
	for _, n := range []int{0, 1, BlockSize - 1, BlockSize, BlockSize + 1, 3*BlockSize + 17} {
		raw := prefetchTestTrace(t, n)

		var sync Collect
		sn, err := NewReader(bytes.NewReader(raw)).ReadAll(&sync)
		if err != nil || sn != int64(n) {
			t.Fatalf("n=%d: ReadAll: %d, %v", n, sn, err)
		}
		for name, read := range scanReads(raw) {
			var pre Collect
			if _, pn, err := read(&pre); err != nil || pn != sn || !slices.Equal(pre.Records, sync.Records) {
				t.Fatalf("n=%d %s: %d records (%d delivered), %v; want ReadAll's %d", n, name, pn, len(pre.Records), err, sn)
			}

			// A column sink takes the v4 segments as columns, in the same
			// stream, and hands every pooled block back.
			out := poolOut.Load()
			col := &columnCollect{}
			_, cn, err := read(col)
			if err != nil {
				t.Fatalf("n=%d %s into columns: %v", n, name, err)
			}
			if cn != sn || !slices.Equal(col.records, sync.Records) || (col.colIngests > 0) != (n > 0) {
				t.Fatalf("n=%d %s: column sink got %d records (%d delivered) in %d column blocks, want ReadAll's %d",
					n, name, cn, len(col.records), col.colIngests, sn)
			}
			if now := poolOut.Load(); now != out {
				t.Errorf("n=%d %s: %d pooled blocks not returned", n, name, now-out)
			}
		}
	}
}

// TestReadAllPrefetchErrorParity: on v2, v3 and v4 files — sealed, torn
// a few bytes short of a middle segment's end, and with one byte flipped
// inside that segment's payload — every read in scanReads delivers
// ReadAll's records and count and fails with ReadAll's error, into a
// record sink and into a column sink, with every pooled block back. The
// frame scan latches ReadAll's Err() cause too; a read through the index
// latches its wrapped error instead.
func TestReadAllPrefetchErrorParity(t *testing.T) {
	for version := 2; version <= 4; version++ {
		_, raw := versionStream(t, version, 9000, 1<<10)
		g := geometry(t, raw)
		seg := g.ix.Segments[len(g.ix.Segments)/2]
		payloadOff := seg.Offset + int64(seg.frameHeaderLen(version))
		flipped := bytes.Clone(raw)
		flipped[payloadOff+int64(seg.PayloadLen)/2] ^= 0xFF
		files := map[string][]byte{
			"sealed": raw,
			// Every column run is present but the last one is damaged,
			// so every read recovers a non-empty prefix of the segment
			// whatever the payload layout.
			"torn":     raw[:payloadOff+int64(seg.PayloadLen)-3],
			"bit-flip": flipped,
		}
		for file, data := range files {
			var sync Collect
			rd := NewReader(bytes.NewReader(data))
			sn, syncErr := rd.ReadAll(&sync)
			cause := rd.Err()
			if file == "sealed" && syncErr != nil || file == "torn" && !errors.Is(syncErr, ErrCorrupt) {
				t.Fatalf("v%d %s: ReadAll err %v", version, file, syncErr)
			}
			if file == "torn" && sn <= g.cumRecs[len(g.ix.Segments)/2-1] {
				t.Fatalf("v%d torn: ReadAll delivered %d records, want more than the %d before the torn segment",
					version, sn, g.cumRecs[len(g.ix.Segments)/2-1])
			}
			for name, read := range scanReads(data) {
				name := fmt.Sprintf("v%d %s %s", version, file, name)
				for sink, h := range map[string]Handler{"records": &Collect{}, "columns": &columnCollect{}} {
					out := poolOut.Load()
					prd, pn, err := read(h)
					var got []Record
					switch h := h.(type) {
					case *Collect:
						got = h.Records
					case *columnCollect:
						got = h.records
					}
					if fmt.Sprint(err) != fmt.Sprint(syncErr) {
						t.Errorf("%s into %s: err %v, ReadAll %v", name, sink, err, syncErr)
					}
					if pn != sn || !slices.Equal(got, sync.Records) {
						t.Errorf("%s into %s: %d records (%d delivered), ReadAll %d", name, sink, pn, len(got), sn)
					}
					// A read through the index leaves no Warning.
					scanned := prd.Warning() != ""
					if scanned && prd.Err() != cause || !scanned && (prd.Err() == nil) != (err == nil) {
						t.Errorf("%s into %s: Err() = %v, ReadAll's %v", name, sink, prd.Err(), cause)
					}
					if now := poolOut.Load(); now != out {
						t.Errorf("%s into %s: %d pooled blocks not returned", name, sink, now-out)
					}
				}
			}
		}
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
