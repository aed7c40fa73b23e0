package trace

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"cstrace/internal/faultio"
)

// refGeometry resolves a sealed file's segment layout: per-segment frame
// byte ranges and the cumulative record count at each segment's end.
type refGeometry struct {
	ix      *Index
	ends    []int64 // frame end offset per segment
	cumRecs []int64 // records in segments [0..i]
	segEnd  int64   // end of the last frame == start of the index frame
}

func geometry(t *testing.T, raw []byte) refGeometry {
	t.Helper()
	ix, err := ReadIndex(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatalf("reference index: %v", err)
	}
	g := refGeometry{ix: ix, segEnd: headerLen}
	var cum int64
	for _, si := range ix.Segments {
		end := si.Offset + int64(si.frameHeaderLen(ix.Version)) + int64(si.PayloadLen)
		cum += int64(si.Count)
		g.ends = append(g.ends, end)
		g.cumRecs = append(g.cumRecs, cum)
		g.segEnd = end
	}
	return g
}

// intactPrefix returns how many whole segments fit in a file cut to `cut`
// bytes, and the record count they carry.
func (g refGeometry) intactPrefix(cut int64) (segs int, recs int64) {
	for i, end := range g.ends {
		if end > cut {
			break
		}
		segs, recs = i+1, g.cumRecs[i]
	}
	return segs, recs
}

// TestRecoverSealed: a healthy file recovers to its own index, reported as
// sealed, for every indexed version.
func TestRecoverSealed(t *testing.T) {
	for _, version := range []int{2, 3, 4} {
		recs, raw := versionStream(t, version, 4000, 512)
		ix, rep, err := Recover(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			t.Fatalf("v%d: %v", version, err)
		}
		if !rep.Sealed {
			t.Fatalf("v%d: healthy file not reported sealed: %s", version, rep)
		}
		if rep.Records != int64(len(recs)) || rep.DroppedBytes() != 0 {
			t.Fatalf("v%d: sealed report %s, want %d records and 0 dropped", version, rep, len(recs))
		}
		var got Collect
		n, err := DecodeIndex(bytes.NewReader(raw), ix, &got, 3)
		if err != nil || n != int64(len(recs)) {
			t.Fatalf("v%d: decode through sealed index: n=%d err=%v", version, n, err)
		}
	}
}

// TestRecoverHeaderFaults: inputs that cannot be a recoverable indexed
// trace are rejected with the classification errors, never salvaged.
func TestRecoverHeaderFaults(t *testing.T) {
	_, v1 := versionStream(t, 1, 100, 512)
	_, v4 := versionStream(t, 4, 100, 512)
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrCorrupt},
		{"tiny", []byte("CS"), ErrCorrupt},
		{"bad magic", []byte("NOPE\x04\x00\x00\x00"), ErrBadMagic},
		{"bad version", []byte("CSTR\x09\x00\x00\x00"), ErrBadVersion},
		{"v1", v1, ErrNoIndex},
	}
	for _, tc := range cases {
		if _, _, err := Recover(bytes.NewReader(tc.data), int64(len(tc.data))); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// A bare header is recoverable: zero segments, nothing dropped beyond
	// the (absent) index.
	ix, rep, err := Recover(bytes.NewReader(v4[:headerLen]), headerLen)
	if err != nil || len(ix.Segments) != 0 || rep.Records != 0 {
		t.Fatalf("header-only file: ix=%+v rep=%v err=%v", ix, rep, err)
	}
}

// TestRecoverFaultMatrix is the injected-I/O fault matrix of the crash-only
// capture path: a reference file of every indexed version is truncated at
// every segment boundary and at swept intra-segment offsets (frame-header
// bytes, payload bytes, the index and footer region), through a
// faultio.ReaderAt. For every cut, Recover must rebuild an index covering
// exactly the whole segments before the cut, and decoding through it must
// yield records identical to the cleanly written reference prefix.
func TestRecoverFaultMatrix(t *testing.T) {
	for _, version := range []int{2, 3, 4} {
		recs, raw := versionStream(t, version, 6000, 512)
		full := int64(len(raw))
		g := geometry(t, raw)
		if len(g.ends) < 4 {
			t.Fatalf("v%d: reference spans only %d segments; shrink SegmentPayload", version, len(g.ends))
		}

		cuts := map[int64]bool{
			headerLen:            true, // header only
			headerLen + 1:        true, // one byte into the first frame marker
			g.segEnd:             true, // all segments, no index at all
			g.segEnd + 2:         true, // torn index marker
			g.segEnd + 11:        true, // mid-index
			full - 1:             true, // footer torn by one byte
			full - footerLen + 3: true,
		}
		for i, si := range g.ix.Segments {
			start, end := si.Offset, g.ends[i]
			hl := int64(si.frameHeaderLen(g.ix.Version))
			for _, c := range []int64{
				start,                 // boundary: previous segments all intact
				start + 1,             // inside the frame marker
				start + 5,             // inside payloadLen
				start + hl - 1,        // one byte short of a whole header
				start + hl,            // header intact, zero payload bytes
				start + (end-start)/2, // mid-payload
				end - 1,               // one byte short of a whole frame
			} {
				if c >= headerLen && c <= full {
					cuts[c] = true
				}
			}
		}

		for cut := range cuts {
			fra := faultio.NewReaderAt(bytes.NewReader(raw))
			fra.TruncateAt = cut
			ix, rep, err := Recover(fra, fra.Size(full))
			if err != nil {
				t.Fatalf("v%d cut=%d: %v", version, cut, err)
			}
			wantSegs, wantRecs := g.intactPrefix(cut)
			if cut == full {
				wantSegs, wantRecs = len(g.ends), g.cumRecs[len(g.cumRecs)-1]
			}
			if len(ix.Segments) != wantSegs || rep.Records != wantRecs {
				t.Fatalf("v%d cut=%d: salvaged %d segments / %d records, want %d / %d (%s)",
					version, cut, len(ix.Segments), rep.Records, wantSegs, wantRecs, rep)
			}
			if rep.GoodBytes > cut {
				t.Fatalf("v%d cut=%d: GoodBytes %d past the cut", version, cut, rep.GoodBytes)
			}
			var got Collect
			n, err := DecodeIndex(fra, ix, &got, 3)
			if err != nil {
				t.Fatalf("v%d cut=%d: decode through salvaged index: %v", version, cut, err)
			}
			if n != wantRecs || len(got.Records) != int(wantRecs) {
				t.Fatalf("v%d cut=%d: decoded %d records, want %d", version, cut, n, wantRecs)
			}
			for i := range got.Records {
				if got.Records[i] != recs[i] {
					t.Fatalf("v%d cut=%d: record %d = %+v, want %+v", version, cut, i, got.Records[i], recs[i])
				}
			}
		}
	}
}

// TestRecoverBitFlip sweeps single-bit corruption across a footerless v4
// file (the crash shape: the index never made it to disk, and a disk error
// flipped one stored bit). The format carries no per-segment CRC, so a flip
// inside payload data may legitimately decode to different field values —
// what Recover must guarantee is weaker but load-bearing: it never panics,
// it returns a decodable prefix index, and every segment before the flipped
// one is recovered byte-identical.
func TestRecoverBitFlip(t *testing.T) {
	recs, raw := versionStream(t, 4, 6000, 512)
	g := geometry(t, raw)
	torn := g.segEnd // drop index+footer so the forward scan is exercised

	flipSeg := func(off int64) int {
		for i, si := range g.ix.Segments {
			if off >= si.Offset && off < g.ends[i] {
				return i
			}
		}
		return len(g.ix.Segments)
	}

	for off := int64(headerLen); off < torn; off += 37 {
		fra := faultio.NewReaderAt(bytes.NewReader(raw))
		fra.TruncateAt = torn
		fra.FlipBit = off
		ix, rep, err := Recover(fra, torn)
		if err != nil {
			t.Fatalf("flip@%d: %v", off, err)
		}
		damaged := flipSeg(off)
		// Everything strictly before the damaged segment must be intact.
		if len(ix.Segments) < damaged {
			t.Fatalf("flip@%d: salvaged %d segments, want at least the %d before the damage (%s)",
				off, len(ix.Segments), damaged, rep)
		}
		var got Collect
		n, err := DecodeIndex(fra, ix, &got, 2)
		if err != nil {
			t.Fatalf("flip@%d: salvaged index fails decode: %v", off, err)
		}
		if n != rep.Records {
			t.Fatalf("flip@%d: decoded %d records, report says %d", off, n, rep.Records)
		}
		var intact int64
		if damaged > 0 {
			intact = g.cumRecs[damaged-1]
		}
		for i := int64(0); i < intact && i < n; i++ {
			if got.Records[i] != recs[i] {
				t.Fatalf("flip@%d: record %d (before the damaged segment) = %+v, want %+v",
					off, i, got.Records[i], recs[i])
			}
		}
	}
}

// TestSalvageRewriteByteIdentical closes the acceptance loop: rewriting the
// salvage of a torn file through a fresh Writer produces the byte-identical
// file to writing the same record prefix cleanly — the salvage pipeline
// loses nothing but the torn tail.
func TestSalvageRewriteByteIdentical(t *testing.T) {
	recs, raw := versionStream(t, 4, 6000, 512)
	g := geometry(t, raw)
	cuts := []int64{headerLen, g.ends[0], g.ends[len(g.ends)/2], g.ends[len(g.ends)-1] - 3, g.segEnd + 5}
	for _, cut := range cuts {
		fra := faultio.NewReaderAt(bytes.NewReader(raw))
		fra.TruncateAt = cut
		ix, rep, err := Recover(fra, fra.Size(int64(len(raw))))
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		var rewrite bytes.Buffer
		w := NewWriter(&rewrite)
		w.SegmentPayload = 512
		if _, err := DecodeIndex(fra, ix, w, 3); err != nil {
			t.Fatalf("cut=%d: decode: %v", cut, err)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("cut=%d: rewrite flush: %v", cut, err)
		}

		var clean bytes.Buffer
		cw := NewWriter(&clean)
		cw.SegmentPayload = 512
		for _, r := range recs[:rep.Records] {
			if err := cw.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := cw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rewrite.Bytes(), clean.Bytes()) {
			t.Fatalf("cut=%d: salvage rewrite differs from the cleanly written prefix (%d vs %d bytes)",
				cut, rewrite.Len(), clean.Len())
		}
	}
}

// TestReaderSalvageFallback: with Salvage set, ReadAllSharded treats a torn
// file as the sealed prefix — full decode, no error, the degradation
// explained in Warning — and does so identically at every worker count and
// through either delivery surface, wherever in the segment the tear lands
// (the last case falls inside the app run, the payload's final column).
func TestReaderSalvageFallback(t *testing.T) {
	recs, raw := versionStream(t, 4, 6000, 512)
	g := geometry(t, raw)
	midSeg := g.ix.Segments[len(g.ix.Segments)/2]
	payloadOff := midSeg.Offset + int64(midSeg.frameHeaderLen(4))
	for _, tear := range []struct {
		name     string
		num, den int64
	}{{"third", 1, 3}, {"half", 1, 2}, {"app-run", 97, 100}} {
		cut := payloadOff + int64(midSeg.PayloadLen)*tear.num/tear.den
		wantSegs, wantRecs := g.intactPrefix(cut)
		torn := raw[:cut]

		var warn string
		for _, workers := range []int{1, 2, 4} {
			for _, ingest := range []bool{false, true} {
				name := fmt.Sprintf("%s workers=%d ingest=%v", tear.name, workers, ingest)
				got := &blockCollect{}
				var sink Handler = got
				if !ingest {
					sink = batchOnly{got}
				}
				r := NewReader(bytes.NewReader(torn))
				r.Salvage = true
				n, err := r.ReadAllSharded(sink, workers)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if n != wantRecs || len(got.records) != int(wantRecs) {
					t.Fatalf("%s: delivered %d records, want %d (%d intact segments)", name, n, wantRecs, wantSegs)
				}
				for i := range got.records {
					if got.records[i] != recs[i] {
						t.Fatalf("%s: record %d mismatch", name, i)
					}
				}
				if r.Warning() == "" {
					t.Fatalf("%s: salvage fallback left no Warning", name)
				}
				if warn == "" {
					warn = r.Warning()
				} else if r.Warning() != warn {
					t.Fatalf("%s: Warning %q, other worker counts said %q", name, r.Warning(), warn)
				}
			}

			// Without Salvage the same torn file must keep the strict
			// contract: fall back to the frame scan and surface the
			// mid-segment truncation.
			var strict Collect
			if _, err := NewReader(bytes.NewReader(torn)).ReadAllSharded(&strict, workers); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s workers=%d: strict reader on torn file: err = %v, want ErrCorrupt", tear.name, workers, err)
			}
		}
	}
}

// fuzzSeedStream builds the deterministic reference streams FuzzRecover
// seeds from, without a testing.T (fuzz seeding runs outside a test).
func fuzzSeedStream(version, n, segPayload int) ([]Record, []byte) {
	recs := make([]Record, 0, n)
	var buf bytes.Buffer
	var w *Writer
	switch version {
	case 1:
		w = NewWriterV1(&buf)
	case 2:
		w = NewWriterV2(&buf)
	case 3:
		w = NewWriterV3(&buf)
	default:
		w = NewWriter(&buf)
	}
	w.SegmentPayload = segPayload
	for i := 0; i < n; i++ {
		r := Record{
			T:      time.Duration(i) * 211 * time.Microsecond,
			Dir:    Direction(i % 2),
			Kind:   Kind(i % 5),
			Client: uint32(i % 23),
			App:    uint16(28 + i%200),
		}
		recs = append(recs, r)
		if err := w.Write(r); err != nil {
			panic(fmt.Sprintf("fuzz seed stream: %v", err))
		}
	}
	if err := w.Flush(); err != nil {
		panic(fmt.Sprintf("fuzz seed stream: %v", err))
	}
	return recs, buf.Bytes()
}

// FuzzRecover feeds arbitrary bytes — seeded with valid v1–v4 files and
// their prefixes — to the salvage scanner. Recover must never panic, any
// index it returns must decode cleanly with exactly the reported record
// count, and for inputs that are literal prefixes of the v4 reference file
// it must never return a record past the truncation point.
func FuzzRecover(f *testing.F) {
	refRecs, refRaw := fuzzSeedStream(4, 2000, 512)
	for _, version := range []int{1, 2, 3} {
		_, raw := fuzzSeedStream(version, 2000, 512)
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	f.Add(refRaw)
	f.Add(refRaw[:len(refRaw)/2])
	f.Add(refRaw[:len(refRaw)/3])
	f.Add(refRaw[:headerLen+1])
	f.Add([]byte("CSTR\x04\x00\x00\x00CSEG"))

	f.Fuzz(func(t *testing.T, data []byte) {
		size := int64(len(data))
		ix, rep, err := Recover(bytes.NewReader(data), size)
		if err != nil {
			return // header-level rejection is a valid outcome
		}
		if rep.GoodBytes > size || rep.GoodBytes < headerLen {
			t.Fatalf("GoodBytes %d outside [8, %d]", rep.GoodBytes, size)
		}
		var got Collect
		n, derr := DecodeIndex(bytes.NewReader(data), ix, &got, 2)
		if derr != nil {
			t.Fatalf("salvaged index fails decode: %v", derr)
		}
		if n != rep.Records || n != ix.Records {
			t.Fatalf("decoded %d records, report %d, index %d", n, rep.Records, ix.Records)
		}
		if size <= int64(len(refRaw)) && bytes.Equal(data, refRaw[:size]) {
			if n > int64(len(refRecs)) {
				t.Fatalf("prefix input yielded %d records, reference has %d", n, len(refRecs))
			}
			for i := range got.Records {
				if got.Records[i] != refRecs[i] {
					t.Fatalf("prefix input record %d = %+v, want %+v", i, got.Records[i], refRecs[i])
				}
			}
		}
	})
}
