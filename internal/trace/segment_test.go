package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"cstrace/internal/sched"
)

// versionStream builds a deterministic record stream and its encoding in the
// given format version with small segments (so even short streams span many
// of them). Versions 3 and 4 write with the default compression.
func versionStream(t *testing.T, version, n, segPayload int) ([]Record, []byte) {
	t.Helper()
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
			T:      time.Duration(i) * 173 * time.Microsecond,
			Dir:    Direction(i % 2),
			Kind:   Kind(i % 5),
			Client: uint32(i % 31),
			App:    uint16(20 + i%300),
		}
		recs = append(recs, r)
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return recs, buf.Bytes()
}

// v2TestStream keeps the v2 coverage of the pre-v3 tests intact.
func v2TestStream(t *testing.T, n, segPayload int) ([]Record, []byte) {
	t.Helper()
	return versionStream(t, 2, n, segPayload)
}

// TestV2ParallelMatchesSerial: the parallel decode must deliver the exact
// serial stream for every worker count, across sizes that exercise empty
// files, single segments and partial tails — for both indexed versions.
func TestV2ParallelMatchesSerial(t *testing.T) {
	for _, version := range []int{2, 3, 4} {
		for _, n := range []int{0, 1, 100, 5000, 20000} {
			recs, raw := versionStream(t, version, n, 1<<10)
			for _, workers := range []int{1, 2, 3, 8} {
				var got Collect
				rd := NewReader(bytes.NewReader(raw))
				pn, err := rd.ReadAllSharded(&got, workers)
				if err != nil {
					t.Fatalf("v%d n=%d workers=%d: %v", version, n, workers, err)
				}
				if rd.Warning() != "" {
					t.Fatalf("v%d n=%d workers=%d: unexpected fallback: %s", version, n, workers, rd.Warning())
				}
				if pn != int64(n) || len(got.Records) != n {
					t.Fatalf("v%d n=%d workers=%d: delivered %d/%d records", version, n, workers, pn, len(got.Records))
				}
				for i := range recs {
					if got.Records[i] != recs[i] {
						t.Fatalf("v%d n=%d workers=%d: record %d = %+v, want %+v",
							version, n, workers, i, got.Records[i], recs[i])
					}
				}
			}
		}
	}
}

// blockCollect implements BlockIngester: the direct decode-to-shard
// delivery surface, collected single-threaded for comparison.
type blockCollect struct {
	records []Record
	ingests int
}

func (b *blockCollect) Handle(r Record)         { b.records = append(b.records, r) }
func (b *blockCollect) HandleBatch(rs []Record) { b.records = append(b.records, rs...) }
func (b *blockCollect) IngestBlock(blk *Block) {
	b.ingests++
	b.records = append(b.records, *blk...)
	FreeBlock(blk)
}

// batchOnly hides a sink's ingest interfaces, so the indexed engine decodes
// records and delivers them through its HandleBatch adapter — the path
// plain sinks take — even when the wrapped sink could ingest blocks.
type batchOnly struct{ h Handler }

func (b batchOnly) Handle(r Record)         { b.h.Handle(r) }
func (b batchOnly) HandleBatch(rs []Record) { Dispatch(b.h, rs) }

// TestReadAllShardedMatchesSerial: direct block delivery must produce the
// exact serial stream — same records, same order — at every worker count,
// and must actually take the ingest path on an indexed trace.
func TestReadAllShardedMatchesSerial(t *testing.T) {
	for _, version := range []int{2, 3, 4} {
		for _, n := range []int{0, 1, 100, 5000, 20000} {
			recs, raw := versionStream(t, version, n, 1<<10)
			for _, workers := range []int{2, 3, 8} {
				got := &blockCollect{}
				rd := NewReader(bytes.NewReader(raw))
				pn, err := rd.ReadAllSharded(got, workers)
				if err != nil {
					t.Fatalf("v%d n=%d workers=%d: %v", version, n, workers, err)
				}
				if rd.Warning() != "" {
					t.Fatalf("v%d n=%d workers=%d: unexpected fallback: %s", version, n, workers, rd.Warning())
				}
				if n > 0 && got.ingests == 0 {
					t.Fatalf("v%d n=%d workers=%d: sharded read never took the ingest path", version, n, workers)
				}
				if pn != int64(n) || len(got.records) != n {
					t.Fatalf("v%d n=%d workers=%d: delivered %d/%d records", version, n, workers, pn, len(got.records))
				}
				for i := range recs {
					if got.records[i] != recs[i] {
						t.Fatalf("v%d n=%d workers=%d: record %d = %+v, want %+v",
							version, n, workers, i, got.records[i], recs[i])
					}
				}
			}
		}
	}
}

// TestReadAllShardedFallbacks: without an ingest-capable sink the engine
// delivers through its HandleBatch adapter; one worker runs it at its floor
// of two; a non-seekable source is read by frame scan and a v1 file record
// by record — the same stream every time.
func TestReadAllShardedFallbacks(t *testing.T) {
	const n = 3000
	recs, raw := versionStream(t, 3, n, 1<<10)

	// Plain Handler sink: same records via the HandleBatch adapter.
	var plain Collect
	if pn, err := NewReader(bytes.NewReader(raw)).ReadAllSharded(&plain, 4); err != nil || pn != int64(n) {
		t.Fatalf("plain sink: %d, %v", pn, err)
	}
	// workers=1: the engine's floor of two workers.
	one := &blockCollect{}
	if pn, err := NewReader(bytes.NewReader(raw)).ReadAllSharded(one, 1); err != nil || pn != int64(n) {
		t.Fatalf("one worker: %d, %v", pn, err)
	}
	// Non-seekable source: frame scan with a warning.
	ns := &blockCollect{}
	rd := NewReader(nonSeeker{bytes.NewReader(raw)})
	if pn, err := rd.ReadAllSharded(ns, 4); err != nil || pn != int64(n) {
		t.Fatalf("non-seekable: %d, %v", pn, err)
	}
	if rd.Warning() == "" {
		t.Error("non-seekable sharded read did not warn")
	}
	// v1: silent, record by record.
	_, rawV1 := versionStream(t, 1, n, 0)
	v1got := &blockCollect{}
	if pn, err := NewReader(bytes.NewReader(rawV1)).ReadAllSharded(v1got, 4); err != nil || pn != int64(n) {
		t.Fatalf("v1: %d, %v", pn, err)
	}
	for _, got := range [][]Record{plain.Records, one.records, ns.records, v1got.records} {
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("fallback record %d diverges", i)
			}
		}
	}
}

// TestReadIndexGeometry: the index must tile the file exactly, chain delta
// bases through segment boundaries, and agree with the footer totals — in
// both indexed versions.
func TestReadIndexGeometry(t *testing.T) {
	const n = 12345
	for _, version := range []int{2, 3, 4} {
		recs, raw := versionStream(t, version, n, 1<<10)
		ix, err := ReadIndex(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			t.Fatal(err)
		}
		if ix.Version != version || ix.Records != n {
			t.Fatalf("Version=%d Records=%d", ix.Version, ix.Records)
		}
		if len(ix.Segments) < 8 {
			t.Fatalf("only %d segments; SegmentPayload not honored?", len(ix.Segments))
		}
		var sum int
		next := int64(headerLen)
		for i, si := range ix.Segments {
			if si.Offset != next {
				t.Fatalf("v%d: segment %d at %d, want %d", version, i, si.Offset, next)
			}
			if i == 0 && si.BaseT != 0 {
				t.Fatalf("v%d: first BaseT = %v", version, si.BaseT)
			}
			if i > 0 && si.BaseT != ix.Segments[i-1].MaxT {
				t.Fatalf("v%d: segment %d BaseT %v != prev MaxT %v", version, i, si.BaseT, ix.Segments[i-1].MaxT)
			}
			if version == 2 && (si.Flags != 0 || si.RawLen != si.PayloadLen) {
				t.Fatalf("v2 segment %d carries v3 state: %+v", i, si)
			}
			sum += si.Count
			next = si.Offset + int64(si.frameHeaderLen(version)) + int64(si.PayloadLen)
		}
		if sum != n {
			t.Fatalf("v%d: index counts %d records, want %d", version, sum, n)
		}
		if first, last := ix.Segments[0].MinT, ix.Segments[len(ix.Segments)-1].MaxT; first != recs[0].T || last != recs[n-1].T {
			t.Fatalf("v%d: span [%v, %v], want [%v, %v]", version, first, last, recs[0].T, recs[n-1].T)
		}
		if ix.PayloadBytes() <= 0 || ix.RawBytes() < ix.PayloadBytes() {
			t.Fatalf("v%d: payload %d / raw %d bytes implausible", version, ix.PayloadBytes(), ix.RawBytes())
		}
		if version >= 3 {
			if ix.CompressedSegments() == 0 {
				t.Fatalf("v%d default stream compressed no segments", version)
			}
			if ix.PayloadBytes() >= ix.RawBytes() {
				t.Fatalf("v%d: on-disk payload %d not smaller than raw %d", version, ix.PayloadBytes(), ix.RawBytes())
			}
		}
		if version == 4 {
			for i, si := range ix.Segments {
				if !si.Columnar() {
					t.Fatalf("v4 segment %d not flagged columnar: %+v", i, si)
				}
			}
		}
	}
}

// TestV3PayloadInvariant: the concatenation of all v3 segment payloads,
// decompressed where flagged, must be byte-for-byte the v1 record stream of
// the same records — the cross-version invariant of docs/FORMAT.md.
func TestV3PayloadInvariant(t *testing.T) {
	const n = 20000
	_, rawV1 := versionStream(t, 1, n, 0)
	_, rawV3 := versionStream(t, 3, n, 1<<10)
	v1stream := rawV1[headerLen:]

	ix, err := ReadIndex(bytes.NewReader(rawV3), int64(len(rawV3)))
	if err != nil {
		t.Fatal(err)
	}
	var concat []byte
	var sc segScratch
	for i, si := range ix.Segments {
		hl := si.frameHeaderLen(3)
		frame := rawV3[si.Offset : si.Offset+int64(hl)+int64(si.PayloadLen)]
		payload := frame[hl:]
		if si.Compressed() {
			raw, err := sc.decompress(payload, si)
			if err != nil {
				t.Fatalf("segment %d: %v", i, err)
			}
			payload = raw
		} else if si.RawLen != si.PayloadLen {
			t.Fatalf("segment %d: uncompressed but RawLen %d != PayloadLen %d", i, si.RawLen, si.PayloadLen)
		}
		concat = append(concat, payload...)
	}
	if !bytes.Equal(concat, v1stream) {
		t.Fatalf("decompressed v3 payloads (%d bytes) diverge from the v1 stream (%d bytes)",
			len(concat), len(v1stream))
	}
	if int64(len(concat)) != ix.RawBytes() {
		t.Fatalf("RawBytes() = %d, concatenation = %d", ix.RawBytes(), len(concat))
	}
}

// TestV3CompressOff: CompressOff stores every segment uncompressed; the
// file stays a valid v3/v4 trace with the compression flag clear and reads
// back identically.
func TestV3CompressOff(t *testing.T) {
	const n = 5000
	for _, version := range []int{3, 4} {
		var buf bytes.Buffer
		var w *Writer
		if version == 3 {
			w = NewWriterV3(&buf)
		} else {
			w = NewWriter(&buf)
		}
		w.SegmentPayload = 1 << 10
		w.CompressLevel = CompressOff
		recs := make([]Record, 0, n)
		for i := 0; i < n; i++ {
			r := Record{T: time.Duration(i) * 100 * time.Microsecond, Client: uint32(i % 7), App: uint16(40 + i%90)}
			recs = append(recs, r)
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		ix, err := ReadIndex(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		if ix.Version != version || ix.CompressedSegments() != 0 || ix.PayloadBytes() != ix.RawBytes() {
			t.Fatalf("CompressOff trace: version %d (want %d), %d compressed segments, payload %d raw %d",
				ix.Version, version, ix.CompressedSegments(), ix.PayloadBytes(), ix.RawBytes())
		}
		var got Collect
		if pn, err := NewReader(bytes.NewReader(buf.Bytes())).ReadAllSharded(&got, 4); err != nil || pn != n {
			t.Fatalf("v%d read back: %d, %v", version, pn, err)
		}
		for i := range recs {
			if got.Records[i] != recs[i] {
				t.Fatalf("v%d record %d diverges", version, i)
			}
		}
	}
}

// TestWriterBadCompressLevel: a compressing writer rejects a level outside
// -1, 0 and 1-9 at its first Write or HandleBatch, before any byte, and the
// error latches — at every worker count, so how many records are accepted
// does not depend on when the first segment seals. Writers that ignore the
// level (v1/v2) keep ignoring it.
func TestWriterBadCompressLevel(t *testing.T) {
	recs := v4recs(100)
	for _, level := range []int{-2, 10, 42} {
		want := fmt.Sprintf("trace: invalid CompressLevel %d (want -1, 0 or 1-9)", level)
		for _, workers := range []int{1, 4, sched.Auto} {
			for _, batch := range []bool{false, true} {
				var buf bytes.Buffer
				w := NewWriter(&buf)
				w.CompressLevel, w.Workers = level, workers
				var err error
				if batch {
					w.HandleBatch(recs)
					err = w.Err()
				} else {
					err = w.Write(recs[0])
				}
				if err == nil || err.Error() != want {
					t.Fatalf("level %d workers %d batch %v: first write = %v, want %q", level, workers, batch, err, want)
				}
				if err := w.Write(recs[1]); err == nil || err.Error() != want {
					t.Fatalf("level %d workers %d: error did not latch: %v", level, workers, err)
				}
				if err := w.Flush(); err == nil || err.Error() != want {
					t.Fatalf("level %d workers %d: Flush = %v", level, workers, err)
				}
				if buf.Len() != 0 || w.Count() != 0 {
					t.Fatalf("level %d workers %d: %d bytes, %d records written", level, workers, buf.Len(), w.Count())
				}
			}
		}
	}
	var empty bytes.Buffer
	w := NewWriter(&empty)
	w.CompressLevel = 42
	if err := w.Flush(); err == nil || empty.Len() != 0 {
		t.Fatalf("empty writer at level 42: Flush = %v, %d bytes", err, empty.Len())
	}
	for _, ctor := range []func(io.Writer) *Writer{NewWriterV1, NewWriterV2} {
		w := ctor(io.Discard)
		w.CompressLevel = 42
		if err := w.Write(recs[0]); err != nil {
			t.Fatalf("v%d: %v", w.Version(), err)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("v%d: %v", w.Version(), err)
		}
	}
}

// nonSeeker hides the seek/readat capability of an underlying reader.
type nonSeeker struct{ io.Reader }

// TestParallelFallsBackSerial: a damaged index or footer, or a non-seekable
// source, must degrade to the frame scan — full stream, nil error, and an
// explanatory Warning.
func TestParallelFallsBackSerial(t *testing.T) {
	const n = 9000
	recs, raw := v2TestStream(t, n, 1<<10)
	cases := map[string]io.Reader{
		"truncated-footer": bytes.NewReader(raw[:len(raw)-5]),
		"truncated-index":  bytes.NewReader(raw[:len(raw)-footerLen-13]),
		"zeroed-footer":    bytes.NewReader(append(append([]byte{}, raw[:len(raw)-8]...), 0, 0, 0, 0, 0, 0, 0, 0)),
		"non-seekable":     nonSeeker{bytes.NewReader(raw)},
	}
	for name, src := range cases {
		rd := NewReader(src)
		var got Collect
		pn, err := rd.ReadAllSharded(&got, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rd.Warning() == "" {
			t.Errorf("%s: fallback did not set Warning", name)
		}
		if pn != int64(n) || len(got.Records) != n {
			t.Fatalf("%s: delivered %d/%d records, want %d", name, pn, len(got.Records), n)
		}
		for i := range recs {
			if got.Records[i] != recs[i] {
				t.Fatalf("%s: record %d diverges", name, i)
			}
		}
	}
}

// TestV2CorruptPayload: damage inside a middle segment must surface
// ErrCorrupt on the serial and parallel paths alike, with the records of
// the preceding segments still delivered on the parallel path.
func TestV2CorruptPayload(t *testing.T) {
	const n = 9000
	_, raw := v2TestStream(t, n, 1<<10)
	ix, err := ReadIndex(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Segments) < 4 {
		t.Fatalf("need several segments, have %d", len(ix.Segments))
	}
	// Truncate the stream mid-way through the third segment's payload: a
	// hard corruption no path can decode past.
	seg := ix.Segments[2]
	cut := seg.Offset + segHeaderLen + int64(seg.PayloadLen)/2
	bad := raw[:cut]

	var serial Collect
	_, serr := NewReader(bytes.NewReader(bad)).ReadAll(&serial)
	if !errors.Is(serr, ErrCorrupt) {
		t.Fatalf("serial err = %v, want ErrCorrupt", serr)
	}

	// With the intact index spliced back on, the parallel path sees a
	// valid index whose segment bytes are damaged. Rebuild: keep all
	// segments but zero a byte inside segment 2's payload.
	mut := append([]byte{}, raw...)
	mut[seg.Offset+segHeaderLen+5] ^= 0xFF
	var par Collect
	prd := NewReader(bytes.NewReader(mut))
	pn, perr := prd.ReadAllSharded(&par, 4)
	if !errors.Is(perr, ErrCorrupt) {
		t.Fatalf("parallel err = %v, want ErrCorrupt", perr)
	}
	if prd.Err() == nil || !errors.Is(prd.Err(), ErrCorrupt) {
		t.Fatalf("parallel path did not latch the cause: Err() = %v", prd.Err())
	}
	// Everything before the damaged segment must have been delivered.
	min := int64(ix.Segments[0].Count + ix.Segments[1].Count)
	if pn < min {
		t.Fatalf("parallel delivered %d records before error, want ≥ %d", pn, min)
	}
	if int64(len(par.Records)) != pn {
		t.Fatalf("delivered %d but reported %d", len(par.Records), pn)
	}
}

// TestV3CorruptCompressed: damage inside a compressed segment's flate
// stream — truncation, bit flips, wholesale garbage — must surface
// ErrCorrupt on the serial and parallel paths alike, with the records of
// the preceding segments still delivered.
func TestV3CorruptCompressed(t *testing.T) {
	const n = 9000
	_, raw := versionStream(t, 3, n, 1<<10)
	ix, err := ReadIndex(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Segments) < 4 {
		t.Fatalf("need several segments, have %d", len(ix.Segments))
	}
	// Pick the first compressed segment past the first two, so there are
	// whole segments before the damage to check delivery of.
	target := -1
	for i := 2; i < len(ix.Segments)-1; i++ {
		if ix.Segments[i].Compressed() {
			target = i
			break
		}
	}
	if target < 0 {
		t.Fatal("no compressed segment to damage; compression not engaging?")
	}
	seg := ix.Segments[target]
	payloadOff := seg.Offset + int64(seg.frameHeaderLen(3))
	minDelivered := int64(0)
	for _, si := range ix.Segments[:target] {
		minDelivered += int64(si.Count)
	}

	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte{}, raw...))
	}
	cases := map[string][]byte{
		// The file ends mid-way through the compressed payload: no index
		// survives, so every path is the frame scan of a truncated tail.
		"truncated-file": raw[:payloadOff+int64(seg.PayloadLen)/2],
		// A flipped byte inside the flate stream, index intact: ReadAll and
		// the read through the index see a valid frame whose payload no
		// longer inflates.
		"bit-flip": mutate(func(b []byte) []byte {
			b[payloadOff+int64(seg.PayloadLen)/2] ^= 0xFF
			return b
		}),
		// The whole compressed payload overwritten with garbage.
		"garbage-payload": mutate(func(b []byte) []byte {
			for i := int64(0); i < int64(seg.PayloadLen); i++ {
				b[payloadOff+i] = byte(0xA5 ^ i)
			}
			return b
		}),
	}
	for name, bad := range cases {
		var serial Collect
		sn, serr := NewReader(bytes.NewReader(bad)).ReadAll(&serial)
		if !errors.Is(serr, ErrCorrupt) {
			t.Fatalf("%s: serial err = %v, want ErrCorrupt", name, serr)
		}
		if sn < minDelivered || int64(len(serial.Records)) != sn {
			t.Fatalf("%s: serial delivered %d records before error, want ≥ %d", name, sn, minDelivered)
		}

		if name == "truncated-file" {
			continue // no index: the parallel path falls back to the same scan
		}
		for _, read := range []struct {
			path string
			run  func(rd *Reader, h Handler) (int64, error)
		}{
			{"parallel", func(rd *Reader, h Handler) (int64, error) { return rd.ReadAllSharded(batchOnly{h}, 4) }},
			{"sharded", func(rd *Reader, h Handler) (int64, error) { return rd.ReadAllSharded(h, 4) }},
		} {
			got := &blockCollect{}
			rd := NewReader(bytes.NewReader(bad))
			pn, perr := read.run(rd, got)
			if !errors.Is(perr, ErrCorrupt) {
				t.Fatalf("%s/%s: err = %v, want ErrCorrupt", name, read.path, perr)
			}
			if rd.Err() == nil || !errors.Is(rd.Err(), ErrCorrupt) {
				t.Fatalf("%s/%s: cause not latched: Err() = %v", name, read.path, rd.Err())
			}
			if pn < minDelivered || int64(len(got.records)) != pn {
				t.Fatalf("%s/%s: delivered %d records before error, want ≥ %d", name, read.path, pn, minDelivered)
			}
			for i := range serial.Records[:minDelivered] {
				if got.records[i] != serial.Records[i] {
					t.Fatalf("%s/%s: pre-error record %d diverges", name, read.path, i)
				}
			}
		}
	}
}

// TestV3RawLenMismatch: a compressed segment whose declared raw size
// disagrees with what the flate stream inflates to is corruption in both
// directions (too small and too large).
func TestV3RawLenMismatch(t *testing.T) {
	const n = 9000
	_, raw := versionStream(t, 3, n, 1<<10)
	ix, err := ReadIndex(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	target := -1
	for i := range ix.Segments {
		if ix.Segments[i].Compressed() {
			target = i
			break
		}
	}
	if target < 0 {
		t.Fatal("no compressed segment")
	}
	seg := ix.Segments[target]
	rawLenOff := seg.Offset + segHeaderLenV3 // the trailing rawLen field
	for name, delta := range map[string]int{"short": -1, "long": +1} {
		mut := append([]byte{}, raw...)
		binary.LittleEndian.PutUint32(mut[rawLenOff:], uint32(seg.RawLen+delta))
		// ReadAll trusts the frame alone, so it must notice the
		// inflate-size mismatch itself (the read through the index
		// additionally rejects the frame/index disagreement).
		if _, err := NewReader(bytes.NewReader(mut)).ReadAll(&Collect{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: serial err = %v, want ErrCorrupt", name, err)
		}
		if _, err := NewReader(bytes.NewReader(mut)).ReadAllSharded(&Collect{}, 4); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: parallel err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestV3RawLenExpansionBound: a RawLen beyond flate's maximum expansion of
// the on-disk payload cannot be legitimate, and must surface ErrCorrupt
// from both the frame and the index parse *before* any reader allocates a
// slab for it — a flipped u32 must not become a multi-gigabyte allocation.
func TestV3RawLenExpansionBound(t *testing.T) {
	const n = 9000
	_, raw := versionStream(t, 3, n, 1<<10)
	ix, err := ReadIndex(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	target := -1
	for i := range ix.Segments {
		if ix.Segments[i].Compressed() {
			target = i
			break
		}
	}
	if target < 0 {
		t.Fatal("no compressed segment")
	}
	seg := ix.Segments[target]
	const huge = 0xFFFFFFF0
	// Frame path: ReadAll parses the frame's trailing rawLen.
	mutFrame := append([]byte{}, raw...)
	binary.LittleEndian.PutUint32(mutFrame[seg.Offset+segHeaderLenV3:], huge)
	if _, err := NewReader(bytes.NewReader(mutFrame)).ReadAll(&Collect{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("frame: err = %v, want ErrCorrupt", err)
	}
	// Index path: ReadIndex must reject the entry up front. The rawLen
	// field sits at +20 of the target's 48-byte entry.
	footOff := int64(len(raw)) - footerLen
	indexOff := int64(binary.LittleEndian.Uint64(raw[footOff+8:]))
	entryOff := indexOff + indexHeaderLen + int64(target)*indexEntryLenV3
	mutIndex := append([]byte{}, raw...)
	binary.LittleEndian.PutUint32(mutIndex[entryOff+20:], huge)
	if _, err := ReadIndex(bytes.NewReader(mutIndex), int64(len(mutIndex))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("index: err = %v, want ErrCorrupt", err)
	}
}

// TestSerialScanBoundsHeaderAlloc: the serial scan — a non-seekable source,
// or a seekable one whose index is damaged — trusts a frame header before
// anything vouches for it, so a header that lies about its size must not
// size the scan's allocations. A 1 000-record v4 file whose first frame
// claims a 0x7fffff00-byte payload, or 2³²−16 records, fails with
// ErrCorrupt on both serial paths having allocated a bounded amount.
func TestSerialScanBoundsHeaderAlloc(t *testing.T) {
	_, raw := versionStream(t, 4, 1000, DefaultSegmentPayload)
	for _, lie := range []struct {
		field      string
		off        int // within the frame
		val        uint32
		allocLimit uint64
	}{
		{"payloadLen", 4, 0x7fffff00, 64 << 20},
		{"count", 8, 0xfffffff0, 4 << 20},
	} {
		bad := bytes.Clone(raw)
		binary.LittleEndian.PutUint32(bad[headerLen+lie.off:], lie.val)
		for _, path := range []struct {
			name string
			read func(*Reader, Handler) (int64, error)
		}{
			{"ReadAll", (*Reader).ReadAll},
			{"ReadAllPrefetch", (*Reader).ReadAllPrefetch},
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := path.read(NewReader(onlyReader{bytes.NewReader(bad)}), &Collect{})
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s lie, %s: err = %v, want ErrCorrupt", lie.field, path.name, err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > lie.allocLimit {
				t.Errorf("%s lie, %s: allocated %d MiB (limit %d MiB)", lie.field, path.name, alloc>>20, lie.allocLimit>>20)
			}
		}
	}
}

// TestCompressedSlabBoundedByStoredBytes: the inflate slab is sized by the
// stored bytes at hand, not by the header alone. On the frame scan, a v4
// frame lying in both PayloadLen and RawLen (2³¹ each) with 4 KiB of payload
// behind it fails with ErrCorrupt having allocated a few MiB, not the
// 2 GiB the header asks for. On the index source, a RawLen at flate's
// expansion bound, agreed by frame and index, is corruption too, and costs
// no more than that bound of the segment's stored bytes.
func TestCompressedSlabBoundedByStoredBytes(t *testing.T) {
	const allocLimit = 64 << 20
	bounded := func(name string, read func() (int64, error)) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := read()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > allocLimit {
			t.Errorf("%s: allocated %d MiB (limit %d MiB)", name, alloc>>20, allocLimit>>20)
		}
	}

	_, raw := versionStream(t, 4, 20000, DefaultSegmentPayload)
	ix, err := ReadIndex(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if seg := ix.Segments[0]; !seg.Compressed() || !seg.Columnar() || seg.PayloadLen < 4<<10 {
		t.Fatalf("first segment %+v: want a compressed columnar payload of at least 4 KiB", seg)
	}
	frame := headerLen + segHeaderLenV3 + 4 + 4<<10
	lying := bytes.Clone(raw[:frame])
	binary.LittleEndian.PutUint32(lying[headerLen+4:], 1<<31)
	binary.LittleEndian.PutUint32(lying[headerLen+segHeaderLenV3:], 1<<31)
	for _, workers := range []int{1, 2} {
		bounded(fmt.Sprintf("frame scan, %d workers", workers), func() (int64, error) {
			return NewReader(onlyReader{bytes.NewReader(lying)}).ReadAllSharded(&Collect{}, workers)
		})
	}
	bounded("ReadAll", func() (int64, error) {
		return NewReader(onlyReader{bytes.NewReader(lying)}).ReadAll(&Collect{})
	})

	_, small := versionStream(t, 4, 20000, 1<<12)
	ix, err = ReadIndex(bytes.NewReader(small), int64(len(small)))
	if err != nil {
		t.Fatal(err)
	}
	seg := ix.Segments[0]
	if !seg.Compressed() {
		t.Fatal("first segment stored raw")
	}
	rawLen := uint32(seg.PayloadLen * maxFlateExpansion)
	indexOff := int64(binary.LittleEndian.Uint64(small[len(small)-footerLen+8:]))
	mut := bytes.Clone(small)
	binary.LittleEndian.PutUint32(mut[seg.Offset+segHeaderLenV3:], rawLen)
	binary.LittleEndian.PutUint32(mut[indexOff+indexHeaderLen+20:], rawLen)
	if _, err := ReadIndex(bytes.NewReader(mut), int64(len(mut))); err != nil {
		t.Fatalf("the lie must pass the index checks: %v", err)
	}
	for _, workers := range []int{1, 4} {
		bounded(fmt.Sprintf("index source, %d workers", workers), func() (int64, error) {
			return NewReader(bytes.NewReader(mut)).ReadAllSharded(&Collect{}, workers)
		})
	}
}

// TestV2IndexSegmentDisagreement: an index entry that contradicts the
// segment's own frame header is corruption, not silent mis-decode.
func TestV2IndexSegmentDisagreement(t *testing.T) {
	const n = 5000
	_, raw := v2TestStream(t, n, 1<<10)
	ix, err := ReadIndex(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a count byte inside the on-disk frame header of segment 1 and
	// patch MinT/MaxT consistency so parseSegmentHeader alone still passes.
	mut := append([]byte{}, raw...)
	off := ix.Segments[1].Offset
	binary.LittleEndian.PutUint32(mut[off+8:], uint32(ix.Segments[1].Count+1))
	_, perr := NewReader(bytes.NewReader(mut)).ReadAllSharded(&Collect{}, 4)
	if !errors.Is(perr, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", perr)
	}
}

// TestEmptyIndexedTrace: an empty v2 or v3 file still carries a header, an
// empty index and a footer, and every read path reports zero records
// cleanly.
func TestEmptyIndexedTrace(t *testing.T) {
	for _, version := range []int{2, 3, 4} {
		var buf bytes.Buffer
		w := NewWriterV2(&buf)
		switch version {
		case 3:
			w = NewWriterV3(&buf)
		case 4:
			w = NewWriter(&buf)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		wantSize := headerLen + indexHeaderLen + footerLen
		if buf.Len() != wantSize {
			t.Fatalf("empty v%d file is %d bytes, want %d", version, buf.Len(), wantSize)
		}
		ix, err := ReadIndex(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		if ix.Version != version || ix.Records != 0 || len(ix.Segments) != 0 {
			t.Fatalf("index = %+v", ix)
		}
		if _, err := NewReader(bytes.NewReader(buf.Bytes())).Read(); err != io.EOF {
			t.Fatalf("v%d Read = %v, want io.EOF", version, err)
		}
		pn, err := NewReader(bytes.NewReader(buf.Bytes())).ReadAllSharded(&Collect{}, 4)
		if err != nil || pn != 0 {
			t.Fatalf("v%d parallel = %d, %v", version, pn, err)
		}
	}
}

// TestWriterSealing: Flush seals a v2 trace; the Handle path latches the
// resulting ErrFinished instead of corrupting the file.
func TestWriterSealing(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Record{App: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{T: time.Second}); !errors.Is(err, ErrFinished) {
		t.Fatalf("Write after Flush = %v, want ErrFinished", err)
	}
	w.Handle(Record{T: time.Second})
	if !errors.Is(w.Err(), ErrFinished) {
		t.Fatalf("Err() = %v, want ErrFinished", w.Err())
	}
}

// TestReaderErrLatchesCause: the sentinel errors keep their identity while
// Err() preserves the underlying EOF-tail/IO state the old reader dropped.
func TestReaderErrLatchesCause(t *testing.T) {
	// v1 stream truncated mid-varint.
	trunc := append([]byte("CSTR"), version1, 0, 0, 0, 0x80)
	rd := NewReader(bytes.NewReader(trunc))
	if _, err := rd.Read(); err != ErrCorrupt {
		t.Fatalf("Read = %v, want ErrCorrupt", err)
	}
	if rd.Err() != io.ErrUnexpectedEOF {
		t.Fatalf("Err() = %v, want io.ErrUnexpectedEOF", rd.Err())
	}

	// Header shorter than 8 bytes: bad magic, cause latched.
	rd2 := NewReader(bytes.NewReader([]byte("CST")))
	if _, err := rd2.Read(); err != ErrBadMagic {
		t.Fatalf("Read = %v, want ErrBadMagic", err)
	}
	if rd2.Err() == nil {
		t.Fatal("Err() = nil, want latched cause")
	}

	// A clean v1 EOF latches nothing.
	var buf bytes.Buffer
	w := NewWriterV1(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rd3 := NewReader(&buf)
	if _, err := rd3.Read(); err != io.EOF {
		t.Fatalf("Read = %v, want io.EOF", err)
	}
	if rd3.Err() != nil {
		t.Fatalf("Err() = %v, want nil", rd3.Err())
	}
}

// TestVersionPolicy: version bytes above the current version must error
// cleanly everywhere, and ReadIndex must identify v1 as index-less.
func TestVersionPolicy(t *testing.T) {
	future := append([]byte("CSTR"), 5, 0, 0, 0)
	if _, err := NewReader(bytes.NewReader(future)).Read(); err != ErrBadVersion {
		t.Fatalf("Read = %v, want ErrBadVersion", err)
	}
	if _, err := NewReader(bytes.NewReader(future)).ReadAllSharded(&Collect{}, 4); err != ErrBadVersion {
		t.Fatalf("ReadAllSharded = %v, want ErrBadVersion", err)
	}
	if _, err := ReadIndex(bytes.NewReader(future), int64(len(future))); err != ErrBadVersion {
		// ReadIndex sees a file too small before it sees the version;
		// grow it past the minimum.
		padded := append(append([]byte{}, future...), make([]byte, 64)...)
		if _, err := ReadIndex(bytes.NewReader(padded), int64(len(padded))); err != ErrBadVersion {
			t.Fatalf("ReadIndex = %v, want ErrBadVersion", err)
		}
	}

	var v1 bytes.Buffer
	w := NewWriterV1(&v1)
	for i := 0; i < 100; i++ {
		if err := w.Write(Record{T: time.Duration(i) * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndex(bytes.NewReader(v1.Bytes()), int64(v1.Len())); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("ReadIndex(v1) = %v, want ErrNoIndex", err)
	}
	// A v1 trace through ReadAllSharded is silently read record by record —
	// that is the documented fallback, not a warning case.
	rd := NewReader(bytes.NewReader(v1.Bytes()))
	pn, err := rd.ReadAllSharded(&Collect{}, 4)
	if err != nil || pn != 100 {
		t.Fatalf("v1 via ReadAllSharded = %d, %v", pn, err)
	}
}

// goldenV1 is a two-record v1 file written by the original (pre-v2) Writer,
// byte for byte; goldenV2, goldenV3 and goldenV4 are the same stream in v2,
// v3 and v4 form, as specified in docs/FORMAT.md. (The tiny golden payloads
// do not shrink under flate, so the v3/v4 writers store them uncompressed
// with the flag clear — which pins the adaptive store-raw path too.) If any
// comparison breaks, the on-disk format changed and the compatibility
// policy was violated.
var (
	goldenRecords = []Record{
		{T: 0, Dir: In, Kind: KindGame, Client: 1, App: 40},
		{T: 50 * time.Millisecond, Dir: Out, Kind: KindGame, Client: 1, App: 130},
	}
	goldenPayload = []byte{
		0x00, 0x00, 0x01, 0x28, // delta 0 | in/game | client 1 | app 40
		0x80, 0xE1, 0xEB, 0x17, // delta 50 ms (uvarint 50 000 000)
		0x01, 0x01, 0x82, 0x01, // out/game | client 1 | app 130
	}
	goldenV1 = append([]byte{'C', 'S', 'T', 'R', 1, 0, 0, 0}, goldenPayload...)
	goldenV2 = func() []byte {
		b := []byte{'C', 'S', 'T', 'R', 2, 0, 0, 0}
		// Segment frame at offset 8.
		b = append(b, 'C', 'S', 'E', 'G')
		b = binary.LittleEndian.AppendUint32(b, 12) // payload bytes
		b = binary.LittleEndian.AppendUint32(b, 2)  // records
		b = binary.LittleEndian.AppendUint64(b, 0)  // baseT
		b = binary.LittleEndian.AppendUint64(b, 0)  // minT
		b = binary.LittleEndian.AppendUint64(b, 50_000_000)
		b = append(b, goldenPayload...)
		// Index frame at offset 56.
		b = append(b, 'C', 'S', 'I', 'X')
		b = binary.LittleEndian.AppendUint32(b, 1)
		b = binary.LittleEndian.AppendUint64(b, 8)
		b = binary.LittleEndian.AppendUint32(b, 12)
		b = binary.LittleEndian.AppendUint32(b, 2)
		b = binary.LittleEndian.AppendUint64(b, 0)
		b = binary.LittleEndian.AppendUint64(b, 0)
		b = binary.LittleEndian.AppendUint64(b, 50_000_000)
		// Footer.
		b = binary.LittleEndian.AppendUint64(b, 2)
		b = binary.LittleEndian.AppendUint64(b, 56)
		b = binary.LittleEndian.AppendUint32(b, 1)
		return append(b, 'C', 'S', 'F', 'T')
	}()
	goldenV3 = func() []byte {
		b := []byte{'C', 'S', 'T', 'R', 3, 0, 0, 0}
		// Segment frame at offset 8: the v2 header plus a flags word
		// (clear: 12 bytes do not shrink under flate, so the payload is
		// stored raw and no rawLen field follows).
		b = append(b, 'C', 'S', 'E', 'G')
		b = binary.LittleEndian.AppendUint32(b, 12) // payload bytes
		b = binary.LittleEndian.AppendUint32(b, 2)  // records
		b = binary.LittleEndian.AppendUint32(b, 0)  // flags: uncompressed
		b = binary.LittleEndian.AppendUint64(b, 0)  // baseT
		b = binary.LittleEndian.AppendUint64(b, 0)  // minT
		b = binary.LittleEndian.AppendUint64(b, 50_000_000)
		b = append(b, goldenPayload...)
		// Index frame at offset 60.
		b = append(b, 'C', 'S', 'I', 'X')
		b = binary.LittleEndian.AppendUint32(b, 1)
		b = binary.LittleEndian.AppendUint64(b, 8)
		b = binary.LittleEndian.AppendUint32(b, 12) // payloadLen
		b = binary.LittleEndian.AppendUint32(b, 2)  // count
		b = binary.LittleEndian.AppendUint32(b, 0)  // flags
		b = binary.LittleEndian.AppendUint32(b, 12) // rawLen == payloadLen
		b = binary.LittleEndian.AppendUint64(b, 0)
		b = binary.LittleEndian.AppendUint64(b, 0)
		b = binary.LittleEndian.AppendUint64(b, 50_000_000)
		// Footer.
		b = binary.LittleEndian.AppendUint64(b, 2)
		b = binary.LittleEndian.AppendUint64(b, 60)
		b = binary.LittleEndian.AppendUint32(b, 1)
		return append(b, 'C', 'S', 'F', 'T')
	}()
	// goldenPayloadV4 is the same two records field-striped: a 16-byte
	// column header (run lengths, LE u32 each) followed by the four runs —
	// timestamp deltas, flags, client ids, app sizes. The runs concatenate
	// the exact field encodings of the interleaved goldenPayload.
	goldenPayloadV4 = []byte{
		5, 0, 0, 0, // deltas run: 5 bytes
		2, 0, 0, 0, // flags run: 2 bytes
		2, 0, 0, 0, // clients run: 2 bytes
		3, 0, 0, 0, // apps run: 3 bytes
		0x00, 0x80, 0xE1, 0xEB, 0x17, // deltas: 0, 50 ms (uvarint 50 000 000)
		0x00, 0x01, // flags: in/game, out/game
		0x01, 0x01, // clients: 1, 1
		0x28, 0x82, 0x01, // apps: 40, 130
	}
	goldenV4 = func() []byte {
		b := []byte{'C', 'S', 'T', 'R', 4, 0, 0, 0}
		// Segment frame at offset 8: the v3 header with the columnar flag
		// set and the compressed flag clear (the 28-byte stored form with
		// per-run flate is no smaller, so the payload is stored raw and no
		// rawLen field follows).
		b = append(b, 'C', 'S', 'E', 'G')
		b = binary.LittleEndian.AppendUint32(b, 28)          // payload bytes
		b = binary.LittleEndian.AppendUint32(b, 2)           // records
		b = binary.LittleEndian.AppendUint32(b, SegColumnar) // flags
		b = binary.LittleEndian.AppendUint64(b, 0)           // baseT
		b = binary.LittleEndian.AppendUint64(b, 0)           // minT
		b = binary.LittleEndian.AppendUint64(b, 50_000_000)
		b = append(b, goldenPayloadV4...)
		// Index frame at offset 76.
		b = append(b, 'C', 'S', 'I', 'X')
		b = binary.LittleEndian.AppendUint32(b, 1)
		b = binary.LittleEndian.AppendUint64(b, 8)
		b = binary.LittleEndian.AppendUint32(b, 28)          // payloadLen
		b = binary.LittleEndian.AppendUint32(b, 2)           // count
		b = binary.LittleEndian.AppendUint32(b, SegColumnar) // flags
		b = binary.LittleEndian.AppendUint32(b, 28)          // rawLen == payloadLen
		b = binary.LittleEndian.AppendUint64(b, 0)
		b = binary.LittleEndian.AppendUint64(b, 0)
		b = binary.LittleEndian.AppendUint64(b, 50_000_000)
		// Footer.
		b = binary.LittleEndian.AppendUint64(b, 2)
		b = binary.LittleEndian.AppendUint64(b, 76)
		b = binary.LittleEndian.AppendUint32(b, 1)
		return append(b, 'C', 'S', 'F', 'T')
	}()
)

// TestGoldenFiles: all golden byte strings decode to the golden records,
// and today's writers reproduce them exactly.
func TestGoldenFiles(t *testing.T) {
	for name, raw := range map[string][]byte{"v1": goldenV1, "v2": goldenV2, "v3": goldenV3, "v4": goldenV4} {
		var got Collect
		n, err := NewReader(bytes.NewReader(raw)).ReadAll(&got)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != 2 || got.Records[0] != goldenRecords[0] || got.Records[1] != goldenRecords[1] {
			t.Fatalf("%s decoded %d: %+v", name, n, got.Records)
		}
	}

	var v1, v2, v3, v4 bytes.Buffer
	w1, w2, w3, w4 := NewWriterV1(&v1), NewWriterV2(&v2), NewWriterV3(&v3), NewWriter(&v4)
	for _, r := range goldenRecords {
		for _, w := range []*Writer{w1, w2, w3, w4} {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, w := range []*Writer{w1, w2, w3, w4} {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(v1.Bytes(), goldenV1) {
		t.Errorf("v1 writer output diverged from golden:\n got %x\nwant %x", v1.Bytes(), goldenV1)
	}
	if !bytes.Equal(v2.Bytes(), goldenV2) {
		t.Errorf("v2 writer output diverged from golden:\n got %x\nwant %x", v2.Bytes(), goldenV2)
	}
	if !bytes.Equal(v3.Bytes(), goldenV3) {
		t.Errorf("v3 writer output diverged from golden:\n got %x\nwant %x", v3.Bytes(), goldenV3)
	}
	if !bytes.Equal(v4.Bytes(), goldenV4) {
		t.Errorf("v4 writer output diverged from golden:\n got %x\nwant %x", v4.Bytes(), goldenV4)
	}
}

// TestRoundTripEquality: the identical record stream written in all four
// format versions decodes to the identical records on every read path.
func TestRoundTripEquality(t *testing.T) {
	const n = 12000
	recs, rawV1 := versionStream(t, 1, n, 0)
	_, rawV2 := versionStream(t, 2, n, 1<<10)
	_, rawV3 := versionStream(t, 3, n, 1<<10)
	_, rawV4 := versionStream(t, 4, n, 1<<10)

	for name, raw := range map[string][]byte{"v1": rawV1, "v2": rawV2, "v3": rawV3, "v4": rawV4} {
		paths := map[string]func(rd *Reader, h Handler) (int64, error){
			"readall":  func(rd *Reader, h Handler) (int64, error) { return rd.ReadAll(h) },
			"prefetch": func(rd *Reader, h Handler) (int64, error) { return rd.ReadAllPrefetch(h) },
			"parallel": func(rd *Reader, h Handler) (int64, error) { return rd.ReadAllSharded(batchOnly{h}, 4) },
			"sharded":  func(rd *Reader, h Handler) (int64, error) { return rd.ReadAllSharded(h, 4) },
		}
		for path, read := range paths {
			got := &blockCollect{}
			pn, err := read(NewReader(bytes.NewReader(raw)), got)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, path, err)
			}
			if pn != n || len(got.records) != n {
				t.Fatalf("%s/%s: %d/%d records", name, path, pn, len(got.records))
			}
			for i := range recs {
				if got.records[i] != recs[i] {
					t.Fatalf("%s/%s: record %d diverges", name, path, i)
				}
			}
		}
	}
}
