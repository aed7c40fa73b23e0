package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
	"time"
)

// v4recs builds the deterministic test stream shared by the v4 tests.
func v4recs(n int) []Record {
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, Record{
			T:      time.Duration(i) * 173 * time.Microsecond,
			Dir:    Direction(i % 2),
			Kind:   Kind(i % 5),
			Client: uint32(i % 31),
			App:    uint16(20 + i%300),
		})
	}
	return recs
}

// writeStream encodes recs through a configured writer and returns the bytes.
func writeStream(t *testing.T, recs []Record, configure func(w *Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if configure != nil {
		configure(w)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriterParallelDeterministic: for a given (version, level), the file
// bytes must be identical whatever the worker count — the asynchronous
// compression pipeline reorders work, never output. This is the golden
// determinism pin for the write-side pipeline.
func TestWriterParallelDeterministic(t *testing.T) {
	recs := v4recs(30000)
	base := writeStream(t, recs, func(w *Writer) { w.SegmentPayload = 1 << 10 })
	for _, workers := range []int{2, 3, 8} {
		got := writeStream(t, recs, func(w *Writer) {
			w.SegmentPayload = 1 << 10
			w.Workers = workers
		})
		if !bytes.Equal(got, base) {
			t.Fatalf("Workers=%d output diverges from serial (%d vs %d bytes)", workers, len(got), len(base))
		}
	}
	// Same property for the v3 whole-payload compressor.
	var v3base, v3par bytes.Buffer
	for _, out := range []*bytes.Buffer{&v3base, &v3par} {
		w := NewWriterV3(out)
		w.SegmentPayload = 1 << 10
		if out == &v3par {
			w.Workers = 4
		}
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(v3base.Bytes(), v3par.Bytes()) {
		t.Fatal("v3 Workers=4 output diverges from serial")
	}
}

// TestWriterAsyncErrorLatches: a failure on a compression worker surfaces
// from Flush and Err instead of silently truncating the file.
func TestWriterAsyncErrorLatches(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SegmentPayload = 64
	w.Workers = 4
	w.CompressLevel = 42 // invalid: every deflate attempt fails
	for _, r := range v4recs(2000) {
		if err := w.Write(r); err != nil {
			break // the latched failure may surface mid-stream; that is fine
		}
	}
	if err := w.Flush(); err == nil {
		t.Fatal("Flush swallowed the worker failure")
	}
	if w.Err() == nil {
		t.Fatal("Err() did not latch the worker failure")
	}
}

// TestWriterSortWindow: a bounded-disorder stream written through SortWindow
// must produce byte-identical output to the same records pre-sorted — and a
// sorted stream must be unaffected by the window.
func TestWriterSortWindow(t *testing.T) {
	const n = 20000
	sorted := v4recs(n)
	// Bounded disorder: reverse disjoint chunks of 8, displacing each record
	// at most 7*173 µs — well inside the 10 ms window.
	shuffled := append([]Record{}, sorted...)
	for i := 0; i+8 <= len(shuffled); i += 8 {
		for a, b := i, i+7; a < b; a, b = a+1, b-1 {
			shuffled[a], shuffled[b] = shuffled[b], shuffled[a]
		}
	}
	base := writeStream(t, sorted, func(w *Writer) { w.SegmentPayload = 1 << 10 })
	for name, cfg := range map[string]struct {
		recs    []Record
		workers int
	}{
		"sorted-with-window":   {sorted, 0},
		"shuffled":             {shuffled, 0},
		"shuffled-and-workers": {shuffled, 4},
	} {
		got := writeStream(t, cfg.recs, func(w *Writer) {
			w.SegmentPayload = 1 << 10
			w.SortWindow = 10 * time.Millisecond
			w.Workers = cfg.workers
		})
		if !bytes.Equal(got, base) {
			t.Fatalf("%s: output diverges from plain sorted write (%d vs %d bytes)", name, len(got), len(base))
		}
	}
}

// TestWriterSortWindowTies: records with equal timestamps keep their arrival
// order through the sort buffer, matching SortBuffer's total order.
func TestWriterSortWindowTies(t *testing.T) {
	recs := []Record{
		{T: 0, Client: 1},
		{T: 2 * time.Millisecond, Client: 2},
		{T: time.Millisecond, Client: 3},
		{T: time.Millisecond, Client: 4}, // tie with the previous: stays after it
		{T: 3 * time.Millisecond, Client: 5},
	}
	raw := writeStream(t, recs, func(w *Writer) { w.SortWindow = 10 * time.Millisecond })
	var got Collect
	if _, err := NewReader(bytes.NewReader(raw)).ReadAll(&got); err != nil {
		t.Fatal(err)
	}
	wantClients := []uint32{1, 3, 4, 2, 5}
	for i, want := range wantClients {
		if got.Records[i].Client != want {
			t.Fatalf("record %d client = %d, want %d (order %v)", i, got.Records[i].Client, want, got.Records)
		}
	}
}

// TestWriterSortWindowExceeded: a record arriving further behind the
// high-water mark than the window is an error, not silent misordering.
func TestWriterSortWindowExceeded(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SortWindow = time.Millisecond
	if err := w.Write(Record{T: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{T: 5 * time.Millisecond}); err == nil {
		t.Fatal("Write accepted a record 5 ms behind the high-water mark with a 1 ms window")
	}
}

// columnCollect implements ColumnIngester: it records which delivery surface
// each chunk arrived on while accumulating the interleaved stream for
// comparison.
type columnCollect struct {
	records    []Record
	colIngests int
}

func (c *columnCollect) Handle(r Record)         { c.records = append(c.records, r) }
func (c *columnCollect) HandleBatch(rs []Record) { c.records = append(c.records, rs...) }
func (c *columnCollect) IngestBlock(blk *Block) {
	c.records = append(c.records, *blk...)
	FreeBlock(blk)
}
func (c *columnCollect) IngestColumns(cb *ColumnBlock) {
	c.colIngests++
	c.records = cb.AppendRecords(c.records)
	FreeColumnBlock(cb)
}

// TestShardedColumnDelivery: a column-aware sink on a v4 trace receives the
// segments as ColumnBlocks — in file order, interleaving to the exact serial
// stream — and actually takes the column path.
func TestShardedColumnDelivery(t *testing.T) {
	const n = 20000
	recs, raw := versionStream(t, 4, n, 1<<10)
	for _, workers := range []int{2, 3, 8} {
		got := &columnCollect{}
		rd := NewReader(bytes.NewReader(raw))
		pn, err := rd.ReadAllSharded(got, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.colIngests == 0 {
			t.Fatalf("workers=%d: column-aware sink never received columns", workers)
		}
		if pn != int64(n) || len(got.records) != n {
			t.Fatalf("workers=%d: delivered %d/%d records", workers, pn, len(got.records))
		}
		for i := range recs {
			if got.records[i] != recs[i] {
				t.Fatalf("workers=%d: record %d = %+v, want %+v", workers, i, got.records[i], recs[i])
			}
		}
	}
}

// scribbleColumns collects what it is given like columnCollect, then
// overwrites every column block it owns before recycling it — so a member of
// a Fanout that shared its block with another would corrupt that member's
// stream.
type scribbleColumns struct{ columnCollect }

func (c *scribbleColumns) IngestColumns(cb *ColumnBlock) {
	c.colIngests++
	c.records = cb.AppendRecords(c.records)
	clear(cb.T)
	clear(cb.Flags)
	clear(cb.Client)
	clear(cb.App)
	FreeColumnBlock(cb)
}

// TestFanoutColumnDelivery: a Tee of a column sink, a record sink and a
// column sink behind the read engine hands each member ReadAll's stream,
// v2 and v4, at 1 and 4 workers, with every pooled block back. On v4 the
// column members take columns; the first one's copy is its own to rewrite.
func TestFanoutColumnDelivery(t *testing.T) {
	for _, version := range []int{2, 4} {
		_, raw := versionStream(t, version, 30000, 1<<12)
		var want Collect
		if _, err := NewReader(bytes.NewReader(raw)).ReadAll(&want); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			out := poolOut.Load()
			first, recs, last := &scribbleColumns{}, &Collect{}, &scribbleColumns{}
			n, err := NewReader(bytes.NewReader(raw)).ReadAllSharded(Tee(first, recs, last), workers)
			if err != nil || n != int64(len(want.Records)) {
				t.Fatalf("v%d, %d workers: read %d records, %v; want %d", version, workers, n, err, len(want.Records))
			}
			for name, got := range map[string][]Record{"first column sink": first.records, "record sink": recs.Records, "last column sink": last.records} {
				if !slices.Equal(got, want.Records) {
					t.Errorf("v%d, %d workers: %s got %d records, not ReadAll's stream of %d", version, workers, name, len(got), len(want.Records))
				}
			}
			if cols := version == 4; (first.colIngests > 0) != cols || (last.colIngests > 0) != cols {
				t.Errorf("v%d, %d workers: column ingests %d and %d", version, workers, first.colIngests, last.colIngests)
			}
			if now := poolOut.Load(); now != out {
				t.Errorf("v%d, %d workers: %d pooled blocks not returned", version, workers, now-out)
			}
		}
	}
}

// TestV4ReservedFlagBit: a set flag bit outside the v4 mask must fail closed
// — ErrCorrupt from the frame parse, the index parse, and the parallel
// cross-check — because an unknown payload layout cannot be skipped.
func TestV4ReservedFlagBit(t *testing.T) {
	const n = 9000
	_, raw := versionStream(t, 4, n, 1<<10)
	ix, err := ReadIndex(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	seg := ix.Segments[2]
	minDelivered := int64(ix.Segments[0].Count + ix.Segments[1].Count)

	// Frame path: bit 2 set in segment 2's frame flags (offset+12).
	mutFrame := append([]byte{}, raw...)
	binary.LittleEndian.PutUint32(mutFrame[seg.Offset+12:], seg.Flags|1<<2)
	var serial Collect
	sn, serr := NewReader(bytes.NewReader(mutFrame)).ReadAll(&serial)
	if !errors.Is(serr, ErrCorrupt) {
		t.Fatalf("serial err = %v, want ErrCorrupt", serr)
	}
	if sn != minDelivered {
		t.Fatalf("serial delivered %d records, want exactly %d (reserved bit must fail closed)", sn, minDelivered)
	}
	for _, workers := range []int{4} {
		for name, read := range map[string]func(rd *Reader, h Handler) (int64, error){
			"parallel": func(rd *Reader, h Handler) (int64, error) { return rd.ReadAllSharded(batchOnly{h}, workers) },
			"sharded":  func(rd *Reader, h Handler) (int64, error) { return rd.ReadAllSharded(h, workers) },
		} {
			got := &columnCollect{}
			pn, perr := read(NewReader(bytes.NewReader(mutFrame)), got)
			if !errors.Is(perr, ErrCorrupt) {
				t.Fatalf("%s: err = %v, want ErrCorrupt", name, perr)
			}
			if pn != minDelivered {
				t.Fatalf("%s: delivered %d records, want exactly %d", name, pn, minDelivered)
			}
		}
	}

	// Index path: the same bit in the index entry is rejected up front.
	footOff := int64(len(raw)) - footerLen
	indexOff := int64(binary.LittleEndian.Uint64(raw[footOff+8:]))
	entryOff := indexOff + indexHeaderLen + 2*indexEntryLenV3
	mutIndex := append([]byte{}, raw...)
	binary.LittleEndian.PutUint32(mutIndex[entryOff+16:], seg.Flags|1<<2)
	if _, err := ReadIndex(bytes.NewReader(mutIndex), int64(len(mutIndex))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("index: err = %v, want ErrCorrupt", err)
	}
}

// TestV4ColumnHeaderMismatch: a column header whose flags-run length
// disagrees with the record count, or whose run sizes do not sum to the
// declared raw length, fails closed with no records from that segment.
func TestV4ColumnHeaderMismatch(t *testing.T) {
	const n = 9000
	recs := v4recs(n)
	raw := writeStream(t, recs, func(w *Writer) {
		w.SegmentPayload = 1 << 10
		w.CompressLevel = CompressOff // raw column header sits in the file
	})
	ix, err := ReadIndex(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	seg := ix.Segments[2]
	minDelivered := int64(ix.Segments[0].Count + ix.Segments[1].Count)
	payloadOff := seg.Offset + int64(seg.frameHeaderLen(4))

	lens, _ := parseColHeader(raw[payloadOff:])
	cases := map[string]func(b []byte){
		// One extra flags byte claimed: count mismatch.
		"flags-count": func(b []byte) {
			binary.LittleEndian.PutUint32(b[payloadOff+4:], uint32(seg.Count+1))
		},
		// Deltas run shrunk by one: the sum no longer matches RawLen.
		"run-sum": func(b []byte) {
			binary.LittleEndian.PutUint32(b[payloadOff:], uint32(lens[0]-1))
		},
	}
	for name, mutate := range cases {
		bad := append([]byte{}, raw...)
		mutate(bad)
		var serial Collect
		sn, serr := NewReader(bytes.NewReader(bad)).ReadAll(&serial)
		if !errors.Is(serr, ErrCorrupt) {
			t.Fatalf("%s: serial err = %v, want ErrCorrupt", name, serr)
		}
		if sn != minDelivered {
			t.Fatalf("%s: serial delivered %d records, want exactly %d (header damage fails closed)", name, sn, minDelivered)
		}
		for path, read := range map[string]func(rd *Reader, h Handler) (int64, error){
			"parallel": func(rd *Reader, h Handler) (int64, error) { return rd.ReadAllSharded(batchOnly{h}, 4) },
			"sharded":  func(rd *Reader, h Handler) (int64, error) { return rd.ReadAllSharded(h, 4) },
		} {
			got := &columnCollect{}
			pn, perr := read(NewReader(bytes.NewReader(bad)), got)
			if !errors.Is(perr, ErrCorrupt) {
				t.Fatalf("%s/%s: err = %v, want ErrCorrupt", name, path, perr)
			}
			if pn != minDelivered || int64(len(got.records)) != pn {
				t.Fatalf("%s/%s: delivered %d records, want exactly %d", name, path, pn, minDelivered)
			}
		}
	}
}

// TestV4CorruptColumnRuns: damage inside a compressed column run —
// truncation, a flipped byte, oversized stored length — surfaces ErrCorrupt
// on every read path with all records of the preceding segments delivered.
func TestV4CorruptColumnRuns(t *testing.T) {
	const n = 9000
	_, raw := versionStream(t, 4, n, 1<<10)
	ix, err := ReadIndex(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	target := -1
	for i := 2; i < len(ix.Segments)-1; i++ {
		if ix.Segments[i].Compressed() {
			target = i
			break
		}
	}
	if target < 0 {
		t.Fatal("no compressed columnar segment to damage; per-run compression not engaging?")
	}
	seg := ix.Segments[target]
	payloadOff := seg.Offset + int64(seg.frameHeaderLen(4))
	minDelivered := int64(0)
	for _, si := range ix.Segments[:target] {
		minDelivered += int64(si.Count)
	}

	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte{}, raw...))
	}
	cases := map[string][]byte{
		// The file ends inside the stored runs: no index survives.
		"truncated-file": raw[:payloadOff+int64(seg.PayloadLen)/2],
		// A flipped byte inside a stored run.
		"bit-flip": mutate(func(b []byte) []byte {
			b[payloadOff+int64(seg.PayloadLen)/2] ^= 0xFF
			return b
		}),
		// A stored run claiming more bytes than its raw size.
		"stored-oversize": mutate(func(b []byte) []byte {
			rawL, _ := parseColHeader(b[payloadOff:])
			binary.LittleEndian.PutUint32(b[payloadOff+colHeaderLen:], uint32(rawL[0]+1))
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
			continue // no index survives: every path is the same frame scan
		}
		for path, read := range map[string]func(rd *Reader, h Handler) (int64, error){
			"parallel": func(rd *Reader, h Handler) (int64, error) { return rd.ReadAllSharded(batchOnly{h}, 4) },
			"sharded":  func(rd *Reader, h Handler) (int64, error) { return rd.ReadAllSharded(h, 4) },
		} {
			got := &columnCollect{}
			rd := NewReader(bytes.NewReader(bad))
			pn, perr := read(rd, got)
			if !errors.Is(perr, ErrCorrupt) {
				t.Fatalf("%s/%s: err = %v, want ErrCorrupt", name, path, perr)
			}
			if rd.Err() == nil || !errors.Is(rd.Err(), ErrCorrupt) {
				t.Fatalf("%s/%s: cause not latched: Err() = %v", name, path, rd.Err())
			}
			if pn < minDelivered || int64(len(got.records)) != pn {
				t.Fatalf("%s/%s: delivered %d records before error, want ≥ %d", name, path, pn, minDelivered)
			}
			for i := range serial.Records[:minDelivered] {
				if got.records[i] != serial.Records[i] {
					t.Fatalf("%s/%s: pre-error record %d diverges", name, path, i)
				}
			}
		}
	}
}

// TestReadColumnStats: the per-column totals must tile the index's raw and
// payload byte totals exactly.
func TestReadColumnStats(t *testing.T) {
	const n = 20000
	_, raw := versionStream(t, 4, n, 1<<10)
	ix, err := ReadIndex(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := ReadColumnStats(bytes.NewReader(raw), ix)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Segments != len(ix.Segments) {
		t.Fatalf("Segments = %d, want %d", cs.Segments, len(ix.Segments))
	}
	if cs.Compressed != ix.CompressedSegments() {
		t.Fatalf("Compressed = %d, want %d", cs.Compressed, ix.CompressedSegments())
	}
	var rawSum, stoSum int64
	for c := range cs.Raw {
		rawSum += cs.Raw[c]
		stoSum += cs.Stored[c]
	}
	// Raw totals exclude the 16-byte raw header per segment; stored totals
	// exclude both headers of compressed segments and the raw header of
	// uncompressed ones.
	wantRaw := ix.RawBytes() - int64(cs.Segments*colHeaderLen)
	wantSto := ix.PayloadBytes() - int64(cs.Segments*colHeaderLen) - int64(cs.Compressed*colHeaderLen)
	if rawSum != wantRaw {
		t.Fatalf("raw columns sum to %d, want %d", rawSum, wantRaw)
	}
	if stoSum != wantSto {
		t.Fatalf("stored columns sum to %d, want %d", stoSum, wantSto)
	}
	if stoSum >= rawSum {
		t.Fatalf("stored %d not smaller than raw %d; compression not engaging", stoSum, rawSum)
	}
}
