package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"sort"
	"testing"
	"time"
)

// rangeTrace builds a trace of count records at fixed spacing with small
// segments, so range queries span several segments.
func rangeTrace(t *testing.T, v1 bool, count int, gap time.Duration) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if v1 {
		w = NewWriterV1(&buf)
	}
	w.SegmentPayload = 256 // many small segments
	for i := 0; i < count; i++ {
		if err := w.Write(rangeRecord(i, gap)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rangeRecord is record i of rangeTrace: at i·gap, with an app size of
// 40 + i%100, so records 88–99 of every hundred take a two-byte varint.
func rangeRecord(i int, gap time.Duration) Record {
	return Record{
		T:      time.Duration(i) * gap,
		Dir:    Direction(i & 1),
		Kind:   KindGame,
		Client: uint32(i%50 + 1),
		App:    uint16(40 + i%100),
	}
}

// TestReadRangeMatchesFilteredScan: the indexed range read must deliver
// exactly the records a full scan filtered to [from, to) would, in order,
// for ranges landing on and off segment boundaries.
func TestReadRangeMatchesFilteredScan(t *testing.T) {
	const count = 5000
	gap := time.Millisecond
	raw := rangeTrace(t, false, count, gap)

	var all Collect
	if _, err := NewReader(bytes.NewReader(raw)).ReadAll(&all); err != nil {
		t.Fatal(err)
	}

	cases := []struct{ from, to time.Duration }{
		{0, 5 * time.Second},                 // prefix
		{time.Second, 2 * time.Second},       // interior
		{4900 * time.Millisecond, time.Hour}, // suffix, open end
		{time.Hour, 2 * time.Hour},           // empty, past the end
		{0, 1},                               // single leading record
		{2500 * time.Millisecond, 2500*time.Millisecond + 1}, // single interior record
		{3 * time.Second, time.Second},                       // inverted: empty
	}
	for _, tc := range cases {
		var want Collect
		for _, r := range all.Records {
			if r.T >= tc.from && r.T < tc.to {
				want.Records = append(want.Records, r)
			}
		}

		rd := NewReader(bytes.NewReader(raw))
		var got Collect
		n, err := rd.ReadRange(tc.from, tc.to, &got)
		if err != nil {
			t.Fatalf("[%v,%v): %v", tc.from, tc.to, err)
		}
		if rd.Warning() != "" {
			t.Fatalf("[%v,%v): unexpected degradation: %s", tc.from, tc.to, rd.Warning())
		}
		if n != int64(len(want.Records)) || !recordsEqual(got.Records, want.Records) {
			t.Errorf("[%v,%v): got %d records, want %d", tc.from, tc.to, n, len(want.Records))
		}
	}

	// Damaged legs. In an uncompressed copy of the trace, one app value in
	// the segment on the range's closing edge is pushed past 65535 — once
	// at a record inside the range, once at a record past the cut. Either
	// way the range read delivers exactly the full scan's records before
	// the damage, filtered to the range, and then fails as the scan does.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SegmentPayload, w.CompressLevel = 256, CompressOff
	for i := range count {
		if err := w.Write(rangeRecord(i, gap)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	ix, err := ReadIndex(bytes.NewReader(clean), int64(len(clean)))
	if err != nil {
		t.Fatal(err)
	}
	// The damaged record j and its successor both take two-byte apps, with
	// two records of the segment on either side of them.
	si, j := damageSite(t, ix, gap)
	for _, leg := range []struct {
		name string
		to   time.Duration
	}{
		{"inside the range", time.Duration(j+2) * gap},
		{"past the cut", time.Duration(j-1) * gap},
	} {
		from := si.MinT - 500*gap
		if leg.to <= si.MinT || leg.to > si.MaxT {
			t.Fatalf("%s: cut %v does not fall in the closing segment [%v, %v]", leg.name, leg.to, si.MinT, si.MaxT)
		}
		raw := slices.Clone(clean)
		raw[appByteOffset(raw, si, j, gap)+1] = 0xff // 0x01 → a continuation byte

		var all Collect
		_, scanErr := NewReader(bytes.NewReader(raw)).ReadAll(&all)
		if !errors.Is(scanErr, ErrCorrupt) {
			t.Fatalf("%s: full scan error %v, want ErrCorrupt", leg.name, scanErr)
		}
		var want []Record
		for _, r := range all.Records {
			if r.T >= from && r.T < leg.to {
				want = append(want, r)
			}
		}
		var got Collect
		n, err := NewReader(bytes.NewReader(raw)).ReadRange(from, leg.to, &got)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: range read error %v, want ErrCorrupt", leg.name, err)
		}
		if n != int64(len(want)) || !recordsEqual(got.Records, want) {
			t.Errorf("%s: range read delivered %d records, want the scan's %d", leg.name, n, len(want))
		}
	}
}

// damageSite picks a segment of a rangeTrace-shaped uncompressed v4 file,
// well past the start, and a record j in it whose app run bytes can be
// damaged: j and j+1 both take two-byte apps, and the segment holds at
// least two records before j and two after j+1.
func damageSite(t *testing.T, ix *Index, gap time.Duration) (SegmentInfo, int) {
	t.Helper()
	for _, si := range ix.Segments[len(ix.Segments)/2:] {
		first, last := int(si.MinT/gap), int(si.MaxT/gap)
		for j := first + 2; j+3 <= last; j++ {
			if j%100 >= 88 && j%100 <= 98 {
				return si, j
			}
		}
	}
	t.Fatal("no segment holds two consecutive two-byte apps")
	return SegmentInfo{}, 0
}

// appByteOffset returns the file offset of record j's app varint in the
// uncompressed columnar segment si of a rangeTrace-shaped file.
func appByteOffset(raw []byte, si SegmentInfo, j int, gap time.Duration) int {
	p := int(si.Offset) + si.frameHeaderLen(version4)
	lens, _ := parseColHeader(raw[p:])
	off := p + colHeaderLen + lens[0] + lens[1] + lens[2]
	for i := int(si.MinT / gap); i < j; i++ {
		off += len(binary.AppendUvarint(nil, uint64(rangeRecord(i, gap).App)))
	}
	return off
}

// TestReadRangeFallbacks: a v1 trace (read record by record) and a
// non-seekable source (read by frame scan) deliver what the filtered full
// scan does.
func TestReadRangeFallbacks(t *testing.T) {
	const count = 2000
	gap := time.Millisecond
	from, to := 500*time.Millisecond, 700*time.Millisecond

	want := func(raw []byte) []Record {
		var all Collect
		if _, err := NewReader(bytes.NewReader(raw)).ReadAll(&all); err != nil {
			t.Fatal(err)
		}
		var out []Record
		for _, r := range all.Records {
			if r.T >= from && r.T < to {
				out = append(out, r)
			}
		}
		return out
	}

	// v1: no index can exist; silent record-by-record scan.
	rawV1 := rangeTrace(t, true, count, gap)
	var gotV1 Collect
	if _, err := NewReader(bytes.NewReader(rawV1)).ReadRange(from, to, &gotV1); err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(gotV1.Records, want(rawV1)) {
		t.Error("v1 fallback range read diverges from filtered scan")
	}

	// v2 through a non-seekable source: frame scan plus a warning.
	rawV2 := rangeTrace(t, false, count, gap)
	rd := NewReader(onlyReader{bytes.NewReader(rawV2)})
	var gotNS Collect
	if _, err := rd.ReadRange(from, to, &gotNS); err != nil {
		t.Fatal(err)
	}
	if rd.Warning() == "" {
		t.Error("non-seekable v2 range read should warn about the frame scan")
	}
	if !recordsEqual(gotNS.Records, want(rawV2)) {
		t.Error("non-seekable fallback range read diverges from filtered scan")
	}
}

// TestReadRangeReadsOnlyOverlap: the random-access reads a range read
// makes are the file header, the footer, the index and the frames of the
// segments overlapping the range — nothing else — so a tight range on a
// many-segment file costs I/O proportional to the slice, not to the file.
// (The format-version probe reads the stream, not ReadAt.) Off a stream,
// the frame scan delivers the same records and stops reading one frame
// header past the range, give or take its read-ahead buffer.
func TestReadRangeReadsOnlyOverlap(t *testing.T) {
	const count = 50000
	gap := time.Millisecond
	for _, level := range []int{0, CompressOff} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.SegmentPayload = 1 << 14
		w.CompressLevel = level
		for i := range count {
			if err := w.Write(rangeRecord(i, gap)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		ix, err := ReadIndex(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			t.Fatal(err)
		}
		if len(ix.Segments) < 10 {
			t.Fatalf("level %d: want a many-segment file, got %d segments", level, len(ix.Segments))
		}

		from, to := 20*time.Second, 20*time.Second+10*gap
		want := int64(headerLen + footerLen + indexHeaderLen + len(ix.Segments)*indexEntryLenV3)
		overlap := 0
		for _, si := range ix.Segments {
			if si.MaxT >= from && si.MinT < to {
				want += int64(si.frameHeaderLen(version4) + si.PayloadLen)
				overlap++
			}
		}
		src := &countingSource{Reader: bytes.NewReader(raw)}
		rd := NewReader(src)
		var got Collect
		n, err := rd.ReadRange(from, to, &got)
		if err != nil || n != 10 || rd.Warning() != "" {
			t.Fatalf("level %d: range read %d records, %v (warning %q), want 10", level, n, err, rd.Warning())
		}
		if overlap == 0 || overlap > 2 {
			t.Fatalf("level %d: a 10-record range overlaps %d segments", level, overlap)
		}
		if src.readAt != want {
			t.Errorf("level %d: range read fetched %d bytes at random, want %d (index, footer, header and %d overlapping frames) of a %d-byte file",
				level, src.readAt, want, overlap, len(raw))
		}

		stream := &countingReader{r: bytes.NewReader(raw)}
		rd = NewReader(stream)
		var scanned Collect
		if n, err := rd.ReadRange(from, to, &scanned); err != nil || n != 10 || rd.Warning() == "" {
			t.Fatalf("level %d: stream range read %d records, %v (warning %q), want 10 and a warning", level, n, err, rd.Warning())
		}
		if !recordsEqual(scanned.Records, got.Records) {
			t.Errorf("level %d: stream range read diverges from the indexed one", level)
		}
		past := ix.Segments[sort.Search(len(ix.Segments), func(i int) bool { return ix.Segments[i].MinT >= to })]
		limit := past.Offset + int64(past.frameHeaderLen(version4)) + 1<<16
		if limit >= int64(len(raw)) {
			t.Fatalf("level %d: a %d-byte file is too short to tell where the scan stops", level, len(raw))
		}
		if stream.n > limit {
			t.Errorf("level %d: stream range read consumed %d bytes of %d; the first frame past the range starts at %d",
				level, stream.n, len(raw), past.Offset)
		}
	}
}

// countingReader is a plain stream that tallies the bytes it returns.
type countingReader struct {
	r *bytes.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// countingSource is a seekable source that tallies the bytes ReadAt
// returns.
type countingSource struct {
	*bytes.Reader
	readAt int64
}

func (c *countingSource) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.Reader.ReadAt(p, off)
	c.readAt += int64(n)
	return n, err
}

// TestReadRangeCutLongVarints: a uvarint may legally take more bytes than
// its shortest encoding (Uvarint accepts up to ten). A closing boundary
// segment whose client and app runs spend more still delivers, cut at the
// range's end, exactly what the full scan does — literal and coded runs
// alike.
func TestReadRangeCutLongVarints(t *testing.T) {
	const n = 20
	var d, f, c, a []byte
	for i := range n {
		d = binary.AppendUvarint(d, uint64(min(i, 1)*int(time.Millisecond)))
		f = append(f, byte(i%2))
		c = append(c, byte(i)|0x80, 0x80, 0x80, 0x80, 0x80, 0) // client i in six bytes
		a = append(a, 0xa8, 0x80, 0)                           // app 40 in three
	}
	raw := make([]byte, colHeaderLen)
	for i, run := range [][]byte{d, f, c, a} {
		binary.LittleEndian.PutUint32(raw[4*i:], uint32(len(run)))
	}
	raw = slices.Concat(raw, d, f, c, a)
	var cs compScratch
	for _, level := range []int{CompressOff, 6} {
		payload, flags, err := cs.encode(version4, raw, level)
		if err != nil {
			t.Fatal(err)
		}
		if (level == CompressOff) == (flags&SegCompressed != 0) {
			t.Fatalf("level %d: segment flags %#x", level, flags)
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.writeHeader(); err != nil {
			t.Fatal(err)
		}
		if err := w.writeFrame(payload, flags, len(raw), segMeta{count: n, max: (n - 1) * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		w.n = n
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		var all, cut Collect
		if _, err := NewReader(bytes.NewReader(buf.Bytes())).ReadAll(&all); err != nil || len(all.Records) != n {
			t.Fatalf("level %d: full scan read %d records: %v", level, len(all.Records), err)
		}
		got, err := NewReader(bytes.NewReader(buf.Bytes())).ReadRange(0, 10*time.Millisecond+1, &cut)
		if err != nil || got != 11 || !recordsEqual(cut.Records, all.Records[:11]) {
			t.Fatalf("level %d: range read %d records (%v), want the scan's first 11", level, got, err)
		}
	}
}

// onlyReader hides Seek/ReadAt from the reader.
type onlyReader struct{ r *bytes.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

func recordsEqual(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReadRangeEdgeCases pins the degenerate inputs down one by one:
// empty and inverted ranges, from == to, ranges entirely past the end of
// the trace, and a range falling entirely inside a single segment — each
// on both the indexed and the serial (v1) path.
func TestReadRangeEdgeCases(t *testing.T) {
	const count = 2000
	gap := time.Millisecond
	for _, v1 := range []bool{false, true} {
		name := "indexed"
		if v1 {
			name = "serial-v1"
		}
		raw := rangeTrace(t, v1, count, gap)
		read := func(from, to time.Duration) ([]Record, int64, error) {
			t.Helper()
			var got Collect
			n, err := NewReader(bytes.NewReader(raw)).ReadRange(from, to, &got)
			if n != int64(len(got.Records)) {
				t.Fatalf("%s [%v,%v): returned n=%d but delivered %d records", name, from, to, n, len(got.Records))
			}
			return got.Records, n, err
		}

		t.Run(name+"/from==to", func(t *testing.T) {
			for _, at := range []time.Duration{0, time.Second, 10 * time.Hour} {
				if recs, n, err := read(at, at); n != 0 || err != nil || len(recs) != 0 {
					t.Errorf("[%v,%v) = %d records, %v; want 0, nil", at, at, n, err)
				}
			}
		})
		t.Run(name+"/empty and inverted", func(t *testing.T) {
			if _, n, err := read(time.Second, 0); n != 0 || err != nil {
				t.Errorf("inverted range = %d, %v; want 0, nil", n, err)
			}
			if _, n, err := read(2*time.Second, time.Second); n != 0 || err != nil {
				t.Errorf("backwards range = %d, %v; want 0, nil", n, err)
			}
			if _, n, err := read(-time.Second, 0); n != 0 || err != nil {
				t.Errorf("negative-to-zero range = %d, %v; want 0, nil", n, err)
			}
		})
		t.Run(name+"/past EOF", func(t *testing.T) {
			// The last record is at (count-1)*gap; anything at or after
			// the record following it is empty.
			for _, from := range []time.Duration{count * gap, time.Hour} {
				if recs, n, err := read(from, from+time.Minute); n != 0 || err != nil || len(recs) != 0 {
					t.Errorf("[%v,%v) = %d records, %v; want empty", from, from+time.Minute, n, err)
				}
			}
		})
		t.Run(name+"/straddling EOF", func(t *testing.T) {
			recs, n, err := read((count-10)*gap, time.Hour)
			if err != nil || n != 10 {
				t.Errorf("tail range = %d records, %v; want 10, nil", n, err)
			}
			if len(recs) > 0 && recs[len(recs)-1].T != (count-1)*gap {
				t.Errorf("last record at %v, want %v", recs[len(recs)-1].T, (count-1)*gap)
			}
		})
	}

	// Range entirely inside one segment: a single-segment trace (huge
	// payload target) with an interior slice, checked against the
	// straightforward filter of a full scan.
	t.Run("inside one segment", func(t *testing.T) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for i := 0; i < count; i++ {
			if err := w.Write(Record{T: time.Duration(i) * gap, Client: 1, App: uint16(i % 200)}); err != nil {
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
		if len(ix.Segments) != 1 {
			t.Fatalf("test wants a single-segment trace, got %d segments", len(ix.Segments))
		}
		var all Collect
		if _, err := NewReader(bytes.NewReader(buf.Bytes())).ReadAll(&all); err != nil {
			t.Fatal(err)
		}
		from, to := 500*time.Millisecond, 700*time.Millisecond
		var want Collect
		for _, r := range all.Records {
			if r.T >= from && r.T < to {
				want.Handle(r)
			}
		}
		var got Collect
		n, err := NewReader(bytes.NewReader(buf.Bytes())).ReadRange(from, to, &got)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(want.Records)) || !recordsEqual(got.Records, want.Records) {
			t.Errorf("interior single-segment range: %d records, want %d", n, len(want.Records))
		}
	})
}
