package trace

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"cstrace/internal/faultio"
)

// faultRecord is the deterministic record stream the writer fault tests
// push, matching versionStream's shape.
func faultRecord(i int) Record {
	return Record{
		T:      time.Duration(i) * 173 * time.Microsecond,
		Dir:    Direction(i % 2),
		Kind:   Kind(i % 5),
		Client: uint32(i % 31),
		App:    uint16(20 + i%300),
	}
}

// TestWriterSyncEvery: with SyncEvery = 1 every sealed frame is followed by
// one sync on the sink, plus the final sync in Flush — so at any crash
// point, everything up to the last seal is durable.
func TestWriterSyncEvery(t *testing.T) {
	fw := &faultio.Writer{}
	w := NewWriter(fw)
	w.SegmentPayload = 512
	w.SyncEvery = 1
	for i := 0; i < 4000; i++ {
		if err := w.Write(faultRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := fw.Bytes()
	ix, err := ReadIndex(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	// One sync per sealed segment frame plus the final one after the
	// footer. The index frame itself sits between the last segment sync and
	// the final sync.
	want := len(ix.Segments) + 1
	if fw.Syncs() != want {
		t.Fatalf("observed %d syncs for %d segments, want %d", fw.Syncs(), len(ix.Segments), want)
	}

	// SyncEvery = 3 syncs a third as often (rounding down), final sync
	// included.
	fw3 := &faultio.Writer{}
	w3 := NewWriter(fw3)
	w3.SegmentPayload = 512
	w3.SyncEvery = 3
	for i := 0; i < 4000; i++ {
		if err := w3.Write(faultRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w3.Flush(); err != nil {
		t.Fatal(err)
	}
	frames := len(ix.Segments) // same stream, same sealing
	if got, want := fw3.Syncs(), frames/3+1; got != want {
		t.Fatalf("SyncEvery=3: observed %d syncs for %d frames, want %d", got, frames, want)
	}
}

// TestWriterTornWriteLatches: a write that tears mid-frame must latch — no
// later segment may reach the sink, every later Write and the Flush must
// fail with the torn-write error — and the durable prefix must salvage to
// exactly the records of the frames synced before the tear.
func TestWriterTornWriteLatches(t *testing.T) {
	// First, measure a healthy run to pick a fail point mid-stream.
	probe := &faultio.Writer{}
	pw := NewWriter(probe)
	pw.SegmentPayload = 512
	pw.SyncEvery = 1
	for i := 0; i < 4000; i++ {
		if err := pw.Write(faultRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	failAt := probe.BytesWritten() / 2

	fw := &faultio.Writer{FailAt: failAt, Torn: true}
	w := NewWriter(fw)
	w.SegmentPayload = 512
	w.SyncEvery = 1
	var werr error
	wrote := 0
	for i := 0; i < 4000; i++ {
		if werr = w.Write(faultRecord(i)); werr != nil {
			break
		}
		wrote++
	}
	if werr == nil {
		t.Fatalf("no Write failed with FailAt=%d (%d bytes reached the sink)", failAt, fw.BytesWritten())
	}
	if !errors.Is(werr, faultio.ErrTorn) {
		t.Fatalf("Write failed with %v, want the injected torn-write error", werr)
	}
	// The fault latches at every layer: the writer refuses more records,
	// reports the original cause, and Flush cannot seal.
	if err := w.Write(faultRecord(wrote)); !errors.Is(err, faultio.ErrTorn) {
		t.Fatalf("Write after the tear: %v, want the latched torn-write error", err)
	}
	if err := w.Err(); !errors.Is(err, faultio.ErrTorn) {
		t.Fatalf("Err() = %v, want the latched torn-write error", err)
	}
	if err := w.Flush(); !errors.Is(err, faultio.ErrTorn) {
		t.Fatalf("Flush after the tear: %v, want the latched torn-write error", err)
	}
	if fw.BytesWritten() > failAt {
		t.Fatalf("%d bytes reached the sink after the %d-byte tear point", fw.BytesWritten(), failAt)
	}

	// The durable prefix is a valid segment stream: Recover salvages whole
	// frames, and every salvaged record matches the clean stream.
	raw := fw.Bytes()
	ix, rep, err := Recover(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatalf("recovering the torn prefix: %v", err)
	}
	if len(ix.Segments) == 0 {
		t.Fatalf("nothing salvaged from %d durable bytes (%s)", len(raw), rep)
	}
	var got Collect
	n, err := DecodeIndex(bytes.NewReader(raw), ix, &got, 2)
	if err != nil {
		t.Fatalf("decoding the salvage: %v", err)
	}
	if n > int64(wrote) {
		t.Fatalf("salvage yielded %d records, only %d were accepted", n, wrote)
	}
	for i := range got.Records {
		if got.Records[i] != faultRecord(i) {
			t.Fatalf("salvaged record %d = %+v, want %+v", i, got.Records[i], faultRecord(i))
		}
	}
}

// TestWriterSyncFailureLatches: an fsync that fails latches exactly like a
// failed write — the writer accepts no further records and Flush reports
// the sync error, so a capture whose disk stops persisting is loudly dead
// rather than silently lossy.
func TestWriterSyncFailureLatches(t *testing.T) {
	fw := &faultio.Writer{SyncFailAfter: 2}
	w := NewWriter(fw)
	w.SegmentPayload = 512
	w.SyncEvery = 1
	var werr error
	for i := 0; i < 4000; i++ {
		if werr = w.Write(faultRecord(i)); werr != nil {
			break
		}
	}
	if werr == nil {
		// Stream too short to hit the second seal inline; Flush must still
		// surface it.
		werr = w.Flush()
	}
	if !errors.Is(werr, faultio.ErrSyncFailed) {
		t.Fatalf("sync failure surfaced as %v, want ErrSyncFailed", werr)
	}
	if err := w.Flush(); !errors.Is(err, faultio.ErrSyncFailed) {
		t.Fatalf("Flush after sync failure: %v, want the latched ErrSyncFailed", err)
	}
	// Only the first (successful) sync's frame is trusted; the prefix still
	// salvages cleanly.
	raw := fw.Bytes()
	if _, _, err := Recover(bytes.NewReader(raw), int64(len(raw))); err != nil {
		t.Fatalf("recovering after sync failure: %v", err)
	}
}

// TestWriterAsyncPipelineLatches: with the compression worker pool on, a
// sink failure must still latch — later frames are suppressed, Flush fails,
// and the durable prefix stays salvageable.
func TestWriterAsyncPipelineLatches(t *testing.T) {
	fw := &faultio.Writer{FailAt: 4096}
	w := NewWriter(fw)
	w.SegmentPayload = 512
	w.Workers = 4
	var werr error
	for i := 0; i < 200000; i++ {
		if werr = w.Write(faultRecord(i)); werr != nil {
			break
		}
	}
	ferr := w.Flush()
	if werr == nil && ferr == nil {
		t.Fatalf("neither Write nor Flush surfaced the sink failure (%d bytes written)", fw.BytesWritten())
	}
	if ferr == nil {
		t.Fatal("Flush succeeded over a failed sink")
	}
	if !errors.Is(ferr, faultio.ErrNoSpace) {
		t.Fatalf("Flush error %v, want the injected ErrNoSpace", ferr)
	}
	raw := fw.Bytes()
	ix, _, err := Recover(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatalf("recovering the prefix: %v", err)
	}
	var got Collect
	n, err := DecodeIndex(bytes.NewReader(raw), ix, &got, 2)
	if err != nil {
		t.Fatalf("decoding the salvage: %v", err)
	}
	for i := int64(0); i < n; i++ {
		if got.Records[i] != faultRecord(int(i)) {
			t.Fatalf("salvaged record %d mismatch", i)
		}
	}
}

// TestWriterReleaseSeals: a SortWindow writer releases on every write, so
// once the writes return, every record the high-water mark has left more
// than SortWindow behind is encoded and every segment sealed from them is
// synced — a kill between writes loses at most the window and the open
// segment, and what is on disk salvages as an exact prefix.
func TestWriterReleaseSeals(t *testing.T) {
	fw := &faultio.Writer{}
	w := NewWriter(fw)
	w.SegmentPayload = 256
	w.SyncEvery = 1
	w.SortWindow = 5 * time.Millisecond
	n := 300
	released := 0
	for i := 0; i < n; i++ {
		if err := w.Write(faultRecord(i)); err != nil {
			t.Fatal(err)
		}
		if faultRecord(i).T <= faultRecord(n-1).T-w.SortWindow {
			released++
		}
	}
	// The released records are all encoded: every one but those in the
	// open segment sits in a sealed, synced frame and salvages on its own…
	raw := fw.Bytes()
	ix, rep, err := Recover(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records == 0 || rep.Records != int64(released-w.segCount) {
		t.Fatalf("%d records salvageable after the writes, want %d released less %d in the open segment: %s",
			rep.Records, released, w.segCount, rep)
	}
	if fw.Syncs() != len(ix.Segments) {
		t.Fatalf("%d syncs for %d sealed segments", fw.Syncs(), len(ix.Segments))
	}
	var got Collect
	if _, err := DecodeIndex(bytes.NewReader(raw), ix, &got, 2); err != nil {
		t.Fatal(err)
	}
	for i := range got.Records {
		if got.Records[i] != faultRecord(i) {
			t.Fatalf("salvaged record %d mismatch", i)
		}
	}
	// …and the writer still seals normally with every record intact.
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := fw.Bytes()
	var all Collect
	r := NewReader(bytes.NewReader(full))
	total, err := r.ReadAllSharded(&all, 2)
	if err != nil || total != int64(n) {
		t.Fatalf("sealed file: %d records, err %v, want %d", total, err, n)
	}
}
