package trace

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"cstrace/internal/sched"
)

// busyStream is a deterministic, workload-shaped record stream: every 50 ms
// tick a snapshot burst to each of 22 clients (outgoing, ≈ 130 B) and then
// one command from each (incoming, ≈ 40 B), with the odd long gap. Ties,
// client ids and payload sizes past 0x7f occur throughout, so every column
// takes both varint lengths.
func busyStream(seed uint64, n int) []Record {
	const slots = 22
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	recs := make([]Record, 0, n)
	var t time.Duration
	client := func(c int) uint32 {
		if c%8 == 7 {
			return uint32(300 + c)
		}
		return uint32(c)
	}
	for tick := time.Duration(0); len(recs) < n; tick += 50 * time.Millisecond {
		if rng.IntN(200) == 0 {
			tick += time.Duration(rng.IntN(10)) * time.Second
		}
		t = max(t, tick)
		for c := 0; c < slots; c++ {
			t += time.Duration(rng.IntN(30)) * time.Microsecond
			recs = append(recs, Record{T: t, Dir: Out, Kind: KindGame, Client: client(c), App: uint16(90 + rng.IntN(80))})
		}
		for c := 0; c < slots; c++ {
			t += time.Duration(rng.IntN(4000)) * time.Microsecond
			r := Record{T: t, Dir: In, Kind: KindGame, Client: client(rng.IntN(slots)), App: uint16(20 + rng.IntN(40))}
			if rng.IntN(50) == 0 {
				r.Kind = Kind(1 + rng.IntN(int(KindWeb)))
				r.App = uint16(rng.IntN(1 << 16))
			}
			recs = append(recs, r)
		}
	}
	return recs[:n]
}

// jitter returns recs in an arrival order where each record is up to window
// late, as a SortWindow writer accepts them.
func jitter(recs []Record, window time.Duration, rng *rand.Rand) []Record {
	type arrival struct {
		at time.Duration
		r  Record
	}
	as := make([]arrival, len(recs))
	for i, r := range recs {
		as[i] = arrival{r.T + time.Duration(rng.Int64N(int64(window))), r}
	}
	slices.SortStableFunc(as, func(a, b arrival) int { return cmp.Compare(a.at, b.at) })
	out := make([]Record, len(as))
	for i, a := range as {
		out[i] = a.r
	}
	return out
}

// splits cuts recs into consecutive batches of 1 to maxLen records.
func splits(recs []Record, maxLen int, rng *rand.Rand) [][]Record {
	var out [][]Record
	for len(recs) > 0 {
		n := min(1+rng.IntN(maxLen), len(recs))
		out = append(out, recs[:n])
		recs = recs[n:]
	}
	return out
}

// writerState renders everything a Writer has accepted so far: the bytes
// already written and buffered, the open segment, and the reorder buffer.
func writerState(w *Writer, dst *bytes.Buffer) string {
	var pend []Record
	var hw time.Duration
	if w.sorted != nil {
		pend, hw = w.sorted.pend, w.sorted.maxSeen
	}
	return fmt.Sprintf("out=%x buffered=%d n=%d last=%v seg=%d/%v/%v index=%d cols=%x|%x|%x|%x pend=%v/%v",
		sha256.Sum256(dst.Bytes()), w.w.Buffered(), w.n, w.last, w.segCount, w.segBase, w.segMin,
		len(w.index), w.colD, w.colF, w.colC, w.colA, pend, hw)
}

// TestBatchEqualsPerRecordWrite: HandleBatch over any split of a stream
// writes the file that Write, one record at a time, writes — across
// segment cuts, both varint lengths in every column, and the SortWindow
// release path.
func TestBatchEqualsPerRecordWrite(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	recs := busyStream(1, 20000)
	for _, segPayload := range []int{0, 300} {
		for _, window := range []time.Duration{0, 200 * time.Millisecond} {
			in := recs
			if window > 0 {
				in = jitter(recs, window, rng)
			}
			configure := func(w *Writer) { w.SegmentPayload, w.SortWindow = segPayload, window }
			want := writeStream(t, in, configure)
			for _, maxLen := range []int{1, 7, 100, 5000} {
				var buf bytes.Buffer
				w := NewWriter(&buf)
				configure(w)
				for _, b := range splits(in, maxLen, rng) {
					w.HandleBatch(b)
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("segment %d window %v batches ≤ %d: file diverges from per-record Write", segPayload, window, maxLen)
				}
			}
		}
	}
}

// TestBatchErrorMidBatch: a record out of order, or beyond MaxSpan, in the
// middle of a batch stops HandleBatch exactly where Write stops: the same
// error text, every record before it accepted, nothing after it — and the
// error latches for HandleBatch, while Write rejects the one record and
// goes on.
func TestBatchErrorMidBatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	recs := busyStream(4, 3000)
	const at = 2222
	for _, window := range []time.Duration{0, 200 * time.Millisecond} {
		for name, bad := range map[string]Record{
			"regress": {T: recs[at-1].T - time.Second, App: 1},
			"span":    {T: MaxSpan + 1, App: 1},
		} {
			in := slices.Insert(slices.Clone(recs), at, bad)
			configure := func(w *Writer) { w.SegmentPayload, w.SortWindow = 300, window }

			var refBuf bytes.Buffer
			ref := NewWriter(&refBuf)
			configure(ref)
			var wantErr error
			for _, r := range in {
				if err := ref.Write(r); err != nil {
					if wantErr != nil {
						t.Fatalf("%s/%v: second rejection %v", name, window, err)
					}
					wantErr = err
					if ref.Err() != nil {
						t.Fatalf("%s/%v: Write latched an ordering error", name, window)
					}
					if got, want := writerState(ref, &refBuf), writerState(prefixWriter(t, in[:at], configure)); got != want {
						t.Fatalf("%s/%v: Write's rejection changed the writer's state", name, window)
					}
				}
			}
			if wantErr == nil {
				t.Fatalf("%s/%v: Write accepted the bad record", name, window)
			}

			var buf bytes.Buffer
			w := NewWriter(&buf)
			configure(w)
			for _, b := range splits(in[:at-5], 300, rng) {
				w.HandleBatch(b)
			}
			w.HandleBatch(in[at-5 : at+100])
			if err := w.Err(); err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s/%v: HandleBatch latched %v, want %v", name, window, err, wantErr)
			}
			pref, prefBuf := prefixWriter(t, in[:at], configure)
			if got, want := writerState(w, &buf), writerState(pref, prefBuf); got != want {
				t.Fatalf("%s/%v: HandleBatch kept a different record set than Write\n got %.200s\nwant %.200s", name, window, got, want)
			}
			w.HandleBatch(in[at+100:])
			if err := w.Write(recs[len(recs)-1]); err != w.Err() {
				t.Fatalf("%s/%v: Write after the latch = %v", name, window, err)
			}
			if err := w.Flush(); err != w.Err() {
				t.Fatalf("%s/%v: Flush after the latch = %v", name, window, err)
			}
		}
	}
}

// prefixWriter is a writer that has accepted recs through Write and nothing
// else.
func prefixWriter(t *testing.T, recs []Record, configure func(*Writer)) (*Writer, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	configure(w)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	return w, &buf
}

// TestWriterRoundTripMatrix: every compression level at every worker count
// reads back record for record through the serial, sharded and range paths;
// the bytes do not depend on the worker count; and a compressed segment
// stores its apps run in fewer bytes than raw.
func TestWriterRoundTripMatrix(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	recs := busyStream(6, 30000)
	from, to := recs[7000].T, recs[21000].T
	var inRange []Record
	for _, r := range recs {
		if r.T >= from && r.T < to {
			inRange = append(inRange, r)
		}
	}
	for _, level := range []int{CompressOff, 1, 0, 6, 9} {
		var first []byte
		for _, workers := range []int{1, 4, sched.Auto} {
			var buf bytes.Buffer
			w := NewWriter(&buf)
			w.CompressLevel, w.Workers, w.SegmentPayload = level, workers, 1<<14
			for _, b := range splits(recs, 500, rng) {
				w.HandleBatch(b)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			file := buf.Bytes()
			if first == nil {
				first = file
			} else if !bytes.Equal(file, first) {
				t.Fatalf("level %d: Workers %d bytes differ from Workers 1", level, workers)
			}
			for name, read := range map[string]func(*Reader, Handler) (int64, error){
				"ReadAll":        (*Reader).ReadAll,
				"ReadAllSharded": func(r *Reader, h Handler) (int64, error) { return r.ReadAllSharded(h, 4) },
			} {
				var got Collect
				if _, err := read(NewReader(bytes.NewReader(file)), &got); err != nil || !slices.Equal(got.Records, recs) {
					t.Fatalf("level %d workers %d %s: %d records, %v", level, workers, name, len(got.Records), err)
				}
			}
			var got Collect
			if _, err := NewReader(bytes.NewReader(file)).ReadRange(from, to, &got); err != nil || !slices.Equal(got.Records, inRange) {
				t.Fatalf("level %d workers %d ReadRange: %d records, %v", level, workers, len(got.Records), err)
			}
		}
		if level != 0 {
			continue
		}
		ix, err := ReadIndex(bytes.NewReader(first), int64(len(first)))
		if err != nil {
			t.Fatal(err)
		}
		st, err := ReadColumnStats(bytes.NewReader(first), ix)
		if err != nil {
			t.Fatal(err)
		}
		if st.Compressed != st.Segments || st.Stored[3] >= st.Raw[3] {
			t.Fatalf("default level: %d/%d segments compressed, apps %d stored of %d raw", st.Compressed, st.Segments, st.Stored[3], st.Raw[3])
		}
	}
}

// pinnedV4FileSHA256 is the SHA-256 of the default v4 file of
// busyStream(11, 50000). It pins the writer's bytes — segment cuts, column
// layout and each run's coder — so a change to any of them is deliberate:
// update it once and say so in CHANGES.md. The generator's own pins hash
// decoded records and do not move with it.
const pinnedV4FileSHA256 = "02f017142ec9737ff8566d2bd145e88b830f5bc5372a2a8b5f2a23b6dfbdcea5"

func TestPinnedV4File(t *testing.T) {
	recs := busyStream(11, 50000)
	for _, workers := range []int{1, sched.Auto} {
		file := writeStream(t, recs, func(w *Writer) { w.Workers = workers })
		sum := sha256.Sum256(file)
		if got := hex.EncodeToString(sum[:]); got != pinnedV4FileSHA256 {
			t.Errorf("Workers %d: %d bytes hash to %s, want %s", workers, len(file), got, pinnedV4FileSHA256)
		}
	}
}

// TestCompScratchFreeList: compressor scratch survives between writers —
// the free list hands back what was returned to it, most recent first, so a
// GC between two writers no longer costs two fresh flate.Writers — and it
// keeps at most compScratchKeep scratches, leaving the rest to the GC.
func TestCompScratchFreeList(t *testing.T) {
	free := func() int {
		compScratchFree.mu.Lock()
		defer compScratchFree.mu.Unlock()
		return len(compScratchFree.list)
	}
	var held []*compScratch
	for free() > 0 { // start from an empty list
		held = append(held, getCompScratch())
	}
	defer func() { // leave the list as it was
		for free() > 0 {
			getCompScratch()
		}
		for _, cs := range held {
			putCompScratch(cs)
		}
	}()
	put := make([]*compScratch, compScratchKeep+3)
	for i := range put {
		put[i] = getCompScratch()
	}
	for _, cs := range put {
		putCompScratch(cs)
	}
	if n := free(); n != compScratchKeep {
		t.Fatalf("free list holds %d scratches, want %d", n, compScratchKeep)
	}
	for i := compScratchKeep - 1; i >= 0; i-- {
		if cs := getCompScratch(); cs != put[i] {
			t.Fatalf("get %d: a fresh scratch, want the one returned %d-th", compScratchKeep-i, i)
		}
	}
}
