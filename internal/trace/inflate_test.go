package trace_test

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"testing"

	"cstrace/internal/trace"
)

// flateRun is the oracle: the reader's run decode over compress/flate —
// read exactly len(dst) bytes, then refuse a stream that yields one more.
func flateRun(dst, src []byte) (int, error) {
	fr := flate.NewReader(bytes.NewReader(src))
	n, err := io.ReadFull(fr, dst)
	if err != nil {
		return n, err
	}
	var one [1]byte
	if m, _ := fr.Read(one[:]); m != 0 {
		return n, errors.New("stream inflates past its declared length")
	}
	return n, nil
}

// checkInflate decodes src into size bytes with the reader's decoder and
// with the oracle, and fails unless they return the same count, the same
// bytes, the same accept/reject decision and the same truncation verdict.
func checkInflate(t testing.TB, ri *trace.RunInflater, src []byte, size int, what string) {
	t.Helper()
	want := make([]byte, size)
	wn, werr := flateRun(want, src)
	got := make([]byte, size)
	gn, gerr := ri.Inflate(got, src)
	if gn != wn || !bytes.Equal(got[:gn], want[:wn]) || (gerr == nil) != (werr == nil) ||
		errors.Is(gerr, io.ErrUnexpectedEOF) != errors.Is(werr, io.ErrUnexpectedEOF) {
		t.Fatalf("%s, %d stored bytes into %d: got n=%d err=%v; compress/flate n=%d err=%v",
			what, len(src), size, gn, gerr, wn, werr)
	}
}

// checkSizes checks src into raw bytes and into one byte fewer and more.
func checkSizes(t testing.TB, ri *trace.RunInflater, src []byte, raw int, what string) {
	t.Helper()
	for _, size := range []int{raw, raw - 1, raw + 1} {
		if size >= 0 {
			checkInflate(t, ri, src, size, what)
		}
	}
}

// deflate codes p with compress/flate at level.
func deflate(t testing.TB, p []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// coders are the compress/flate levels a writer could code a run with.
var coders = []int{flate.NoCompression, 1, 2, 6, 9, flate.HuffmanOnly}

// bitWriter assembles hand-made DEFLATE streams.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

// bits appends v's low n bits, first bit lowest.
func (w *bitWriter) bits(v uint64, n uint) *bitWriter {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
	return w
}

// code appends an n-bit Huffman code, first bit highest.
func (w *bitWriter) code(c uint64, n uint) *bitWriter {
	for i := int(n) - 1; i >= 0; i-- {
		w.bits(c>>uint(i)&1, 1)
	}
	return w
}

// align pads to a byte boundary.
func (w *bitWriter) align() *bitWriter {
	if w.n > 0 {
		w.bits(0, 8-w.n)
	}
	return w
}

func (w *bitWriter) bytes() []byte { return append(w.align().out[:0:0], w.out...) }

// fixedLit appends the fixed-Huffman code of literal/length symbol s.
func (w *bitWriter) fixedLit(s int) *bitWriter {
	switch {
	case s < 144:
		return w.code(uint64(0x30+s), 8)
	case s < 256:
		return w.code(uint64(0x190+s-144), 9)
	case s < 280:
		return w.code(uint64(s-256), 7)
	default:
		return w.code(uint64(0xc0+s-280), 8)
	}
}

// dynamic starts a final dynamic block declaring nlit and ndist codes,
// whose code-length code has the lengths clens (by symbol).
func dynamic(nlit, ndist int, clens map[int]uint64) *bitWriter {
	w := new(bitWriter).bits(1, 1).bits(2, 2).bits(uint64(nlit-257), 5).bits(uint64(ndist-1), 5)
	order := []int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
	n := len(order)
	for n > 4 && clens[order[n-1]] == 0 {
		n--
	}
	w.bits(uint64(n-4), 4)
	for _, s := range order[:n] {
		w.bits(clens[s], 3)
	}
	return w
}

// handMade are streams compress/flate's writer never emits, each aimed at
// one check of the decoder.
func handMade() map[string][]byte {
	fixed := func(final uint64) *bitWriter { return new(bitWriter).bits(final, 1).bits(1, 2) }
	// A code-length code of 18 → 0, 0 → 10, 1 → 11, and literal/length
	// lengths giving end of block the one-bit code and no distance codes:
	// a complete header whose codes are the one-bit code and the empty one.
	eobOnly := func() *bitWriter {
		return dynamic(257, 1, map[int]uint64{18: 1, 0: 2, 1: 2}).
			code(0, 1).bits(127, 7).code(0, 1).bits(107, 7). // 256 zero lengths
			code(3, 2).code(2, 2)                            // end of block 1, the distance 0
	}
	return map[string][]byte{
		"end of block only":       eobOnly().code(0, 1).bytes(),
		"bit pattern no code has": eobOnly().code(1, 1).bytes(),
		"repeat past the end":     dynamic(257, 1, map[int]uint64{18: 1}).code(0, 1).bits(127, 7).code(0, 1).bits(127, 7).bytes(),
		"repeat of nothing":       dynamic(257, 1, map[int]uint64{16: 1}).code(0, 1).bits(0, 2).bytes(),
		"incomplete length code":  dynamic(257, 1, map[int]uint64{18: 2}).bytes(),
		"empty input":             nil,
		"overlapping match":       fixed(1).fixedLit('a').fixedLit('b').fixedLit(257).code(1, 5).fixedLit(256).bytes(),
		"distance past start":     fixed(1).fixedLit('a').fixedLit(257).code(1, 5).fixedLit(256).bytes(),
		"distance at start":       fixed(1).fixedLit(257).code(0, 5).fixedLit(256).bytes(),
		"length symbol 286":       fixed(1).fixedLit('a').fixedLit(286).fixedLit(256).bytes(),
		"distance symbol 30":      fixed(1).fixedLit('a').fixedLit(257).code(30, 5).fixedLit(256).bytes(),
		"longest match":           fixed(1).fixedLit('z').fixedLit(284).bits(31, 5).code(0, 5).fixedLit(256).bytes(),
		"no end of block":         fixed(1).fixedLit('a').fixedLit('b').bytes(),
		"not final":               fixed(0).fixedLit('a').fixedLit(256).bytes(),
		"two blocks":              fixed(0).fixedLit('a').fixedLit(256).bits(1, 1).bits(1, 2).fixedLit('b').fixedLit(256).bytes(),
		"reserved block type":     new(bitWriter).bits(1, 1).bits(3, 2).bytes(),
		"stored":                  new(bitWriter).bits(1, 3).align().bits(3, 16).bits(^uint64(3)&0xffff, 16).bits(0x636261, 24).bytes(),
		"stored cut short":        new(bitWriter).bits(1, 3).align().bits(3, 16).bits(^uint64(3)&0xffff, 16).bytes(),
		"stored bad complement":   new(bitWriter).bits(1, 3).align().bits(3, 16).bits(3, 16).bits(0x636261, 24).bytes(),
		"stored empty":            new(bitWriter).bits(1, 3).align().bits(0, 16).bits(0xffff, 16).bytes(),
		"too many codes":          new(bitWriter).bits(1, 1).bits(2, 2).bits(31, 5).bits(0, 5).bits(15, 4).bytes(),
		"too many distances":      new(bitWriter).bits(1, 1).bits(2, 2).bits(0, 5).bits(30, 5).bits(15, 4).bytes(),
	}
}

// TestInflateMatchesFlate: the reader's DEFLATE decoder answers every
// stream exactly as compress/flate's reader does under the reader's
// exact-length rule — the busy stream's column runs under every coder a
// writer could use, short runs (fixed-Huffman and stored blocks), a v3
// payload, every truncation of a small stream, seeded bit flips, a dst one
// byte short and one byte long, and hand-made streams aimed at each check.
func TestInflateMatchesFlate(t *testing.T) {
	bc, err := busyBlocks()
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	writeBusy(t, bc, trace.CompressOff, &file)
	segs, err := trace.ColumnRuns(file.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var ri trace.RunInflater

	t.Run("busy runs", func(t *testing.T) {
		for s, runs := range segs[:2] {
			for c, run := range runs {
				for _, level := range coders {
					checkSizes(t, &ri, deflate(t, run, level), len(run), fmt.Sprintf("segment %d column %d level %d", s, c, level))
				}
			}
		}
	})

	apps := segs[0][3]
	t.Run("short runs", func(t *testing.T) {
		for _, n := range []int{0, 1, 2, 5, 17, 60, 200, 1000} {
			for _, p := range [][]byte{apps[:n], bytes.Repeat([]byte{'a'}, n)} {
				for _, level := range coders {
					checkSizes(t, &ri, deflate(t, p, level), n, fmt.Sprintf("%d bytes level %d", n, level))
				}
			}
		}
	})

	t.Run("v3 payload", func(t *testing.T) {
		var v3 bytes.Buffer
		w := trace.NewWriterV3(&v3)
		for _, blk := range bc.blocks[:len(bc.blocks)/8] {
			w.HandleBatch(blk)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		payloads, err := trace.StoredPayloads(v3.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !payloads[0].Coded() {
			t.Fatal("first v3 segment stored uncompressed")
		}
		checkSizes(t, &ri, payloads[0].Stored, payloads[0].RawLen, "v3 payload")
	})

	small, clients := apps[:3000], segs[0][2][:3000]
	t.Run("truncations", func(t *testing.T) {
		for _, level := range []int{flate.NoCompression, 6, flate.HuffmanOnly} {
			for _, p := range [][]byte{small, clients} {
				src := deflate(t, p, level)
				for i := 0; i <= len(src); i++ {
					checkInflate(t, &ri, src[:i], len(p), fmt.Sprintf("level %d cut at %d", level, i))
				}
			}
		}
	})

	t.Run("bit flips", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(11, 28))
		var srcs [][]byte
		for _, level := range []int{1, 6, flate.HuffmanOnly} {
			srcs = append(srcs, deflate(t, small, level), deflate(t, clients, level))
		}
		for i := range 200 {
			bad := bytes.Clone(srcs[i%len(srcs)])
			bit := rng.IntN(8 * len(bad))
			bad[bit/8] ^= 1 << (bit % 8)
			checkInflate(t, &ri, bad, len(small), fmt.Sprintf("stream %d bit %d flipped", i%len(srcs), bit))
		}
	})

	t.Run("hand-made", func(t *testing.T) {
		for name, src := range handMade() {
			for size := range 8 {
				checkInflate(t, &ri, src, size, name)
			}
		}
	})

	t.Run("no allocation", func(t *testing.T) {
		src := deflate(t, apps, 2)
		dst := make([]byte, len(apps))
		if allocs := testing.AllocsPerRun(5, func() { ri.Inflate(dst, src) }); allocs != 0 {
			t.Errorf("inflating a run allocates %v times", allocs)
		}
	})
}

// FuzzInflate: on any input and any dst length up to 1 MiB the reader's
// decoder agrees with compress/flate (and so never panics).
func FuzzInflate(f *testing.F) {
	for _, src := range handMade() {
		f.Add(src, uint32(3))
	}
	for _, level := range coders {
		f.Add(deflate(f, []byte("snapshot snapshot burst, 50 ms tick, 40 B in / 130 B out"), level), uint32(57))
	}
	var ri trace.RunInflater
	f.Fuzz(func(t *testing.T, src []byte, size uint32) {
		checkInflate(t, &ri, src, int(size%(1<<20+1)), "fuzz input")
	})
}
