package dist

import "testing"

// TestSplitterStreamsArePure pins the property the generator's per-window
// and per-session streams rely on: Stream(i) depends only on the splitter's
// creation point and on i — not on the order, count or interleaving of other
// Stream calls.
func TestSplitterStreamsArePure(t *testing.T) {
	mk := func() Splitter { return NewRNG(99).NewSplitter() }

	a := mk()
	b := mk()
	// Draw from b's streams in a scrambled order with extra streams mixed
	// in; stream 7 must still match a's stream 7 drawn first.
	for _, i := range []uint64{3, 12, 7, 0, 1 << 40} {
		b.Stream(i).Float64()
	}
	s1, s2 := a.Stream(7), b.Stream(7)
	for k := 0; k < 100; k++ {
		if v1, v2 := s1.Float64(), s2.Float64(); v1 != v2 {
			t.Fatalf("draw %d: stream 7 diverged: %v vs %v", k, v1, v2)
		}
	}
}

// TestSplitterStreamsDiffer is a cheap sanity check that distinct indexes
// give distinct streams.
func TestSplitterStreamsDiffer(t *testing.T) {
	sp := NewRNG(1).NewSplitter()
	seen := map[uint64]bool{}
	for i := uint64(0); i < 64; i++ {
		v := sp.Stream(i).Uint64()
		if seen[v] {
			t.Fatalf("stream %d repeated first draw %x", i, v)
		}
		seen[v] = true
	}
}

// TestRekeyEqualsStream: a generator re-keyed in place, whatever it drew
// before, is indistinguishable from a fresh Stream(i) under every kind of
// draw the samplers make — and re-keying allocates nothing.
func TestRekeyEqualsStream(t *testing.T) {
	sp := NewRNG(5).NewSplitter()
	g := NewRNG(77)
	g.NormFloat64()
	for _, i := range []uint64{0, 9, 1 << 33, 9} {
		sp.Rekey(g, i)
		want := sp.Stream(i)
		for k := 0; k < 200; k++ {
			if a, b := g.NormFloat64(), want.NormFloat64(); a != b {
				t.Fatalf("stream %d draw %d: normal %v vs %v", i, k, a, b)
			}
			if a, b := g.Uint64(), want.Uint64(); a != b {
				t.Fatalf("stream %d draw %d: word %x vs %x", i, k, a, b)
			}
			if a, b := g.Intn(1000), want.Intn(1000); a != b {
				t.Fatalf("stream %d draw %d: int %d vs %d", i, k, a, b)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { sp.Rekey(g, 3); g.Float64() }); n != 0 {
		t.Errorf("Rekey allocates %v objects per call, want 0", n)
	}
}
