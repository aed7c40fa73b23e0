package dist

import "testing"

// TestSplitterStreamsArePure pins the property the generator's per-window
// and per-session streams rely on: stream i depends only on the splitter's
// creation point and on i — not on the order, count or interleaving of other
// Seed calls.
func TestSplitterStreamsArePure(t *testing.T) {
	mk := func() Splitter { return NewRNG(99).NewSplitter() }

	a := mk()
	b := mk()
	// Draw from b's streams in a scrambled order with extra streams mixed
	// in; stream 7 must still match a's stream 7 drawn first.
	var other PCG
	for _, i := range []uint64{3, 12, 7, 0, 1 << 40} {
		b.Seed(&other, i)
		other.Uint64()
	}
	var s1, s2 PCG
	a.Seed(&s1, 7)
	b.Seed(&s2, 7)
	for k := 0; k < 100; k++ {
		if v1, v2 := s1.Uint64(), s2.Uint64(); v1 != v2 {
			t.Fatalf("draw %d: stream 7 diverged: %x vs %x", k, v1, v2)
		}
	}
}

// TestSplitterStreamsDiffer is a cheap sanity check that distinct indexes
// give distinct streams.
func TestSplitterStreamsDiffer(t *testing.T) {
	sp := NewRNG(1).NewSplitter()
	seen := map[uint64]bool{}
	for i := uint64(0); i < 64; i++ {
		var p PCG
		sp.Seed(&p, i)
		v := p.Uint64()
		if seen[v] {
			t.Fatalf("stream %d repeated first draw %x", i, v)
		}
		seen[v] = true
	}
}

// TestRekeyEqualsStream: a generator re-seeded in place, whatever it drew
// before, is indistinguishable from a fresh one seeded to the same stream
// under every kind of draw the generator makes — and re-seeding allocates
// nothing.
func TestRekeyEqualsStream(t *testing.T) {
	sp := NewRNG(5).NewSplitter()
	var g PCG
	g.Seed(77, 78)
	g.Norm()
	for _, i := range []uint64{0, 9, 1 << 33, 9} {
		sp.Seed(&g, i)
		var want PCG
		sp.Seed(&want, i)
		for k := 0; k < 200; k++ {
			if a, b := g.Norm(), want.Norm(); a != b {
				t.Fatalf("stream %d draw %d: normal %v vs %v", i, k, a, b)
			}
			if a, b := g.Uint64(), want.Uint64(); a != b {
				t.Fatalf("stream %d draw %d: word %x vs %x", i, k, a, b)
			}
			if a, b := g.float64(), want.float64(); a != b {
				t.Fatalf("stream %d draw %d: uniform %v vs %v", i, k, a, b)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { sp.Seed(&g, 3); g.Norm() }); n != 0 {
		t.Errorf("Seed allocates %v objects per call, want 0", n)
	}
}
