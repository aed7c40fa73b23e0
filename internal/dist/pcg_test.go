package dist

import (
	"math"
	"math/rand/v2"
	"testing"
)

// seedPairs are the (a, b) seeds the differential tests run: the corners of
// the seed space and a spread drawn from a fixed stream.
func seedPairs(n int) [][2]uint64 {
	pairs := [][2]uint64{{0, 0}, {math.MaxUint64, math.MaxUint64}, {1, 0}, {0, 1}}
	src := rand.NewPCG(2024, 11)
	for len(pairs) < n {
		pairs = append(pairs, [2]uint64{src.Uint64(), src.Uint64()})
	}
	return pairs
}

// TestPCGMatchesStdlib is the differential test of the generator and the
// ziggurat against math/rand/v2: over 16 seed pairs, a million words from
// PCG.Uint64 equal rand.PCG's, and a million RNG.NormFloat64 draws equal
// rand.Rand.NormFloat64's from the same seeds. The ziggurat's rare branches
// must have been taken: it counts draws whose first word missed the fast
// path, and among them the base strip's (i == 0) tail draws.
func TestPCGMatchesStdlib(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 100_000
	}
	var slow, base int
	for _, s := range seedPairs(16) {
		var p PCG
		p.Seed(s[0], s[1])
		ref := rand.NewPCG(s[0], s[1])
		for k := 0; k < draws; k++ {
			if got, want := p.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %x: word %d is %x, math/rand/v2 draws %x", s, k, got, want)
			}
		}

		g := newRNG(s[0], s[1])
		refN := rand.New(rand.NewPCG(s[0], s[1]))
		for k := 0; k < draws; k++ {
			peek := g.pcg // the word the draw starts with
			if u := peek.Uint64(); !fastHit(u) {
				slow++
				if u>>32&0x7F == 0 {
					base++
				}
			}
			if got, want := g.NormFloat64(), refN.NormFloat64(); got != want {
				t.Fatalf("seed %x: normal %d is %v, math/rand/v2 draws %v", s, k, got, want)
			}
		}
		if got, want := g.Uint64(), refN.Uint64(); got != want {
			t.Fatalf("seed %x: streams out of step after the normals: %x vs %x", s, got, want)
		}
	}
	t.Logf("%d slow-path draws, %d of them in the base strip", slow, base)
	if slow == 0 || base == 0 {
		t.Fatalf("slow-path draws %d, base-strip draws %d: both branches must be exercised", slow, base)
	}
}

func fastHit(u uint64) bool {
	_, ok := NormFast(u)
	return ok
}

// FuzzPCG: for any seed pair, 1 000 words and 1 000 normals equal
// math/rand/v2's.
func FuzzPCG(f *testing.F) {
	for _, s := range seedPairs(4) {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b uint64) {
		var p PCG
		p.Seed(a, b)
		ref := rand.NewPCG(a, b)
		for k := 0; k < 1000; k++ {
			if got, want := p.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("word %d is %x, math/rand/v2 draws %x", k, got, want)
			}
		}
		refN := rand.New(rand.NewPCG(a, b))
		p.Seed(a, b)
		for k := 0; k < 1000; k++ {
			if got, want := p.Norm(), refN.NormFloat64(); got != want {
				t.Fatalf("normal %d is %v, math/rand/v2 draws %v", k, got, want)
			}
		}
	})
}

// truncDraw is one TruncNormal draw the way the generator's fill stage makes
// it: the first try inline, the rest in Resample.
func truncDraw(tn TruncNormal, p *PCG) float64 {
	u := p.Uint64()
	z, ok := NormFast(u)
	if !ok {
		z = p.NormSlow(u)
	}
	if v := tn.Mu + tn.Sigma*z; v >= tn.Low && v <= tn.High {
		return v
	}
	return tn.Resample(p)
}

// TestTruncNormalMatchesTruncated: TruncNormal draws exactly what
// Truncated{Normal} draws from the same stream, value for value and word for
// word, over a wide band, a band the first try usually misses, and narrow
// bands far from the mean, where the 64 tries run out and the draw is
// clamped.
func TestTruncNormalMatchesTruncated(t *testing.T) {
	bands := []struct {
		tn        TruncNormal
		wantClamp bool
	}{
		{TruncNormal{Mu: 40.1, Sigma: 4.2, Low: 28, High: 64}, false},
		{TruncNormal{Mu: 0, Sigma: 1, Low: 1.5, High: 2}, true},   // ≈ 6 % of draws clamp
		{TruncNormal{Mu: 0, Sigma: 1, Low: 5, High: 6}, true},     // nearly all clamp, to Low
		{TruncNormal{Mu: 0, Sigma: 1, Low: -6, High: -5}, true},   // nearly all clamp, to High
		{TruncNormal{Mu: 40, Sigma: 4, Low: 60, High: 60}, true},  // a one-point band
		{TruncNormal{Mu: 40, Sigma: 0, Low: 28, High: 64}, false}, // no spread
		{TruncNormal{Mu: 70, Sigma: 0, Low: 28, High: 64}, true},  // no spread, outside
	}
	for _, b := range bands {
		tr := Truncated{S: Normal{Mu: b.tn.Mu, Sigma: b.tn.Sigma}, Low: b.tn.Low, High: b.tn.High}
		clamps := 0
		for _, s := range seedPairs(4) {
			var p PCG
			p.Seed(s[0], s[1])
			g := newRNG(s[0], s[1])
			for k := 0; k < 20_000; k++ {
				got, want := truncDraw(b.tn, &p), tr.Sample(g)
				if got != want {
					t.Fatalf("%+v seed %x draw %d: TruncNormal %v, Truncated %v", b.tn, s, k, got, want)
				}
				if p != g.pcg {
					t.Fatalf("%+v seed %x draw %d: TruncNormal and Truncated consumed different words", b.tn, s, k)
				}
				if got == b.tn.Low || got == b.tn.High {
					clamps++
				}
			}
		}
		if b.wantClamp && clamps == 0 {
			t.Errorf("%+v: no draw reached the 64-try clamp", b.tn)
		}
	}
}

var normSink float64

// BenchmarkNorm times one standard normal draw: math/rand/v2's
// Rand.NormFloat64 (through the Source interface) against PCG.Norm and the
// inlined fast half a fill loop runs.
func BenchmarkNorm(b *testing.B) {
	b.Run("stdlib", func(b *testing.B) {
		r := rand.New(rand.NewPCG(1, 2))
		var s float64
		for i := 0; i < b.N; i++ {
			s += r.NormFloat64()
		}
		normSink = s
	})
	b.Run("PCG.Norm", func(b *testing.B) {
		var p PCG
		p.Seed(1, 2)
		var s float64
		for i := 0; i < b.N; i++ {
			s += p.Norm()
		}
		normSink = s
	})
	b.Run("inline", func(b *testing.B) {
		var g PCG
		g.Seed(1, 2)
		p := &PCG{}
		var s float64
		var u uint64
		for i := 0; i < b.N; i++ {
			g, u = g.Next()
			z, ok := NormFast(u)
			if !ok {
				*p = g
				z = p.NormSlow(u)
				g = *p
			}
			s += z
		}
		normSink = s
	})
}
