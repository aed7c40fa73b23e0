// Package dist provides the deterministic random-variate machinery shared by
// every stochastic component of the reproduction: a splittable seeded RNG and
// a small algebra of samplers (constant, uniform, exponential, normal,
// lognormal, Pareto, truncation, mixtures) plus a Zipf rank sampler for the
// skewed client-popularity model, and TruncNormal, the truncated normal a
// caller draws with its first try inline.
//
// Everything is driven by an explicit *RNG so that simulations are exactly
// reproducible from a single seed, and independent subsystems can Split()
// their own streams without perturbing one another. Underneath is PCG, a
// value-type copy of math/rand/v2's generator and ziggurat normal sampler
// (pcg.go) that a hot loop can hold in registers; it draws exactly what the
// standard library draws from the same seeds.
package dist

import (
	"errors"
	"math"
	"math/rand/v2"
)

// RNG is a deterministic, seedable random source: math/rand/v2's PCG,
// held by value (see PCG), behind a rand.Rand for the draws PCG does not
// make itself. A given seed yields the same stream on every platform.
type RNG struct {
	pcg PCG
	r   *rand.Rand // draws from &pcg
}

func newRNG(a, b uint64) *RNG {
	g := &RNG{pcg: PCG{hi: a, lo: b}}
	g.r = rand.New(&g.pcg)
	return g
}

// NewRNG creates a generator from a seed.
func NewRNG(seed uint64) *RNG {
	return newRNG(seed, seed^0x94d049bb133111eb)
}

// Split derives an independent generator from this one. The parent advances,
// so successive Splits yield distinct streams.
func (g *RNG) Split() *RNG {
	return newRNG(g.pcg.Uint64(), g.pcg.Uint64())
}

// Splitter derives an indexed family of independent PCG streams from one
// point in a parent stream: stream i depends only on the two key words
// drawn when the Splitter was created and on i, never on how many other
// streams were seeded or in what order. That is what lets work units
// (one simulation tick, one player session) be reached lazily, skipped or
// visited out of order while sampling exactly the values a sequential run
// would.
type Splitter struct {
	k1, k2 uint64
}

// NewSplitter draws the key material for an indexed stream family,
// advancing the parent by two words.
func (g *RNG) NewSplitter() Splitter {
	return Splitter{k1: g.pcg.Uint64(), k2: g.pcg.Uint64()}
}

// splitmix64 is the SplitMix64 finalizer: a bijective mixer whose output is
// statistically independent across consecutive inputs, the standard way to
// derive seed families from a counter.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// Seed turns p, whatever it drew before, into the family's i-th stream.
// Calls are pure: the same (Splitter, i) always seeds the same stream. A
// consumer that walks the family one stream at a time (one simulation tick
// after another) keeps a single generator and re-seeds it.
func (s Splitter) Seed(p *PCG, i uint64) {
	p.Seed(splitmix64(s.k1^i), splitmix64(s.k2+i*0x9E3779B97F4A7C15))
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.pcg.float64() }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.pcg.Uint64() }

// Intn returns a uniform value in [0,n). n must be > 0.
func (g *RNG) Intn(n int) int { return g.r.IntN(n) }

// ExpFloat64 returns an exponential variate with mean 1.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// NormFloat64 returns a standard normal variate: the draw
// rand.Rand.NormFloat64 makes, through PCG.Norm.
func (g *RNG) NormFloat64() float64 { return g.pcg.Norm() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.Float64() < p
}

// Sampler draws real-valued variates from a distribution.
type Sampler interface {
	Sample(r *RNG) float64
}

// Constant always returns V.
type Constant struct{ V float64 }

// Sample implements Sampler.
func (c Constant) Sample(*RNG) float64 { return c.V }

// Uniform is the continuous uniform distribution on [Low, High).
type Uniform struct{ Low, High float64 }

// Sample implements Sampler.
func (u Uniform) Sample(r *RNG) float64 {
	return u.Low + r.Float64()*(u.High-u.Low)
}

// Exponential has mean MeanV.
type Exponential struct{ MeanV float64 }

// Sample implements Sampler.
func (e Exponential) Sample(r *RNG) float64 { return e.MeanV * r.ExpFloat64() }

// Normal is the Gaussian distribution.
type Normal struct{ Mu, Sigma float64 }

// Sample implements Sampler.
func (n Normal) Sample(r *RNG) float64 { return n.Mu + n.Sigma*r.NormFloat64() }

// LogNormal is parameterized by the underlying normal's location and shape.
type LogNormal struct{ Mu, Sigma float64 }

// Sample implements Sampler.
func (l LogNormal) Sample(r *RNG) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// LogNormalFromMean returns a lognormal whose distribution mean is mean and
// whose log-domain shape is sigma (mu = ln(mean) − sigma²/2).
func LogNormalFromMean(mean, sigma float64) Sampler {
	return LogNormal{Mu: math.Log(mean) - sigma*sigma/2, Sigma: sigma}
}

// Pareto is the classic Pareto distribution with scale Xm and shape Alpha;
// its mean is Alpha·Xm/(Alpha−1) for Alpha > 1.
type Pareto struct{ Xm, Alpha float64 }

// Sample implements Sampler.
func (p Pareto) Sample(r *RNG) float64 {
	u := 1 - r.Float64() // (0,1], avoids division by zero
	return p.Xm * math.Pow(u, -1/p.Alpha)
}

// Truncated rejection-samples S into [Low, High], clamping after a bounded
// number of attempts so pathological configurations cannot spin forever.
type Truncated struct {
	S         Sampler
	Low, High float64
}

// Sample implements Sampler.
func (t Truncated) Sample(r *RNG) float64 {
	for i := 0; i < 64; i++ {
		v := t.S.Sample(r)
		if v >= t.Low && v <= t.High {
			return v
		}
	}
	v := t.S.Sample(r)
	if v < t.Low {
		return t.Low
	}
	if v > t.High {
		return t.High
	}
	return v
}

// TruncNormal is Truncated{S: Normal{Mu, Sigma}, Low, High} as a concrete
// type, for a caller that inlines the first try: it draws
// v = Mu + Sigma·z (z from the ziggurat, NormFast first) and keeps v when
// Low ≤ v ≤ High; otherwise the draw finishes in Resample. Sample-for-sample
// that is Truncated's draw from the same stream.
type TruncNormal struct{ Mu, Sigma, Low, High float64 }

// Resample finishes a draw whose first try fell outside [Low, High]: up to
// 63 more tries, then one clamped draw, as Truncated's 64-try loop does.
func (t TruncNormal) Resample(p *PCG) float64 {
	for i := 1; i < 64; i++ {
		if v := t.Mu + t.Sigma*p.Norm(); v >= t.Low && v <= t.High {
			return v
		}
	}
	v := t.Mu + t.Sigma*p.Norm()
	if v < t.Low {
		return t.Low
	}
	if v > t.High {
		return t.High
	}
	return v
}

// Mixture samples one of its components with the configured weights.
type Mixture struct {
	samplers []Sampler
	cum      []float64 // normalized cumulative weights
}

// NewMixture builds a mixture of samplers with the given positive weights
// (normalized internally).
func NewMixture(samplers []Sampler, weights []float64) (Sampler, error) {
	if len(samplers) == 0 || len(samplers) != len(weights) {
		return nil, errors.New("dist: mixture needs matching samplers and weights")
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			return nil, errors.New("dist: negative mixture weight")
		}
		total += w
	}
	if total <= 0 {
		return nil, errors.New("dist: mixture weights sum to zero")
	}
	m := &Mixture{samplers: samplers, cum: make([]float64, len(weights))}
	var cum float64
	for i, w := range weights {
		cum += w / total
		m.cum[i] = cum
	}
	m.cum[len(m.cum)-1] = 1
	return m, nil
}

// Sample implements Sampler.
func (m *Mixture) Sample(r *RNG) float64 {
	u := r.Float64()
	for i, c := range m.cum {
		if u < c {
			return m.samplers[i].Sample(r)
		}
	}
	return m.samplers[len(m.samplers)-1].Sample(r)
}

// Zipf draws ranks 0..N-1 with probability proportional to 1/(rank+1)^s —
// the skewed re-visit popularity of the regular client population.
type Zipf struct {
	cum []float64
}

// NewZipf builds the rank distribution over n elements with exponent s ≥ 0.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n <= 0 {
		return nil, errors.New("dist: zipf needs n > 0")
	}
	if s < 0 || math.IsNaN(s) {
		return nil, errors.New("dist: zipf needs exponent ≥ 0")
	}
	z := &Zipf{cum: make([]float64, n)}
	var total float64
	for k := 0; k < n; k++ {
		total += math.Pow(float64(k+1), -s)
		z.cum[k] = total
	}
	for k := range z.cum {
		z.cum[k] /= total
	}
	z.cum[n-1] = 1
	return z, nil
}

// Rank draws a rank in [0, N).
func (z *Zipf) Rank(r *RNG) int {
	u := r.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
