package population

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"cstrace/internal/dist"
)

func baseConfig(seed uint64) Config {
	return Config{
		Seed:        seed,
		Duration:    6 * time.Hour,
		Warmup:      time.Hour,
		Resolution:  time.Second,
		ArrivalRate: 0.4,
		Session:     dist.Exponential{MeanV: 700},
	}
}

func TestOccupancySteadyStateMean(t *testing.T) {
	// M/G/∞: E[N] = λ·E[S] = 0.4 × 700 = 280, regardless of the session
	// distribution.
	occ, err := Occupancy(baseConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, n := range occ {
		mean += n
	}
	mean /= float64(len(occ))
	if mean < 260 || mean > 300 {
		t.Errorf("mean occupancy %.1f, want ≈280", mean)
	}
}

func TestOccupancyNeverNegative(t *testing.T) {
	occ, err := Occupancy(baseConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range occ {
		if n < 0 {
			t.Fatalf("bin %d negative: %f", i, n)
		}
	}
}

func TestOccupancyDeterministic(t *testing.T) {
	a, err := Occupancy(baseConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Occupancy(baseConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("bin %d differs: %f vs %f", i, a[i], b[i])
		}
	}
}

func TestAddIntervalExactOverlap(t *testing.T) {
	bins := make([]float64, 10)
	// [1.5, 3.25) seconds over 1-second bins: 0.5 in bin 1, 1.0 in bin 2,
	// 0.25 in bin 3.
	addInterval(bins, 1, 1.5, 3.25)
	want := []float64{0, 0.5, 1, 0.25, 0, 0, 0, 0, 0, 0}
	for i := range bins {
		if math.Abs(bins[i]-want[i]) > 1e-12 {
			t.Errorf("bin %d = %f, want %f", i, bins[i], want[i])
		}
	}
}

func TestAddIntervalClipping(t *testing.T) {
	bins := make([]float64, 4)
	addInterval(bins, 1, -5, 2.5)     // starts before the window
	addInterval(bins, 1, 3.5, 100)    // ends after the window
	addInterval(bins, 1, -10, -1)     // entirely before
	addInterval(bins, 1, 50, 60)      // entirely after
	want := []float64{1, 1, 0.5, 0.5} // 2.5 s from first, 0.5 s from second
	for i := range bins {
		if math.Abs(bins[i]-want[i]) > 1e-12 {
			t.Errorf("bin %d = %f, want %f", i, bins[i], want[i])
		}
	}
}

func TestAddIntervalConservationProperty(t *testing.T) {
	// The accumulated time must equal the clipped interval length.
	f := func(a100, len100 uint16) bool {
		bins := make([]float64, 100)
		a := float64(a100)/100 - 20 // may start before the window
		b := a + float64(len100)/50
		addInterval(bins, 1, a, b)
		var sum float64
		for _, v := range bins {
			sum += v
		}
		ca, cb := math.Max(a, 0), math.Min(b, 100)
		want := math.Max(cb-ca, 0)
		return math.Abs(sum-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.Resolution = 0 },
		func(c *Config) { c.Warmup = -time.Second },
		func(c *Config) { c.ArrivalRate = 0 },
		func(c *Config) { c.Session = nil },
	}
	for i, mutate := range cases {
		c := baseConfig(1)
		mutate(&c)
		if _, err := Occupancy(c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestTheoreticalH(t *testing.T) {
	if h := TheoreticalH(1.5); h != 0.75 {
		t.Errorf("H(1.5) = %f", h)
	}
	if h := TheoreticalH(2); h != 0.5 {
		t.Errorf("H(2) = %f", h)
	}
}

func TestSelfSimilarityExperiment(t *testing.T) {
	// The headline: heavy-tailed sessions make the population long-range
	// dependent; exponential sessions do not. Uses a fixed seed; the
	// assertion bands are wide enough to be robust to the estimator's
	// finite-sample noise but strict enough to separate the two regimes.
	cfg := baseConfig(7)
	cfg.Duration = 96 * time.Hour
	cfg.Warmup = 4 * time.Hour
	cfg.Resolution = 30 * time.Second
	res, err := SelfSimilarityExperiment(cfg, 1.4, 300)
	if err != nil {
		t.Fatal(err)
	}
	if res.TheoryH != 0.8 {
		t.Errorf("TheoryH = %f, want 0.8", res.TheoryH)
	}
	// E[N] = λ·E[S] = 0.4 × 300 = 120; the Pareto sample mean converges
	// slowly, so the band is generous.
	if res.MeanOccupancy < 70 || res.MeanOccupancy > 200 {
		t.Errorf("mean occupancy %.1f outside sane band", res.MeanOccupancy)
	}
	if res.Heavy.H < 0.65 {
		t.Errorf("heavy-tailed H = %.3f, want > 0.65 (long-range dependent)", res.Heavy.H)
	}
	if res.Exp.H > 0.65 {
		t.Errorf("exponential H = %.3f, want < 0.65 (short-range dependent)", res.Exp.H)
	}
	if res.Heavy.H <= res.Exp.H {
		t.Errorf("heavy H %.3f not above exp H %.3f", res.Heavy.H, res.Exp.H)
	}
	if len(res.HeavyPoints) == 0 || len(res.ExpPoints) == 0 {
		t.Error("variance-time plots missing")
	}
}

func TestSelfSimilarityRejectsBadAlpha(t *testing.T) {
	cfg := baseConfig(1)
	for _, alpha := range []float64{0.5, 1, 2, 3} {
		if _, err := SelfSimilarityExperiment(cfg, alpha, 300); err == nil {
			t.Errorf("alpha=%v accepted", alpha)
		}
	}
}
