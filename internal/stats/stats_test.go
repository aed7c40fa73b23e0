package stats

import (
	"math"
	"testing"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if !almost(w.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	if !almost(w.Variance(), 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", w.Variance())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 {
		t.Error("empty Welford should report zeros")
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	for _, x := range []float64{3, -1, 4, 1, 5} {
		s.Add(x)
	}
	if s.Max() != 5 {
		t.Errorf("Max = %v", s.Max())
	}
	if !almost(s.Mean(), 2.4, 1e-12) {
		t.Errorf("Mean = %v", s.Mean())
	}
}

func TestMeanVarianceSlices(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if !almost(Mean(xs), 2.5, 1e-12) {
		t.Error("Mean")
	}
	if !almost(Variance(xs), 1.25, 1e-12) {
		t.Error("Variance")
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty slices")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Error("extremes")
	}
	if !almost(Quantile(xs, 0.5), 3, 1e-12) {
		t.Errorf("median = %v", Quantile(xs, 0.5))
	}
	if !almost(Quantile(xs, 0.25), 2, 1e-12) {
		t.Errorf("q25 = %v", Quantile(xs, 0.25))
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Slope, 2, 1e-12) || !almost(fit.Intercept, 1, 1e-12) {
		t.Errorf("fit = %+v", fit)
	}
	if !almost(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %v", fit.R2)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Error("want error for single point")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("want error for mismatched lengths")
	}
	if _, err := FitLine([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("want error for degenerate x")
	}
}

func TestFitLineRecoversNoisyLine(t *testing.T) {
	// Deterministic pseudo-noise; slope/intercept should be recovered closely.
	xs := make([]float64, 100)
	ys := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
		noise := 0.01 * math.Sin(float64(i)*12.9898)
		ys[i] = 3.5 - 0.5*xs[i] + noise
	}
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Slope, -0.5, 1e-3) || !almost(fit.Intercept, 3.5, 1e-2) {
		t.Errorf("fit = %+v", fit)
	}
	if fit.R2 < 0.999 {
		t.Errorf("R2 = %v", fit.R2)
	}
}
