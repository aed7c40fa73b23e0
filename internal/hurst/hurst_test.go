package hurst

import (
	"math"
	"testing"

	"cstrace/internal/dist"
)

// white returns i.i.d. noise: the canonical H = 1/2 process.
func white(n int, seed uint64) []float64 {
	r := dist.NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = r.NormFloat64()
	}
	return out
}

// whiteStream returns a generator of i.i.d. normal values.
func whiteStream(seed uint64) func() float64 {
	r := dist.NewRNG(seed)
	return r.NormFloat64
}

// periodic returns a deterministic period-p burst process: one busy interval
// per period. Aggregating past the period removes all variance much faster
// than i.i.d. noise does, which is the signature (H < 1/2, negative
// correlation) the paper sees below 50 ms.
func periodic(n, p int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if i%p == 0 {
			out[i] = float64(p)
		}
	}
	return out
}

// fgnLike builds a long-range dependent surrogate by summing slowly-varying
// random levels across geometric scales (a crude multi-scale cascade). Its
// exact H is not known analytically, but its aggregated variance decays much
// slower than 1/m, so the estimate must exceed 1/2 by a clear margin.
func fgnLike(n int, seed uint64) []float64 {
	r := dist.NewRNG(seed)
	out := make([]float64, n)
	for scale := 1; scale < n; scale *= 4 {
		level := 0.0
		for i := 0; i < n; i++ {
			if i%scale == 0 {
				level = r.NormFloat64()
			}
			out[i] += level
		}
	}
	return out
}

func estimate(t *testing.T, base []float64, mLow, mHigh int) Estimate {
	t.Helper()
	pts := VarianceTime(base, DefaultLevels(len(base)/4))
	est, err := EstimateFromPoints(pts, mLow, mHigh)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func TestWhiteNoiseHurstIsHalf(t *testing.T) {
	est := estimate(t, white(1<<16, 1), 1, 1<<12)
	if math.Abs(est.H-0.5) > 0.05 {
		t.Errorf("H(white) = %.3f, want ~0.5 (slope %.3f)", est.H, est.Slope)
	}
	if est.R2 < 0.98 {
		t.Errorf("R2 = %.3f, expected a clean -1 slope", est.R2)
	}
}

func TestPeriodicProcessBelowHalf(t *testing.T) {
	// The paper's Fig 5 shows "H drops below 1/2" for m below the 50ms tick
	// period. Periodic bursts smooth faster than independent noise.
	base := periodic(1<<15, 5)
	pts := VarianceTime(base, []int{1, 2, 3, 4, 5})
	est, err := EstimateFromPoints(pts, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if est.H >= 0.45 {
		t.Errorf("H(periodic, sub-period) = %.3f, want < 0.45 (slope %.3f)", est.H, est.Slope)
	}
	// Beyond the period the process is constant: variance vanishes.
	ptsBig := VarianceTime(base, []int{5, 10, 25})
	for _, p := range ptsBig {
		if p.M%5 == 0 && p.NormVar > 1e-20 {
			t.Errorf("variance at multiple-of-period m=%d should be ~0, got %v", p.M, p.NormVar)
		}
	}
}

func TestLRDProcessAboveHalf(t *testing.T) {
	est := estimate(t, fgnLike(1<<15, 2), 4, 1<<10)
	if est.H < 0.7 {
		t.Errorf("H(LRD surrogate) = %.3f, want > 0.7 (slope %.3f)", est.H, est.Slope)
	}
}

func TestEstimateFromPointsErrors(t *testing.T) {
	if _, err := EstimateFromPoints(nil, 1, 10); err == nil {
		t.Error("want error for no points")
	}
}

func TestDefaultLevels(t *testing.T) {
	ls := DefaultLevels(1000)
	if ls[0] != 1 {
		t.Error("levels must start at 1")
	}
	for i := 1; i < len(ls); i++ {
		if ls[i] <= ls[i-1] {
			t.Fatal("levels must be strictly increasing")
		}
		if ls[i] > 1000 {
			t.Fatal("levels must not exceed max")
		}
	}
	if DefaultLevels(0) != nil {
		t.Error("max<1 should return nil")
	}
}
