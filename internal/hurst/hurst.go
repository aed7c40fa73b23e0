// Package hurst implements the aggregated-variance estimate of the Hurst
// parameter used in the paper's Fig 5, together with a streaming variant
// that runs over half-billion-packet traces in constant memory.
//
// Method (the paper's §III-B): divide the base series into consecutive
// blocks of m values, average within blocks, and compute the variance of the
// resulting series X^(m). Plot log(var(X^(m))/var(X)) against log(m). For a
// short-range dependent process the slope β is −1 (H = 1/2); a long-range
// dependent process keeps variance across scales, β > −1, H = 1 − β/2 → 1.
package hurst

import (
	"math"
	"sort"

	"cstrace/internal/stats"
	"cstrace/internal/timeseries"
)

// Point is one variance-time sample: Log10M against Log10NormVar, plus the
// raw values they came from.
type Point struct {
	M          int     // aggregation level in base intervals
	Log10M     float64 // log10(m)
	NormVar    float64 // var(X^(m)) / var(X^(1))
	Log10Var   float64 // log10(NormVar)
	BlockCount int64   // number of aggregated blocks observed
}

// Estimate is a fitted Hurst parameter over a range of aggregation levels.
type Estimate struct {
	H     float64 // 1 - slope/2, clamped to [0, 1]
	Slope float64 // β, the variance-time slope (typically in [-2, 0])
	R2    float64
	N     int // points used
}

// EstimateFromPoints fits the variance-time slope through points whose m lies
// in [mLow, mHigh] and converts it to H = 1 − β/2.
func EstimateFromPoints(points []Point, mLow, mHigh int) (Estimate, error) {
	var xs, ys []float64
	for _, p := range points {
		if p.M < mLow || p.M > mHigh {
			continue
		}
		if p.NormVar <= 0 || math.IsNaN(p.Log10Var) || math.IsInf(p.Log10Var, 0) {
			continue
		}
		xs = append(xs, p.Log10M)
		ys = append(ys, p.Log10Var)
	}
	fit, err := stats.FitLine(xs, ys)
	if err != nil {
		return Estimate{}, err
	}
	h := 1 + fit.Slope/2 // slope is negative: H = 1 - |β|/2
	if h < 0 {
		h = 0
	}
	if h > 1 {
		h = 1
	}
	return Estimate{H: h, Slope: fit.Slope, R2: fit.R2, N: fit.N}, nil
}

// VarianceTime computes variance-time points for an in-memory base series at
// the given aggregation levels (in base intervals). Levels that leave fewer
// than two blocks are skipped.
func VarianceTime(base []float64, levels []int) []Point {
	v1 := stats.Variance(base)
	var out []Point
	for _, m := range levels {
		if m <= 0 {
			continue
		}
		agg := timeseries.Aggregate(base, m)
		if len(agg) < 2 {
			continue
		}
		v := stats.Variance(agg)
		p := Point{M: m, Log10M: math.Log10(float64(m)), BlockCount: int64(len(agg))}
		if v1 > 0 {
			p.NormVar = v / v1
		}
		if p.NormVar > 0 {
			p.Log10Var = math.Log10(p.NormVar)
		} else {
			p.Log10Var = math.Inf(-1)
		}
		out = append(out, p)
	}
	return out
}

// DefaultLevels returns a log-spaced ladder of aggregation levels from 1 up
// to max (inclusive where representable), roughly 10 per decade. This matches
// the density of points in the paper's Fig 5.
func DefaultLevels(max int) []int {
	if max < 1 {
		return nil
	}
	seen := map[int]bool{}
	var out []int
	for e := 0.0; ; e += 0.1 {
		m := int(math.Round(math.Pow(10, e)))
		if m > max {
			break
		}
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	sort.Ints(out)
	return out
}
