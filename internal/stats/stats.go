// Package stats provides the descriptive statistics the trace analysis is
// built on: streaming moments, histograms, least-squares fits and
// quantiles.
//
// Everything here is stdlib-only and allocation-conscious: the analysis
// pipeline feeds hundreds of millions of samples through these types.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Welford accumulates count, mean and variance in a single streaming pass
// using Welford's numerically stable recurrence. The zero value is ready to
// use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one sample.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (0 if empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance (0 if fewer than 1 sample).
func (w *Welford) Variance() float64 {
	if w.n < 1 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Summary is a Welford accumulator that also keeps the largest sample.
type Summary struct {
	Welford
	max float64
}

// Add incorporates one sample.
func (s *Summary) Add(x float64) {
	if s.Welford.n == 0 || x > s.max {
		s.max = x
	}
	s.Welford.Add(x)
}

// Max returns the largest sample seen (0 if empty).
func (s *Summary) Max() float64 { return s.max }

// Mean of a slice. Returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of a slice (0 if empty).
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs need not be sorted.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// LinearFit is an ordinary least-squares line y = Intercept + Slope*x.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
	N         int
}

// FitLine computes the least-squares fit through the points (xs[i], ys[i]).
// It returns an error if fewer than two points are given or all x are equal.
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, errors.New("stats: FitLine: mismatched lengths")
	}
	n := len(xs)
	if n < 2 {
		return LinearFit{}, errors.New("stats: FitLine: need at least 2 points")
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: FitLine: degenerate x values")
	}
	slope := sxy / sxx
	fit := LinearFit{
		Slope:     slope,
		Intercept: my - slope*mx,
		N:         n,
	}
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		fit.R2 = 1 // perfectly flat data is perfectly fit by a flat line
	}
	return fit, nil
}
