// Package timeseries provides fixed-interval binned series and the block
// aggregation underlying the paper's multi-time-scale analysis.
//
// The paper examines the server's packet process at interval sizes from
// 10 ms (Fig 6) through 50 ms (Fig 8), 1 s (Fig 9) and 30 min (Fig 10), and
// studies variance as a function of aggregation level (Fig 5). Binner
// accumulates a count/sum process into equal bins; Aggregate produces the
// m-aggregated series X^(m) used by the aggregated-variance method.
package timeseries

import (
	"errors"
	"time"
)

// Binner accumulates values into fixed-duration bins indexed from time zero.
// It is append-only and assumes (but does not require) roughly time-ordered
// input; out-of-order samples are binned correctly as long as they are not
// earlier than bin zero.
type Binner struct {
	interval time.Duration
	bins     []float64
}

// NewBinner creates a binner with the given bin width.
func NewBinner(interval time.Duration) (*Binner, error) {
	if interval <= 0 {
		return nil, errors.New("timeseries: NewBinner: interval must be positive")
	}
	return &Binner{interval: interval}, nil
}

// MustBinner is NewBinner for statically known-good intervals.
func MustBinner(interval time.Duration) *Binner {
	b, err := NewBinner(interval)
	if err != nil {
		panic(err)
	}
	return b
}

// Add accumulates v into the bin containing time t (an offset from the trace
// start). Negative times are clamped into bin zero.
func (b *Binner) Add(t time.Duration, v float64) {
	i := 0
	if t > 0 {
		i = int(t / b.interval)
	}
	for i >= len(b.bins) {
		b.bins = append(b.bins, 0)
	}
	b.bins[i] += v
}

// Len returns the number of bins so far.
func (b *Binner) Len() int { return len(b.bins) }

// PadTo extends the series with zero bins so it covers through time t.
// Needed because quiet tails (e.g. an outage at end of trace) otherwise
// leave bins unmaterialized.
func (b *Binner) PadTo(t time.Duration) {
	n := int(t / b.interval)
	for len(b.bins) < n {
		b.bins = append(b.bins, 0)
	}
}

// Rates converts per-bin sums into per-second rates.
func (b *Binner) Rates() []float64 {
	out := make([]float64, len(b.bins))
	sec := b.interval.Seconds()
	for i, v := range b.bins {
		out[i] = v / sec
	}
	return out
}

// Aggregate returns the m-aggregated series: consecutive non-overlapping
// blocks of m values averaged together, X^(m)_k = (1/m) Σ X_{km+i}.
// A trailing partial block is discarded, as in the standard method.
func Aggregate(xs []float64, m int) []float64 {
	if m <= 0 {
		return nil
	}
	n := len(xs) / m
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		var s float64
		base := k * m
		for i := 0; i < m; i++ {
			s += xs[base+i]
		}
		out[k] = s / float64(m)
	}
	return out
}

// Point is one (x, y) sample of a derived series such as a variance-time
// plot.
type Point struct {
	X, Y float64
}
