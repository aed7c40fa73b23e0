package hurst

import (
	"errors"
	"math"

	"cstrace/internal/stats"
)

// Dyadic is a streaming variance-time estimator over the dyadic aggregation
// ladder m = 1, 2, 4, ..., 2^(levels-1) in O(levels) memory. It pair-sums
// upward, so the amortized cost per base value is O(1): the full-week
// 10 ms-binned process (63 M bins, 27 levels) streams through in a
// fraction of a second.
type Dyadic struct {
	carry []float64 // pending half-block sums per level
	have  []bool
	wf    []stats.Welford
}

// NewDyadic creates a dyadic ladder with the given number of levels
// (level k aggregates m = 2^k base intervals).
func NewDyadic(levels int) (*Dyadic, error) {
	if levels <= 0 || levels > 62 {
		return nil, errors.New("hurst: NewDyadic: levels must be in [1, 62]")
	}
	return &Dyadic{
		carry: make([]float64, levels),
		have:  make([]bool, levels),
		wf:    make([]stats.Welford, levels),
	}, nil
}

// Add feeds the next base-interval value.
func (d *Dyadic) Add(x float64) {
	d.wf[0].Add(x)
	sum := x
	for k := 1; k < len(d.wf); k++ {
		if !d.have[k] {
			d.carry[k] = sum
			d.have[k] = true
			return
		}
		sum += d.carry[k]
		d.have[k] = false
		d.wf[k].Add(sum / float64(int64(1)<<k))
	}
}

// Points returns variance-time points for every level with at least two
// complete blocks.
func (d *Dyadic) Points() []Point {
	v1 := d.wf[0].Variance()
	var out []Point
	for k := range d.wf {
		if d.wf[k].N() < 2 {
			continue
		}
		m := int(int64(1) << k)
		p := Point{
			M:          m,
			Log10M:     math.Log10(float64(m)),
			BlockCount: d.wf[k].N(),
		}
		if v1 > 0 {
			p.NormVar = d.wf[k].Variance() / v1
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
