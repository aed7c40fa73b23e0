package stats

import "errors"

// Histogram is a fixed-width-bin histogram over [Min, Max). Samples outside
// the range are clamped into the first/last bin so no mass is lost; the
// paper's figures do the same (e.g. the packet-size PDF is "truncated at 500
// bytes as only a negligible number of packets exceeded this").
type Histogram struct {
	min, width float64
	counts     []int64
}

// NewHistogram creates a histogram with nbins equal bins spanning [min, max).
func NewHistogram(min, max float64, nbins int) (*Histogram, error) {
	if nbins <= 0 {
		return nil, errors.New("stats: NewHistogram: nbins must be positive")
	}
	if !(max > min) {
		return nil, errors.New("stats: NewHistogram: max must exceed min")
	}
	return &Histogram{
		min:    min,
		width:  (max - min) / float64(nbins),
		counts: make([]int64, nbins),
	}, nil
}

// MustHistogram is NewHistogram for statically known-good parameters.
func MustHistogram(min, max float64, nbins int) *Histogram {
	h, err := NewHistogram(min, max, nbins)
	if err != nil {
		panic(err)
	}
	return h
}

// Add records one sample.
func (h *Histogram) Add(x float64) { h.counts[h.binOf(x)]++ }

func (h *Histogram) binOf(x float64) int {
	i := int((x - h.min) / h.width)
	if i < 0 {
		i = 0
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	return i
}

// NumBins returns the number of bins.
func (h *Histogram) NumBins() int { return len(h.counts) }

// Count returns the count in bin i.
func (h *Histogram) Count(i int) int64 { return h.counts[i] }

// IntHistogram is a dense histogram over small non-negative integers
// (one bin per value). It is the workhorse for packet-size distributions,
// where values are bytes in [0, ~1500].
type IntHistogram struct {
	counts []int64
	total  int64
	sum    int64
}

// NewIntHistogram creates a histogram covering values 0..max inclusive.
// Values above max are clamped into the last bin.
func NewIntHistogram(max int) *IntHistogram {
	return &IntHistogram{counts: make([]int64, max+1)}
}

// Add records one integer sample.
func (h *IntHistogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	c := v
	if c >= len(h.counts) {
		c = len(h.counts) - 1
	}
	h.counts[c]++
	h.total++
	h.sum += int64(v)
}

// Merge adds the samples of o (whose value range must not exceed h's) —
// the write-back half of collectors that tally into per-part histograms and
// combine once, and of derived views like "total = in + out".
func (h *IntHistogram) Merge(o *IntHistogram) {
	for v, c := range o.counts {
		h.counts[v] += c
	}
	h.total += o.total
	h.sum += o.sum
}

// Mean returns the exact mean of the recorded values (not bin-clamped).
func (h *IntHistogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// CDF returns cumulative probability for values <= v, for v = 0..Max.
func (h *IntHistogram) CDF() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		out[i] = float64(cum) / float64(h.total)
	}
	return out
}

// BinnedPDF groups values into bins of the given width and returns the
// probability mass per bin; used to render the paper's Fig 12 at a coarser
// granularity.
func (h *IntHistogram) BinnedPDF(width int) []float64 {
	if width <= 0 {
		width = 1
	}
	n := (len(h.counts) + width - 1) / width
	out := make([]float64, n)
	if h.total == 0 {
		return out
	}
	for i, c := range h.counts {
		out[i/width] += float64(c) / float64(h.total)
	}
	return out
}
