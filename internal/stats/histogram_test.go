package stats

import (
	"testing"
)

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("want error for zero bins")
	}
	if _, err := NewHistogram(10, 10, 5); err == nil {
		t.Error("want error for empty range")
	}
	if _, err := NewHistogram(0, 10, 5); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := MustHistogram(0, 10, 10)
	h.Add(0)    // bin 0
	h.Add(0.5)  // bin 0
	h.Add(9.99) // bin 9
	h.Add(-5)   // clamped to bin 0
	h.Add(42)   // clamped to bin 9
	if h.Count(0) != 3 {
		t.Errorf("bin 0 count = %d, want 3", h.Count(0))
	}
	if h.Count(9) != 2 {
		t.Errorf("bin 9 count = %d, want 2", h.Count(9))
	}
	var total int64
	for i := range h.NumBins() {
		total += h.Count(i)
	}
	if total != 5 {
		t.Errorf("total = %d", total)
	}
}

func TestIntHistogram(t *testing.T) {
	h := NewIntHistogram(500)
	h.Add(40)
	h.Add(40)
	h.Add(130)
	h.Add(700) // clamped into last bin but exact sum preserved
	h.Add(-3)  // clamped to 0... value counted as 0
	cdf := h.CDF()
	for v, want := range map[int]float64{0: 1.0 / 5, 39: 1.0 / 5, 40: 3.0 / 5, 130: 4.0 / 5, 499: 4.0 / 5, 500: 1} {
		if cdf[v] != want {
			t.Errorf("CDF[%d] = %v, want %v", v, cdf[v], want)
		}
	}
	wantMean := (40.0 + 40 + 130 + 700 + 0) / 5
	if !almost(h.Mean(), wantMean, 1e-9) {
		t.Errorf("Mean = %v, want %v", h.Mean(), wantMean)
	}
}

func TestIntHistogramPDFCDF(t *testing.T) {
	h := NewIntHistogram(10)
	for v := 0; v <= 10; v++ {
		h.Add(v)
	}
	cdf := h.CDF()
	if !almost(cdf[10], 1, 1e-12) {
		t.Errorf("cdf end = %v", cdf[10])
	}
	if !almost(cdf[4], 5.0/11, 1e-12) {
		t.Errorf("cdf[4] = %v", cdf[4])
	}
}

func TestIntHistogramBinnedPDF(t *testing.T) {
	h := NewIntHistogram(9)
	for v := 0; v <= 9; v++ {
		h.Add(v)
	}
	b := h.BinnedPDF(5)
	if len(b) != 2 {
		t.Fatalf("bins = %d", len(b))
	}
	if !almost(b[0], 0.5, 1e-12) || !almost(b[1], 0.5, 1e-12) {
		t.Errorf("binned = %v", b)
	}
	if got := h.BinnedPDF(0); len(got) != 10 {
		t.Error("width 0 should behave as width 1")
	}
}
