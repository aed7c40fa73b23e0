package timeseries

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestNewBinnerValidation(t *testing.T) {
	if _, err := NewBinner(0); err == nil {
		t.Error("want error for zero interval")
	}
	if _, err := NewBinner(-time.Second); err == nil {
		t.Error("want error for negative interval")
	}
}

func TestBinnerAdd(t *testing.T) {
	b := MustBinner(10 * time.Millisecond)
	b.Add(0, 1)
	b.Add(9*time.Millisecond, 1)
	b.Add(10*time.Millisecond, 1)
	b.Add(25*time.Millisecond, 5)
	b.Add(-time.Millisecond, 2) // clamped to bin 0
	bins := b.bins
	if len(bins) != 3 {
		t.Fatalf("bins = %v", bins)
	}
	if bins[0] != 4 || bins[1] != 1 || bins[2] != 5 {
		t.Errorf("bins = %v", bins)
	}
}

func TestBinnerPadTo(t *testing.T) {
	b := MustBinner(time.Second)
	b.Add(500*time.Millisecond, 1)
	b.PadTo(5 * time.Second)
	if b.Len() != 5 {
		t.Errorf("Len = %d, want 5", b.Len())
	}
	// Padding never shrinks.
	b.PadTo(time.Second)
	if b.Len() != 5 {
		t.Error("PadTo shrank the series")
	}
}

func TestBinnerRates(t *testing.T) {
	b := MustBinner(50 * time.Millisecond)
	b.Add(0, 10) // 10 packets in 50ms -> 200/s
	r := b.Rates()
	if math.Abs(r[0]-200) > 1e-9 {
		t.Errorf("rate = %v, want 200", r[0])
	}
}

func TestAggregate(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7}
	got := Aggregate(xs, 2)
	want := []float64{1.5, 3.5, 5.5} // trailing 7 discarded
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got %v, want %v", got, want)
			break
		}
	}
	if Aggregate(xs, 0) != nil {
		t.Error("m=0 should return nil")
	}
	if len(Aggregate(xs, 10)) != 0 {
		t.Error("m>len should return empty")
	}
}

func TestAggregateSumPreservesTotalProperty(t *testing.T) {
	// Property: m times the sum of Aggregate equals the sum of the
	// consumed prefix.
	f := func(raw []float64, m8 uint8) bool {
		m := int(m8)%8 + 1
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				xs = append(xs, x)
			}
		}
		var sumAgg, sumPrefix float64
		for _, v := range Aggregate(xs, m) {
			sumAgg += v * float64(m)
		}
		n := (len(xs) / m) * m
		for _, v := range xs[:n] {
			sumPrefix += v
		}
		return math.Abs(sumAgg-sumPrefix) <= 1e-6*(1+math.Abs(sumPrefix))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAggregateMeanInvariantProperty(t *testing.T) {
	// Property: the mean of the aggregated series equals the mean of the
	// consumed prefix (aggregation preserves the first moment).
	f := func(raw []float64, m8 uint8) bool {
		m := int(m8)%5 + 1
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				xs = append(xs, x)
			}
		}
		if len(xs) < m {
			return true
		}
		agg := Aggregate(xs, m)
		n := len(agg) * m
		var ma, mp float64
		for _, v := range agg {
			ma += v
		}
		ma /= float64(len(agg))
		for _, v := range xs[:n] {
			mp += v
		}
		mp /= float64(n)
		return math.Abs(ma-mp) <= 1e-6*(1+math.Abs(mp))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
