package hurst

import (
	"math"
	"testing"
)

func TestDyadicMatchesBatch(t *testing.T) {
	base := white(1<<13, 11)
	d, err := NewDyadic(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range base {
		d.Add(x)
	}
	levels := make([]int, 10)
	for k := range levels {
		levels[k] = 1 << k
	}
	batch := VarianceTime(base, levels)
	stream := d.Points()
	if len(stream) != len(batch) {
		t.Fatalf("points: stream %d, batch %d", len(stream), len(batch))
	}
	for i := range stream {
		if stream[i].M != batch[i].M {
			t.Fatalf("level mismatch at %d: %d vs %d", i, stream[i].M, batch[i].M)
		}
		if math.Abs(stream[i].NormVar-batch[i].NormVar) > 1e-9*(1+batch[i].NormVar) {
			t.Errorf("m=%d: stream %v, batch %v", stream[i].M, stream[i].NormVar, batch[i].NormVar)
		}
	}
}

func TestDyadicWhiteNoiseSlope(t *testing.T) {
	d, _ := NewDyadic(14)
	r := whiteStream(42)
	for i := 0; i < 1<<17; i++ {
		d.Add(r())
	}
	est, err := EstimateFromPoints(d.Points(), 1, 1<<11)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.H-0.5) > 0.05 {
		t.Errorf("H = %.3f, want ~0.5", est.H)
	}
}

func TestDyadicValidation(t *testing.T) {
	if _, err := NewDyadic(0); err == nil {
		t.Error("want error for 0 levels")
	}
	if _, err := NewDyadic(63); err == nil {
		t.Error("want error for too many levels")
	}
}

func TestDyadicBaseCount(t *testing.T) {
	d, _ := NewDyadic(4)
	for i := 0; i < 37; i++ {
		d.Add(1)
	}
	if n := d.wf[0].N(); n != 37 {
		t.Errorf("base count = %d", n)
	}
	// A constant stream has zero variance at every level; points must not
	// report positive normalized variance.
	for _, p := range d.Points() {
		if p.NormVar != 0 {
			t.Errorf("constant stream: m=%d NormVar=%v", p.M, p.NormVar)
		}
	}
}

func BenchmarkDyadicAdd(b *testing.B) {
	d, _ := NewDyadic(27)
	r := whiteStream(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Add(r())
	}
}
