package sched

import (
	"sync"
	"testing"
)

// freeOf is b's unacquired share.
func freeOf(b *Budget) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.free()
}

func TestAcquireBoundsAndFloor(t *testing.T) {
	b := NewBudget(4)
	if b.Total() != 4 || freeOf(b) != 4 {
		t.Fatalf("fresh budget: total %d free %d", b.Total(), freeOf(b))
	}
	l1 := b.Acquire(3)
	if l1.Workers() != 3 || freeOf(b) != 1 {
		t.Fatalf("acquire 3: got %d workers, %d free", l1.Workers(), freeOf(b))
	}
	l2 := b.Acquire(3)
	if l2.Workers() != 1 || freeOf(b) != 0 {
		t.Fatalf("acquire over free share: got %d workers, %d free", l2.Workers(), freeOf(b))
	}
	// Exhausted: floor grant of one, uncharged.
	l3 := b.Acquire(2)
	if l3.Workers() != 1 {
		t.Fatalf("exhausted budget must floor-grant 1, got %d", l3.Workers())
	}
	if freeOf(b) != 0 {
		t.Fatalf("floor grant must not be charged, free %d", freeOf(b))
	}
	l3.Release()
	if freeOf(b) != 0 {
		t.Fatalf("releasing a floor grant must not inflate the pool, free %d", freeOf(b))
	}
	l1.Release()
	l1.Release() // idempotent
	if freeOf(b) != 3 {
		t.Fatalf("after releasing 3: free %d", freeOf(b))
	}
	l2.Release()
	if freeOf(b) != 4 {
		t.Fatalf("fully released: free %d", freeOf(b))
	}
}

func TestAcquireWantClamp(t *testing.T) {
	b := NewBudget(8)
	if got := b.Acquire(0).Workers(); got != 1 {
		t.Fatalf("want 0 should ask for 1, got %d", got)
	}
	if got := b.Acquire(-5).Workers(); got != 1 {
		t.Fatalf("want -5 should ask for 1, got %d", got)
	}
}

func TestSplit(t *testing.T) {
	cases := []struct {
		n, k int
		want []int
	}{
		{8, 3, []int{3, 3, 2}},
		{2, 4, []int{1, 1, 1, 1}}, // every member gets at least one
		{4, 4, []int{1, 1, 1, 1}},
		{7, 2, []int{4, 3}},
		{0, 2, []int{1, 1}},
	}
	for _, c := range cases {
		got := Split(c.n, c.k)
		if len(got) != len(c.want) {
			t.Fatalf("Split(%d,%d) = %v", c.n, c.k, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Split(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
			}
		}
	}
	if Split(4, 0) != nil {
		t.Fatal("Split with k=0 should be nil")
	}
}

func TestParseWorkers(t *testing.T) {
	if n, err := ParseWorkers("auto"); err != nil || n != Auto {
		t.Fatalf("auto: %d %v", n, err)
	}
	if n, err := ParseWorkers("4"); err != nil || n != 4 {
		t.Fatalf("4: %d %v", n, err)
	}
	if n, err := ParseWorkers("0"); err != nil || n != 0 {
		t.Fatalf("0: %d %v", n, err)
	}
	for _, bad := range []string{"-2", "x", "", "1.5"} {
		if _, err := ParseWorkers(bad); err == nil {
			t.Fatalf("ParseWorkers(%q) should fail", bad)
		}
	}
}

func TestConcurrentAccountingBalances(t *testing.T) {
	b := NewBudget(6)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(want int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l := b.Acquire(want)
				if l.Workers() < 1 {
					t.Error("grant below 1")
				}
				l.Release()
			}
		}(1 + i%5)
	}
	wg.Wait()
	if freeOf(b) != 6 {
		t.Fatalf("tokens leaked: free %d of 6", freeOf(b))
	}
}
