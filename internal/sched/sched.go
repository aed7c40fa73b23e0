// Package sched is the process-wide worker budget: one shared pool of
// worker tokens that every concurrent stage — generators (one token each),
// trace writer compression workers, sharded collector groups, segment
// decoders — draws from, instead of each stage independently assuming it
// owns GOMAXPROCS.
//
// The problem it solves is compositional: a fleet run of N generators where
// the writer sizes its compression pool to GOMAXPROCS and the aggregate
// suite shards to GOMAXPROCS launches two machines' worth of goroutines
// beside N busy ones on one machine.
// None of that is incorrect — every worker-count knob in this repo is
// byte-deterministic — but the oversubscription costs real throughput in
// scheduler churn and cache pressure. With a budget, concurrent stages
// split the hardware once, at acquisition time.
//
// Worker counts never affect results, only speed, so the budget is
// deliberately forgiving: Acquire always grants at least one worker even
// when the pool is exhausted (a floor grant oversubscribes by one rather
// than deadlocking or failing), and nothing blocks. The accounting exists
// to make "auto" settings add up to the machine, not to enforce a hard
// cap.
package sched

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
)

// Auto is the sentinel worker count meaning "resolve from the process
// budget". Config knobs that accept it (trace.Writer.Workers,
// cstrace.Config.Parallelism, ...) replace it with a
// grant from Default at run start and release the grant when the run ends.
const Auto = -1

// Budget is a pool of worker tokens. The zero value is not ready; use
// NewBudget (or the shared Default).
type Budget struct {
	mu    sync.Mutex
	fixed int // 0 = track runtime.GOMAXPROCS dynamically
	used  int
}

// NewBudget returns a budget of the given size. total <= 0 sizes the
// budget to runtime.GOMAXPROCS, re-sampled at every acquisition so tests
// (and applications) that change GOMAXPROCS see the budget follow.
func NewBudget(total int) *Budget {
	if total < 0 {
		total = 0
	}
	return &Budget{fixed: total}
}

// procBudget is the shared process-wide budget, sized to GOMAXPROCS.
var procBudget = NewBudget(0)

// Default returns the shared process-wide budget that Auto knobs resolve
// against.
func Default() *Budget { return procBudget }

// Total returns the budget's size.
func (b *Budget) Total() int {
	if b.fixed > 0 {
		return b.fixed
	}
	return runtime.GOMAXPROCS(0)
}

func (b *Budget) free() int {
	if f := b.Total() - b.used; f > 0 {
		return f
	}
	return 0
}

// Lease is one acquisition from a budget. Workers is the granted count;
// Release returns the tokens. Release is idempotent.
type Lease struct {
	b       *Budget
	n       int // granted worker count, >= 1
	charged int // tokens actually debited (0 for a floor grant)
}

// Workers returns the granted worker count (always >= 1).
func (l *Lease) Workers() int { return l.n }

// Release returns the lease's tokens to the budget.
func (l *Lease) Release() {
	if l.charged > 0 {
		l.b.mu.Lock()
		l.b.used -= l.charged
		l.b.mu.Unlock()
		l.charged = 0
	}
}

// Acquire grants up to want workers, bounded by the budget's free share.
// The grant is never zero: an exhausted budget yields a floor grant of one
// worker that is not charged against the pool — worker counts change
// speed, never results, so starving a stage entirely is the only wrong
// answer. want < 1 asks for one worker.
func (b *Budget) Acquire(want int) *Lease {
	if want < 1 {
		want = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	grant := b.free()
	if grant > want {
		grant = want
	}
	l := &Lease{b: b, n: grant, charged: grant}
	if grant < 1 {
		l.n = 1 // floor grant: uncharged single worker
	}
	b.used += l.charged
	return l
}

// Split divides n workers across k members as evenly as possible, every
// member getting at least one: the deterministic fair division
// analysis.Shard uses to deal its collector units to workers in contiguous
// chunks. Members earlier in the slice receive the remainder.
func Split(n, k int) []int {
	if k <= 0 {
		return nil
	}
	out := make([]int, k)
	if n < k {
		n = k
	}
	q, r := n/k, n%k
	for i := range out {
		out[i] = q
		if i < r {
			out[i]++
		}
	}
	return out
}

// ParseWorkers parses a worker-count flag value: "auto" (any case) yields
// Auto, otherwise a non-negative integer.
func ParseWorkers(s string) (int, error) {
	if s == "auto" || s == "Auto" || s == "AUTO" {
		return Auto, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("sched: worker count %q (want \"auto\" or a non-negative integer)", s)
	}
	return n, nil
}
