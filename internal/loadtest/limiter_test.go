package loadtest

import (
	"testing"
	"time"
)

func TestLimiterTable(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(d time.Duration) time.Time { return t0.Add(d) }

	cases := []struct {
		name  string
		rate  float64
		burst int
		steps []struct {
			at    time.Duration
			allow bool
		}
	}{
		{
			name: "rate zero is unlimited", rate: 0, burst: 1,
			steps: []struct {
				at    time.Duration
				allow bool
			}{
				{0, true}, {0, true}, {0, true}, {time.Hour, true},
			},
		},
		{
			name: "negative rate is unlimited", rate: -3, burst: 1,
			steps: []struct {
				at    time.Duration
				allow bool
			}{
				{0, true}, {0, true},
			},
		},
		{
			name: "burst one: full bucket, then strict pacing", rate: 10, burst: 1,
			steps: []struct {
				at    time.Duration
				allow bool
			}{
				{0, true},  // the single initial token
				{0, false}, // bucket empty
				{50 * time.Millisecond, false},
				{100 * time.Millisecond, true}, // one token minted at 10/s
				{110 * time.Millisecond, false},
			},
		},
		{
			name: "burst clamps below one", rate: 10, burst: 0,
			steps: []struct {
				at    time.Duration
				allow bool
			}{
				{0, true}, {0, false},
			},
		},
		{
			name: "burst absorbs idle time up to capacity", rate: 10, burst: 3,
			steps: []struct {
				at    time.Duration
				allow bool
			}{
				{0, true}, {0, true}, {0, true}, {0, false},
				// A long idle period refills to burst, not beyond.
				{10 * time.Second, true}, {10 * time.Second, true},
				{10 * time.Second, true}, {10 * time.Second, false},
			},
		},
		{
			name: "clock skew mints nothing", rate: 10, burst: 1,
			steps: []struct {
				at    time.Duration
				allow bool
			}{
				{time.Second, true},             // spends the initial token
				{500 * time.Millisecond, false}, // clock stepped back: no minting
				{400 * time.Millisecond, false}, // further back: still nothing
				// Forward progress resumes from the most recent (earliest)
				// reference point.
				{500 * time.Millisecond, true},
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLimiter(tc.rate, tc.burst)
			for i, s := range tc.steps {
				if got := l.Allow(at(s.at)); got != s.allow {
					t.Fatalf("step %d (t=%v): Allow=%v, want %v", i, s.at, got, s.allow)
				}
			}
		})
	}
}

func TestLimiterDelay(t *testing.T) {
	t0 := time.Unix(1000, 0)
	l := NewLimiter(10, 1)
	if d := l.Delay(t0); d != 0 {
		t.Fatalf("full bucket Delay = %v, want 0", d)
	}
	if !l.Allow(t0) {
		t.Fatal("full bucket refused")
	}
	// Empty bucket at 10/s: next token 100ms out.
	d := l.Delay(t0)
	if d <= 0 || d > 100*time.Millisecond {
		t.Fatalf("empty bucket Delay = %v, want (0, 100ms]", d)
	}
	// Delay must not consume: Allow at the promised time succeeds.
	if !l.Allow(t0.Add(d)) {
		t.Fatal("Allow failed at the time Delay promised")
	}
	// Unlimited limiter never delays.
	if d := NewLimiter(0, 1).Delay(t0); d != 0 {
		t.Fatalf("unlimited Delay = %v, want 0", d)
	}
}
