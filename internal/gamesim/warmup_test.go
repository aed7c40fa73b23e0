package gamesim

import (
	"fmt"
	"testing"
	"time"

	"cstrace/internal/trace"
)

// launchServer mirrors server i of the root package's LaunchDay(seed, 8)
// fleet (scenario.Spec.Build, which this package cannot import): mixed slot
// counts with demand tracking capacity, peaks spread over six hours, a 6×
// surge decaying over eight minutes, busy-server load, and the paper's
// one-map-cycle warm-up in front of a short recorded window.
func launchServer(seed uint64, i int, d time.Duration) Config {
	c := PaperConfig(seed + uint64(i+1)*0x9E3779B97F4A7C15)
	c.Duration = d
	c.Outages = nil
	slots := []int{22, 22, 32, 16}[i%4]
	c.AttemptRate *= 5 * float64(slots) / float64(c.Slots)
	c.Slots = slots
	c.DiurnalPeak += time.Duration(i) * 6 * time.Hour / 8
	c.SpikeMult, c.SpikeDecay = 6, 8*time.Minute
	return c
}

// hashSim runs a simulation the caller may drive before the production run
// takes over and returns its record count, an order-sensitive stream hash and
// the run statistics.
func hashSim(t *testing.T, cfg Config, prep func(*sim)) (int, uint64, Stats) {
	t.Helper()
	var n int
	var sum uint64
	s, err := newSim(cfg, trace.HandlerFunc(func(r trace.Record) {
		n++
		sum = streamHash(sum, r)
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if prep != nil {
		prep(s)
	}
	st := s.run()
	return n, sum, st
}

// tickedWarmup is the reference warm-up: one window per tick from time
// zero, the event queue run to each window's start and every connected player
// planned across it, nothing recorded. It is what Run did before warm-up
// went lazy; the production run that follows must find nothing left to
// catch up.
func tickedWarmup(t *testing.T) func(*sim) {
	return func(s *sim) {
		dt := s.cfg.TickInterval
		for at := time.Duration(0); at < s.cfg.Warmup; at += dt {
			s.planWindow(at, at+dt)
			if len(s.plan.recs) != 0 {
				t.Fatalf("ticked warm-up recorded %d packets in the window at %v", len(s.plan.recs), at)
			}
		}
	}
}

// TestWarmupLazyEqualsTicked is the oracle for warm-up without the packet
// plane: running the control plane alone to the recording point and
// advancing the survivors once must leave the generator in exactly the
// state ticking through every warm-up window does — same record stream,
// same count, same statistics.
func TestWarmupLazyEqualsTicked(t *testing.T) {
	const cycle = 30*time.Minute + 48*time.Second // PaperConfig's map + changeover
	paper := func(seed uint64, warmup time.Duration, tune func(*Config)) Config {
		c := busyConfig(seed, warmup, 2*time.Minute)
		if tune != nil {
			tune(&c)
		}
		return c
	}
	type tc struct {
		name string
		cfg  Config
	}
	cases := []tc{
		{"two pauses, many elites", paper(12, 65*time.Minute, func(c *Config) { c.EliteFrac = 0.3 })},
		{"pause edges off the tick grid", paper(13, 16*time.Minute, func(c *Config) {
			c.MapDuration = 7*time.Minute + 13*time.Millisecond
			c.MapChangePause = 31*time.Second + 7*time.Millisecond
			c.EliteFrac = 0.2
		})},
		// A saturated server refills the slots freed at each map change
		// within milliseconds: players whose first window is the one that
		// first sees the pause, and who survive to the recording point.
		{"connects in the tick of a pause", paper(17, 10*time.Minute, func(c *Config) {
			c.AttemptRate, c.SessionMean, c.MapLeaveProb = 30, 300, 0.2
			c.MapDuration = time.Minute + 3*time.Millisecond
			c.MapChangePause = 5*time.Second + time.Millisecond
		})},
	}
	if !testing.Short() {
		desync := launchServer(11, 0, 2*time.Minute)
		desync.DesynchronizeTicks = true
		for i := 0; i < 8; i++ {
			cases = append(cases, tc{fmt.Sprintf("launch-day server %d", i), launchServer(11, i, 4*time.Minute)})
		}
		cases = append(cases,
			tc{"desynchronized ticks", desync},
			tc{"recording starts mid-map", paper(5, 10*time.Minute, nil)},
			tc{"warm-up of one tick", paper(6, 50*time.Millisecond, nil)},
			tc{"warm-up ends on a pause start", paper(7, 30*time.Minute, nil)},
			tc{"warm-up ends on a pause end", paper(8, cycle, nil)},
			tc{"warm-up ends inside a pause", paper(9, 30*time.Minute+20*time.Second, nil)},
			tc{"warm-up ends just after a pause", paper(10, 33*time.Minute+50*time.Millisecond, func(c *Config) { c.EliteFrac = 0.1 })},
			tc{"pause shorter than a tick", paper(14, 12*time.Minute, func(c *Config) {
				c.MapDuration = 5*time.Minute + 10*time.Millisecond
				c.MapChangePause = 20 * time.Millisecond
			})},
			tc{"outage in the first recorded minute", paper(15, cycle, func(c *Config) {
				c.Outages = []Outage{{At: 20 * time.Second, Duration: 15 * time.Second}}
			})},
			tc{"everyone transfers a logo", paper(16, 32*time.Minute, func(c *Config) {
				c.LogoDownloadProb, c.LogoUploadProb = 1, 1
				c.SessionMean = 120
			})},
		)
	}
	for _, c := range cases {
		n, sum, st := hashSim(t, c.cfg, nil)
		wantN, wantSum, wantSt := hashSim(t, c.cfg, tickedWarmup(t))
		if n == 0 {
			t.Errorf("%s: no traffic generated", c.name)
		}
		if n != wantN || sum != wantSum {
			t.Errorf("%s: lazy warm-up stream differs from ticked (n=%d/%d hash=%x/%x)", c.name, n, wantN, sum, wantSum)
		}
		if st != wantSt {
			t.Errorf("%s: stats differ:\nlazy:   %+v\nticked: %+v", c.name, st, wantSt)
		}
	}
}
