// Package loadtest is a ctraffic-style socket load harness for the
// reference game server: it drives N bot connections (gameserver.Bot over
// internal/protocol) at a target user-command rate against one or more real
// game servers (`cstrace -mode serve`), prints a continuous monitor line
// (active/failed connections, packets sent/received/dropped, RTT
// percentiles from info probes), injects disturbances — killing a server
// mid-run to exercise master-browse fail-over, applying loss and delay on
// the client send path — and emits a machine-readable JSON summary for
// offline analysis.
//
// Where the rest of the repository simulates the paper's traffic in
// process, this package pushes the same protocol through the kernel's UDP
// stack: combined with a server-side trace capture (Capture, or `cstrace
// -mode serve -trace`) and cstrace.AnalyzeTrace, one run produces the
// simulated-vs-actual comparison that validates the reproduction against
// real networking end to end.
package loadtest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cstrace/internal/dist"
	"cstrace/internal/gameserver"
)

// discoveryBackoff is the retry schedule for the run-blocking initial
// master browse: ~100ms..1s jittered, seven retries, so a slow-starting
// master is tolerated for a couple of seconds but a dead one fails fast.
func discoveryBackoff() gameserver.Backoff {
	return gameserver.Backoff{Base: 100 * time.Millisecond, Cap: time.Second, Budget: 7}
}

// reconnectBackoff paces a bot slot whose every candidate refused. No
// budget: a load slot never abandons the run, it just stops stampeding.
func reconnectBackoff() gameserver.Backoff {
	return gameserver.Backoff{Base: 100 * time.Millisecond, Cap: 2 * time.Second}
}

// Target is one server under load. Kill, when non-nil, terminates the
// server (an in-process Spawned server's crash hook, or a process kill
// wired by the caller); it is required for disturbance injection.
type Target struct {
	Addr string
	Kill func() error
}

// Config parameterizes a load run.
type Config struct {
	// Targets are the servers to drive. With Master set it may be empty:
	// targets are then discovered by browsing the master.
	Targets []Target
	// Master is the master-server address used for discovery. When set,
	// bots (re)connect by browsing — fetch the list, probe every entry,
	// rank by RTT — which is what makes fail-over work: a killed server
	// drops out of the browse result because its info probe times out.
	Master string

	// Bots is the number of concurrent connections to hold open.
	Bots int
	// CmdRate is the user-command rate per bot, packets/second.
	CmdRate float64
	// Duration bounds the run; 0 runs until ctx is done.
	Duration time.Duration

	// ConnRate and ConnBurst pace connection attempts through a token
	// bucket (0 = connect as fast as possible).
	ConnRate  float64
	ConnBurst int

	// Monitor is the sampling interval for the monitor line and the JSON
	// timeline (default 1s).
	Monitor time.Duration
	// Logf, when non-nil, receives one monitor line per interval.
	Logf func(format string, args ...any)

	// Drop is the probability a user command is discarded before the
	// socket write, and Jitter the scale of the delay added to each send —
	// loss and delay injected on the client path, mirroring
	// internal/netem's link model at the harness edge.
	Drop   float64
	Jitter time.Duration

	// KillAfter, when > 0, kills Targets[KillIndex] that long into the
	// run (the target must have a Kill hook).
	KillAfter time.Duration
	KillIndex int

	// SnapshotTimeout is how long a bot tolerates snapshot silence before
	// declaring its server dead and failing over (default 2s).
	SnapshotTimeout time.Duration
	// ProbeInterval is the per-target info-probe period feeding the RTT
	// percentiles (default 250ms; negative disables probing).
	ProbeInterval time.Duration
	// BrowseTimeout bounds master queries and per-server info probes
	// during discovery (default 1s).
	BrowseTimeout time.Duration

	// NamePrefix prefixes bot player names (default "load").
	NamePrefix string
	// Seed drives bot movement and the injection randomness.
	Seed uint64
}

func (cfg *Config) withDefaults() (Config, error) {
	c := *cfg
	if c.Bots <= 0 {
		return c, errors.New("loadtest: Bots must be positive")
	}
	if c.CmdRate <= 0 {
		return c, errors.New("loadtest: CmdRate must be positive")
	}
	if len(c.Targets) == 0 && c.Master == "" {
		return c, errors.New("loadtest: no Targets and no Master")
	}
	if c.Monitor <= 0 {
		c.Monitor = time.Second
	}
	if c.SnapshotTimeout <= 0 {
		c.SnapshotTimeout = 2 * time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.BrowseTimeout <= 0 {
		c.BrowseTimeout = time.Second
	}
	if c.NamePrefix == "" {
		c.NamePrefix = "load"
	}
	if c.KillAfter > 0 {
		if c.KillIndex < 0 || c.KillIndex >= len(c.Targets) {
			return c, fmt.Errorf("loadtest: KillIndex %d out of range", c.KillIndex)
		}
		if c.Targets[c.KillIndex].Kill == nil {
			return c, errKillUnsupported
		}
	}
	return c, nil
}

// botWorker is one bot slot: it holds at most one live connection at a
// time and accumulates counters across reconnects.
type botWorker struct {
	id int

	mu        sync.Mutex
	cur       *gameserver.Bot
	server    string
	base      gameserver.BotStats
	connects  int64
	failovers int64
}

func (w *botWorker) setCur(b *gameserver.Bot, addr string) {
	w.mu.Lock()
	w.cur, w.server = b, addr
	w.connects++
	w.mu.Unlock()
}

// addRetry charges one backed-off discovery retry to this slot's counters.
func (w *botWorker) addRetry() {
	w.mu.Lock()
	w.base.Retries++
	w.mu.Unlock()
}

func (w *botWorker) retire() {
	w.mu.Lock()
	if w.cur != nil {
		st := w.cur.Stats()
		w.base.CmdsSent += st.CmdsSent
		w.base.CmdsDropped += st.CmdsDropped
		w.base.SnapshotsRecv += st.SnapshotsRecv
		w.base.BytesSent += st.BytesSent
		w.base.BytesRecv += st.BytesRecv
		w.cur = nil
	}
	w.mu.Unlock()
}

// stats returns the accumulated counters including the live connection.
func (w *botWorker) stats() (gameserver.BotStats, string, int64, int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.base
	if w.cur != nil {
		live := w.cur.Stats()
		st.CmdsSent += live.CmdsSent
		st.CmdsDropped += live.CmdsDropped
		st.SnapshotsRecv += live.SnapshotsRecv
		st.BytesSent += live.BytesSent
		st.BytesRecv += live.BytesRecv
	}
	return st, w.server, w.connects, w.failovers
}

type harness struct {
	cfg   Config
	start time.Time

	active    atomic.Int64
	connects  atomic.Int64
	failed    atomic.Int64
	failovers atomic.Int64

	limMu sync.Mutex
	lim   *Limiter

	dead []atomic.Bool // per-target killed flag

	rttMu      sync.Mutex
	rttSamples []float64 // seconds
	rttFailed  int64

	killMu          sync.Mutex
	kill            *KillEvent
	failoversAtKill int64

	bots    []*botWorker
	samples []Sample
}

// Run drives the configured load until ctx is done or Duration elapses and
// returns the run's statistics. It is the library form of `cstrace -mode load`.
func Run(ctx context.Context, cfg Config) (*Stats, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if c.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Duration)
		defer cancel()
	}

	h := &harness{
		cfg:   c,
		start: time.Now(),
		lim:   NewLimiter(c.ConnRate, c.ConnBurst),
		dead:  make([]atomic.Bool, len(c.Targets)),
	}

	// Master-only configs discover their target list up front so the RTT
	// probers have addresses to work with; bots re-browse on their own. The
	// retries follow the jittered exponential schedule with a hard budget:
	// a master that never answers fails the run instead of hanging it.
	if len(h.cfg.Targets) == 0 {
		rng := dist.NewRNG(c.Seed ^ 0x9e3779b97f4a7c15)
		_, err := gameserver.Retry(ctx, discoveryBackoff(), rng, func() error {
			lines, berr := gameserver.Browse(h.cfg.Master, h.cfg.BrowseTimeout)
			if berr != nil {
				return berr
			}
			if len(lines) == 0 {
				return errors.New("master returned no servers")
			}
			for _, l := range lines {
				h.cfg.Targets = append(h.cfg.Targets, Target{Addr: l.Addr.String()})
			}
			return nil
		})
		if len(h.cfg.Targets) == 0 {
			return nil, fmt.Errorf("loadtest: no servers discovered via master %s: %w", h.cfg.Master, err)
		}
		h.dead = make([]atomic.Bool, len(h.cfg.Targets))
	}

	// Disturbance: kill one target mid-run.
	if c.KillAfter > 0 {
		target := h.cfg.Targets[c.KillIndex]
		timer := time.AfterFunc(c.KillAfter, func() {
			_ = target.Kill()
			h.dead[c.KillIndex].Store(true)
			h.killMu.Lock()
			h.kill = &KillEvent{Target: target.Addr, At: time.Since(h.start)}
			h.failoversAtKill = h.failovers.Load()
			h.killMu.Unlock()
			if h.cfg.Logf != nil {
				h.cfg.Logf("killed %s at t=%s", target.Addr, time.Since(h.start).Round(time.Millisecond))
			}
		})
		defer timer.Stop()
	}

	// RTT probers, one per target.
	probeCtx, stopProbes := context.WithCancel(context.Background())
	defer stopProbes()
	var probeWG sync.WaitGroup
	if c.ProbeInterval > 0 {
		for i := range h.cfg.Targets {
			probeWG.Add(1)
			go h.probe(probeCtx, &probeWG, i)
		}
	}

	// Bot workers.
	var wg sync.WaitGroup
	h.bots = make([]*botWorker, c.Bots)
	for i := range h.bots {
		h.bots[i] = &botWorker{id: i}
		wg.Add(1)
		go h.runBot(ctx, &wg, h.bots[i])
	}

	// Monitor loop: samples the harness until the run deadline, then takes
	// the closing snapshot while the fleet is still connected.
	ticker := time.NewTicker(c.Monitor)
	defer ticker.Stop()
	var final Sample
loop:
	for {
		select {
		case <-ctx.Done():
			final = h.snapshot()
			break loop
		case <-ticker.C:
			s := h.snapshot()
			h.samples = append(h.samples, s)
			if h.cfg.Logf != nil {
				h.cfg.Logf("%s", s.MonitorLine())
			}
		}
	}

	wg.Wait()
	stopProbes()
	probeWG.Wait()

	return h.assemble(final), nil
}

// snapshot builds a monitor sample and advances the kill-recovery marker.
func (h *harness) snapshot() Sample {
	var s Sample
	s.T = time.Since(h.start)
	s.Active = h.active.Load()
	s.Connects = h.connects.Load()
	s.Failed = h.failed.Load()
	s.Failovers = h.failovers.Load()
	for _, w := range h.bots {
		st, _, _, _ := w.stats()
		s.Sent += st.CmdsSent
		s.Dropped += st.CmdsDropped
		s.Recv += st.SnapshotsRecv
		s.BytesSent += st.BytesSent
		s.BytesRecv += st.BytesRecv
	}
	h.rttMu.Lock()
	p50, p95, p99, _, _ := rttQuantiles(h.rttSamples)
	h.rttMu.Unlock()
	s.RTTP50, s.RTTP95, s.RTTP99 = p50, p95, p99

	// Recovery means the fleet is back at full strength after actually
	// failing over — not merely "still full" in the window before the bots
	// notice the dead server, hence the failover-count guard.
	h.killMu.Lock()
	if h.kill != nil && h.kill.RecoveredAt == 0 && s.T > h.kill.At &&
		s.Active == int64(h.cfg.Bots) && s.Failovers > h.failoversAtKill {
		h.kill.RecoveredAt = s.T
	}
	h.killMu.Unlock()
	return s
}

func (h *harness) assemble(final Sample) *Stats {
	st := &Stats{
		Bots:      h.cfg.Bots,
		CmdRate:   h.cfg.CmdRate,
		Duration:  time.Since(h.start),
		Drop:      h.cfg.Drop,
		Jitter:    h.cfg.Jitter,
		KillAfter: h.cfg.KillAfter,
		Seed:      h.cfg.Seed,
		Final:     final,
		Samples:   h.samples,
	}
	for _, t := range h.cfg.Targets {
		st.Targets = append(st.Targets, t.Addr)
	}
	h.killMu.Lock()
	if h.kill != nil {
		k := *h.kill
		st.Kill = &k
	}
	h.killMu.Unlock()
	h.rttMu.Lock()
	st.RTT.Count = int64(len(h.rttSamples))
	st.RTT.Failed = h.rttFailed
	st.RTT.P50, st.RTT.P95, st.RTT.P99, st.RTT.Min, st.RTT.Max = rttQuantiles(h.rttSamples)
	h.rttMu.Unlock()
	for _, w := range h.bots {
		bs, server, connects, failovers := w.stats()
		st.PerBot = append(st.PerBot, BotSummary{
			ID:        w.id,
			Server:    server,
			Connects:  connects,
			Failovers: failovers,
			Retries:   bs.Retries,
			Sent:      bs.CmdsSent,
			Dropped:   bs.CmdsDropped,
			Recv:      bs.SnapshotsRecv,
			BytesSent: bs.BytesSent,
			BytesRecv: bs.BytesRecv,
		})
	}
	return st
}

// probe measures RTT to one target with periodic info queries. A healthy
// target is probed every ProbeInterval; consecutive failures stretch the
// period on the jittered exponential schedule (capped at 8x) instead of
// piling timeouts onto a struggling server at full rate. It stops probing a
// target once it is marked dead.
func (h *harness) probe(ctx context.Context, wg *sync.WaitGroup, idx int) {
	defer wg.Done()
	addr := h.cfg.Targets[idx].Addr
	bo := gameserver.Backoff{Base: h.cfg.ProbeInterval, Cap: 8 * h.cfg.ProbeInterval, Jitter: 0.25}
	rng := dist.NewRNG(h.cfg.Seed ^ (uint64(idx)*40_503 + 7))
	failStreak := 0
	for {
		if err := sleepCtx(ctx, bo.Delay(failStreak, rng)); err != nil {
			return
		}
		if h.dead[idx].Load() {
			return
		}
		_, rtt, err := gameserver.QueryInfo(addr, h.cfg.BrowseTimeout)
		h.rttMu.Lock()
		if err != nil {
			h.rttFailed++
		} else {
			h.rttSamples = append(h.rttSamples, rtt.Seconds())
		}
		h.rttMu.Unlock()
		if err != nil {
			failStreak++
		} else {
			failStreak = 0
		}
	}
}

// waitConn paces connection attempts through the shared token bucket.
func (h *harness) waitConn(ctx context.Context) error {
	for {
		h.limMu.Lock()
		now := time.Now()
		ok := h.lim.Allow(now)
		var d time.Duration
		if !ok {
			d = h.lim.Delay(now)
		}
		h.limMu.Unlock()
		if ok {
			return nil
		}
		if d < time.Millisecond {
			d = time.Millisecond
		}
		if err := sleepCtx(ctx, d); err != nil {
			return err
		}
	}
}

// candidates returns the connection candidates for a worker, best first.
// With a master it browses (RTT-ranked, dead servers filtered by their
// failed probes — the authentic discovery path); otherwise it round-robins
// the static target list, skipping killed entries.
func (h *harness) candidates(w *botWorker) []string {
	if h.cfg.Master != "" {
		lines, err := gameserver.Browse(h.cfg.Master, h.cfg.BrowseTimeout)
		if err == nil && len(lines) > 0 {
			out := make([]string, 0, len(lines))
			for _, l := range lines {
				out = append(out, l.Addr.String())
			}
			return out
		}
		// Browse failed: fall through to the static list.
	}
	n := len(h.cfg.Targets)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		idx := (w.id + i) % n
		if !h.dead[idx].Load() {
			out = append(out, h.cfg.Targets[idx].Addr)
		}
	}
	return out
}

// runBot is one bot slot's life cycle: connect (paced), play until the run
// ends or the server goes silent, fail over and reconnect.
func (h *harness) runBot(ctx context.Context, wg *sync.WaitGroup, w *botWorker) {
	defer wg.Done()
	bo := reconnectBackoff()
	rng := dist.NewRNG(h.cfg.Seed ^ (uint64(w.id)*2_654_435_761 + 1))
	refused := 0 // consecutive all-candidates-refused rounds
	for ctx.Err() == nil {
		if err := h.waitConn(ctx); err != nil {
			return
		}
		var bot *gameserver.Bot
		var addr string
		for _, cand := range h.candidates(w) {
			if ctx.Err() != nil {
				return
			}
			b, err := gameserver.Dial(gameserver.BotConfig{
				ServerAddr:      cand,
				Name:            fmt.Sprintf("%s%03d", h.cfg.NamePrefix, w.id),
				CmdRate:         h.cfg.CmdRate,
				ConnectTimeout:  h.cfg.BrowseTimeout,
				Seed:            h.cfg.Seed + uint64(w.id)*1_000_003 + uint64(w.connects),
				Drop:            h.cfg.Drop,
				Jitter:          h.cfg.Jitter,
				SnapshotTimeout: h.cfg.SnapshotTimeout,
			})
			if err != nil {
				h.failed.Add(1)
				continue
			}
			bot, addr = b, cand
			break
		}
		if bot == nil {
			// Every candidate refused; back off on the jittered exponential
			// schedule (a dead or full fleet gets geometrically less
			// hammering) and count the retry against this slot.
			w.addRetry()
			d := bo.Delay(refused, rng)
			refused++
			if err := sleepCtx(ctx, d); err != nil {
				return
			}
			continue
		}
		refused = 0
		w.setCur(bot, addr)
		h.connects.Add(1)
		h.active.Add(1)
		err := bot.Run(ctx)
		h.active.Add(-1)
		w.retire()
		if errors.Is(err, gameserver.ErrServerSilent) {
			h.failovers.Add(1)
			w.mu.Lock()
			w.failovers++
			w.mu.Unlock()
			continue
		}
		return
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
