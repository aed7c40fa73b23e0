package gamesim

import (
	"math"
	"math/rand/v2"
	"time"

	"cstrace/internal/dist"
	"cstrace/internal/eventsim"
	"cstrace/internal/sched"
	"cstrace/internal/trace"
)

// EventType classifies session lifecycle events.
type EventType uint8

const (
	// EventAttempt is a connection attempt reaching the server.
	EventAttempt EventType = iota
	// EventConnect is an accepted attempt (session established).
	EventConnect
	// EventRefuse is an attempt rejected for lack of a free slot.
	EventRefuse
	// EventDisconnect is a session ending (leave, kick or outage timeout).
	EventDisconnect
)

// SessionEvent reports one session lifecycle change.
type SessionEvent struct {
	T       time.Duration
	Type    EventType
	Session uint32 // established session id (0 for refused attempts)
	Client  uint32 // population identity (1-based)
	Players int    // active players after the event
}

// EventFunc receives session events in time order. It may be nil.
type EventFunc func(SessionEvent)

// Stats summarizes a completed run; it provides the raw numbers behind the
// paper's Table I.
type Stats struct {
	Duration           time.Duration
	MapsPlayed         int
	Attempts           int
	Established        int
	Refused            int
	UniqueAttempting   int
	UniqueEstablishing int
	MaxConcurrent      int
	TotalSessionTime   time.Duration // summed over established sessions
	PacketsIn          int64
	PacketsOut         int64
	AppBytesIn         int64
	AppBytesOut        int64
	PlayerSeconds      float64 // integral of active player count over time
}

// MeanSessionSec returns the average established session length in seconds.
func (s Stats) MeanSessionSec() float64 {
	if s.Established == 0 {
		return 0
	}
	return s.TotalSessionTime.Seconds() / float64(s.Established)
}

// MeanPlayers returns the time-average number of active players.
func (s Stats) MeanPlayers() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return s.PlayerSeconds / s.Duration.Seconds()
}

// Handshake payload sizes (bytes), modeled on the Half-Life connection
// exchange.
const (
	connectReqBytes  = 42
	connectOKBytes   = 110
	rejectBytes      = 36
	disconnectBytes  = 38
	keepaliveDivisor = 10 // command-rate reduction while the server changes maps
)

type player struct {
	session     uint32
	client      uint32
	elite       bool
	active      bool
	idx         int // position in the active slice
	connectedAt time.Duration

	nextCmd  time.Duration
	cmdGap   time.Duration
	jit      rand.PCG      // command-gap jitter: the session's own stream, held inline
	nextSnap time.Duration // used by elites and the desync ablation
	snapGap  time.Duration

	counted bool // established during the recorded window

	dlOut     int // remaining logo bytes server -> client
	dlIn      int // remaining logo bytes client -> server
	dlNextOut time.Duration
	dlNextIn  time.Duration
}

type sim struct {
	cfg    Config
	h      trace.Handler
	plan   tickPlan // the emission window being planned, then filled
	ev     EventFunc
	kernel eventsim.Sim

	rng      *dist.RNG     // control-plane randomness (consumed only by kernel events)
	sizes    dist.Splitter // per-window payload-size streams (indexed by tick)
	fill     *dist.RNG     // the current window's size stream: one generator, re-keyed per window
	jitter   dist.Splitter // per-session schedule-jitter streams (indexed by session id)
	roundRNG *dist.RNG     // round schedule
	zipf     *dist.Zipf

	players     []*player
	nextSession uint32
	nextTourist uint32
	paused      bool // map changeover in progress
	outage      bool
	warm        bool            // recording has started
	flips       []time.Duration // window starts where paused toggled in warm-up
	logoGap     time.Duration   // spacing of rate-limited logo packets

	window time.Duration // current emission window start

	roundStart time.Duration
	roundEnd   time.Duration
	roundLevel float64

	uniqueAttempt map[uint32]bool
	uniqueEst     map[uint32]bool
	lastCount     time.Duration // for PlayerSeconds integration

	stats Stats
}

// Run simulates the configured server, streaming every packet record to h
// (which may be nil to run only the session/control plane, e.g. to study
// Table I quantities quickly) and lifecycle events to ev (may be nil).
//
// Records arrive at h in strict time order, one block per tick window
// (downstream batch handlers see one slab per window instead of one virtual
// call per record), and h and ev are both called from the caller's
// goroutine. A run is one always-busy goroutine, so it holds one token of
// the process worker budget for its lifetime: the sched.Auto stages it
// feeds size themselves to what is left, not to the whole machine.
func Run(cfg Config, h trace.Handler, ev EventFunc) (Stats, error) {
	lease := sched.Default().Acquire(1)
	defer lease.Release()
	s, err := newSim(cfg, h, ev)
	if err != nil {
		return Stats{}, err
	}
	return s.run(), nil
}

// newSim returns a simulation at time zero with its first events scheduled.
func newSim(cfg Config, h trace.Handler, ev EventFunc) (*sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &sim{
		cfg:           cfg,
		h:             h,
		ev:            ev,
		rng:           dist.NewRNG(cfg.Seed),
		uniqueAttempt: make(map[uint32]bool),
		uniqueEst:     make(map[uint32]bool),
		logoGap:       time.Duration(float64(cfg.LogoPacket) / cfg.LogoRate * float64(time.Second)),
	}
	// Packets draw neither from the control-plane stream nor from one they
	// share: window sizes are a function of (seed, tick), a player's schedule
	// of (seed, session, connect time, pause spans) — so catchUp can be lazy.
	schedRNG := s.rng.Split()
	s.roundRNG = s.rng.Split()
	s.sizes = schedRNG.NewSplitter()
	s.jitter = schedRNG.NewSplitter()
	s.fill = s.sizes.Stream(0)
	var err error
	s.zipf, err = dist.NewZipf(cfg.Population, cfg.PopularityExp)
	if err != nil {
		return nil, err
	}

	s.warm = cfg.Warmup == 0
	if !s.warm {
		s.kernel.At(cfg.Warmup, func(now time.Duration) { s.startRecording(now) })
	}
	s.scheduleFreshArrival()
	s.scheduleMapCycle(0)
	for _, o := range cfg.Outages {
		o := o
		s.kernel.At(cfg.Warmup+o.At, func(now time.Duration) { s.outageStart(o.Duration) })
	}
	s.newRound(0)
	return s, nil
}

// run emits the recorded windows. Warm-up has none: the first RunUntil runs
// its control plane through to startRecording, which catches the survivors up.
func (s *sim) run() Stats {
	cfg := &s.cfg
	total := cfg.Warmup + cfg.Duration
	if s.h == nil {
		// Control plane only: no per-tick traffic.
		s.kernel.RunUntil(total)
	} else {
		dt := cfg.TickInterval
		for t := cfg.Warmup; t < total; t += dt {
			s.planWindow(t, min(t+dt, total))
			s.fillWindow(uint64(t / dt)) // size streams are keyed from time zero
		}
	}
	s.finish()
	return s.stats
}

// planWindow is the plan stage of the window [t, end): the control plane's
// events at or before t, then every player's schedule across the window, into
// the emptied plan.
func (s *sim) planWindow(t, end time.Duration) {
	s.window = t
	s.plan.reset()
	s.kernel.RunUntil(t)
	s.buildWindow(t, end)
}

// fillWindow is the fill stage: it sorts the planned window, samples its open
// sizes from the tick's stream and delivers the block. Empty windows (outages,
// an idle server) deliver nothing.
func (s *sim) fillWindow(tick uint64) {
	p := &s.plan
	if len(p.recs) == 0 {
		return
	}
	sortPlan(p)
	s.sizes.Rekey(s.fill, tick)
	fillSizes(&s.cfg, p, s.fill, &s.stats)
	trace.Dispatch(s.h, p.recs)
}

// startRecording marks the end of the warm-up phase: statistics restart and
// sessions already in progress stop counting toward session-length figures
// (they established before the trace began).
func (s *sim) startRecording(now time.Duration) {
	if s.h != nil {
		s.catchUp(now)
	}
	s.warm = true
	s.stats = Stats{}
	if !s.paused {
		s.stats.MapsPlayed = 1 // the map in progress as the trace begins
	}
	s.uniqueAttempt = make(map[uint32]bool)
	s.uniqueEst = make(map[uint32]bool)
	s.lastCount = now
	for _, p := range s.players {
		p.counted = false
		// Surface the initial population to event consumers: one connect
		// per player already on the server as the trace begins.
		s.event(now, EventConnect, p.session, p.client)
	}
	if len(s.players) > s.stats.MaxConcurrent {
		s.stats.MaxConcurrent = len(s.players)
	}
}

// tickCeil rounds t up to the tick grid: a window runs the events at or
// before its start, then plans, so the first to see a change at t starts there.
func (s *sim) tickCeil(t time.Duration) time.Duration {
	dt := s.cfg.TickInterval
	return (t + dt - 1) / dt * dt
}

// setPaused flips the map-change pause. During warm-up, where no window is
// planned, it notes the window that would first have seen the flip.
func (s *sim) setPaused(now time.Duration, paused bool) {
	if !s.warm {
		at := s.tickCeil(now)
		if paused {
			s.replayRounds(at) // before the unpause draws its own round
		}
		s.flips = append(s.flips, at)
	}
	s.paused = paused
}

// replayRounds starts the rounds the unpaused windows before upTo would
// have started: each at the first tick at or after the previous round's end.
func (s *sim) replayRounds(upTo time.Duration) {
	for t := s.tickCeil(s.roundEnd); t < upTo; t = s.tickCeil(s.roundEnd) {
		s.newRound(t)
	}
}

// catchUp brings the traffic plane to the recording point as if every warm-up
// window had been planned: the round schedule, and each surviving player's
// schedules, pause span by pause span, from the first window to see the player.
func (s *sim) catchUp(now time.Duration) {
	if !s.paused {
		s.replayRounds(now)
	}
	s.flips = append(s.flips, now)
	for _, p := range s.players {
		first := s.tickCeil(p.connectedAt)
		for i, to := range s.flips { // the server starts unpaused: odd spans are pauses
			if to > first {
				s.advance(p, 0, to, i%2 == 1, nil, false)
			}
		}
	}
}

// emit appends one fixed-size record (handshakes, rejects, leaves) to the
// window being planned. Traffic statistics are tallied by the fill stage,
// which sees every record of the window with its final payload size.
func (s *sim) emit(r trace.Record) {
	if s.h == nil || !s.warm {
		return
	}
	s.plan.append(r.T-s.cfg.Warmup, r.Dir, r.Kind, r.Client, r.App)
}

func (s *sim) event(t time.Duration, typ EventType, session, client uint32) {
	if s.ev == nil || !s.warm {
		return // warm-up churn is not part of the recorded trace
	}
	rel := t - s.cfg.Warmup
	if rel < 0 {
		rel = 0
	}
	s.ev(SessionEvent{T: rel, Type: typ, Session: session, Client: client, Players: len(s.players)})
}

// integrateCount must be called immediately before the player count changes.
func (s *sim) integrateCount(now time.Duration) {
	s.stats.PlayerSeconds += float64(len(s.players)) * (now - s.lastCount).Seconds()
	s.lastCount = now
}

// --- arrival / departure control plane ---

// scheduleFreshArrival draws the next fresh attempt from the diurnal
// non-homogeneous Poisson process by Lewis-Shedler thinning: candidate gaps
// at the peak rate, kept with probability λ(t)/λmax. The launch-spike
// multiplier raises λmax so the surged rate is still properly bounded.
func (s *sim) scheduleFreshArrival() {
	peak := s.cfg.AttemptRate * (1 + s.cfg.DiurnalAmp)
	if s.cfg.SpikeMult > 1 {
		peak *= s.cfg.SpikeMult
	}
	gap := time.Duration(s.rng.ExpFloat64() / peak * float64(time.Second))
	s.kernel.After(gap, func(now time.Duration) {
		if s.rng.Float64()*peak <= s.attemptRate(now) {
			if s.rng.Bool(s.cfg.TouristFrac) {
				// A one-time visitor: a fresh identity that will not
				// retry if refused.
				s.nextTourist++
				s.attemptOnce(now, uint32(s.cfg.Population)+s.nextTourist, false)
			} else {
				s.attemptOnce(now, uint32(s.zipf.Rank(s.rng))+1, true)
			}
		}
		s.scheduleFreshArrival()
	})
}

// attemptRate is the instantaneous fresh-attempt rate λ(t): the base rate
// modulated by the diurnal swing and, when configured, the decaying
// launch-day surge.
func (s *sim) attemptRate(t time.Duration) float64 {
	rate := s.cfg.AttemptRate
	if s.cfg.DiurnalAmp != 0 {
		const day = 24 * time.Hour
		phase := 2 * math.Pi * float64(t-s.cfg.Warmup-s.cfg.DiurnalPeak) / float64(day)
		rate *= 1 + s.cfg.DiurnalAmp*math.Cos(phase)
	}
	if s.cfg.SpikeMult > 1 {
		rel := t - s.cfg.Warmup
		if rel < 0 {
			rel = 0 // the queue outside the doors: warm-up sees full surge
		}
		rate *= 1 + (s.cfg.SpikeMult-1)*math.Exp(-float64(rel)/float64(s.cfg.SpikeDecay))
	}
	return rate
}

// attemptOnce processes one connection attempt; mayRetry distinguishes
// regulars (who may retry a refusal) from one-time tourists.
func (s *sim) attemptOnce(now time.Duration, client uint32, mayRetry bool) {
	if s.outage {
		return // the attempt never reaches the server
	}
	s.stats.Attempts++
	s.uniqueAttempt[client] = true
	s.event(now, EventAttempt, 0, client)
	s.emit(trace.Record{T: s.window, Dir: trace.In, Kind: trace.KindHandshake, Client: 0, App: connectReqBytes})

	if len(s.players) >= s.cfg.Slots {
		s.stats.Refused++
		s.event(now, EventRefuse, 0, client)
		s.emit(trace.Record{T: s.window, Dir: trace.Out, Kind: trace.KindHandshake, Client: 0, App: rejectBytes})
		if mayRetry && s.rng.Bool(s.cfg.RetryProb) {
			delay := time.Duration(s.cfg.RetryDelay.Sample(s.rng) * float64(time.Second))
			s.kernel.After(delay, func(now time.Duration) { s.attemptOnce(now, client, true) })
		}
		return
	}
	s.connect(now, client)
}

func (s *sim) connect(now time.Duration, client uint32) {
	s.nextSession++
	s.stats.Established++
	s.uniqueEst[client] = true

	p := &player{
		session:     s.nextSession,
		client:      client,
		active:      true,
		counted:     s.warm,
		connectedAt: now,
		elite:       s.rng.Bool(s.cfg.EliteFrac),
	}
	key := s.jitter.Stream(uint64(p.session))
	p.jit.Seed(key.Uint64(), key.Uint64())
	rate := s.cfg.CmdRate
	if p.elite {
		rate = s.cfg.EliteCmdRate
		p.snapGap = time.Duration(float64(time.Second) / s.cfg.EliteSnapHz)
	} else {
		p.snapGap = s.cfg.TickInterval
	}
	p.cmdGap = time.Duration(float64(time.Second) / rate)
	p.nextCmd = now + time.Duration(s.rng.Float64()*float64(p.cmdGap))
	p.nextSnap = now + time.Duration(s.rng.Float64()*float64(p.snapGap))

	if s.rng.Bool(s.cfg.LogoDownloadProb) {
		p.dlOut = s.cfg.LogoBytes
		p.dlNextOut = now + time.Duration(s.rng.Float64()*float64(time.Second))
	}
	if s.rng.Bool(s.cfg.LogoUploadProb) {
		p.dlIn = s.cfg.LogoBytes
		p.dlNextIn = now + time.Duration(s.rng.Float64()*float64(time.Second))
	}

	s.integrateCount(now)
	p.idx = len(s.players)
	s.players = append(s.players, p)
	if len(s.players) > s.stats.MaxConcurrent {
		s.stats.MaxConcurrent = len(s.players)
	}
	s.event(now, EventConnect, p.session, client)
	s.emit(trace.Record{T: s.window, Dir: trace.Out, Kind: trace.KindHandshake, Client: p.session, App: connectOKBytes})

	life := s.cfg.SessionMean
	d := dist.LogNormalFromMean(life, s.cfg.SessionSigma).Sample(s.rng)
	if d < s.cfg.MinSession {
		d = s.cfg.MinSession
	}
	s.kernel.After(time.Duration(d*float64(time.Second)), func(now time.Duration) {
		s.disconnect(now, p, true)
	})
}

// disconnect removes p; polite disconnects emit the leave datagram, timeout
// disconnects (outages) do not.
func (s *sim) disconnect(now time.Duration, p *player, polite bool) {
	if !p.active {
		return
	}
	p.active = false
	s.integrateCount(now)
	last := len(s.players) - 1
	s.players[p.idx] = s.players[last]
	s.players[p.idx].idx = p.idx
	s.players = s.players[:last]
	if p.counted {
		s.stats.TotalSessionTime += now - p.connectedAt
	}
	if polite && !s.outage {
		s.emit(trace.Record{T: s.window, Dir: trace.In, Kind: trace.KindHandshake, Client: p.session, App: disconnectBytes})
	}
	s.event(now, EventDisconnect, p.session, p.client)
}

// --- map rotation ---

func (s *sim) scheduleMapCycle(start time.Duration) {
	s.stats.MapsPlayed++
	end := start + s.cfg.MapDuration
	s.kernel.At(end, func(now time.Duration) {
		s.setPaused(now, true)
		// Some players quit rather than sit through the change.
		for i := len(s.players) - 1; i >= 0; i-- {
			if s.rng.Bool(s.cfg.MapLeaveProb) {
				s.disconnect(now, s.players[i], true)
			}
		}
		s.kernel.After(s.cfg.MapChangePause, func(now time.Duration) {
			s.setPaused(now, false)
			s.newRound(now)
			s.scheduleMapCycle(now)
		})
	})
}

// --- rounds / activity ---

func (s *sim) newRound(now time.Duration) {
	s.roundStart = now
	d := s.cfg.RoundDuration.Sample(s.roundRNG)
	if d < 30 {
		d = 30
	}
	s.roundEnd = now + time.Duration(d*float64(time.Second))
	s.roundLevel = 0.85 + 0.3*s.roundRNG.Float64()
}

// activity returns the round-phase activity multiplier at time t: low during
// freeze time, ramping over the round with a mid-round peak.
func (s *sim) activity(t time.Duration) float64 {
	if t >= s.roundEnd {
		s.newRound(t)
	}
	freezeEnd := s.roundStart + s.cfg.FreezeTime
	if t < freezeEnd {
		return 0.55 * s.roundLevel
	}
	span := s.roundEnd - freezeEnd
	if span <= 0 {
		return s.roundLevel
	}
	x := float64(t-freezeEnd) / float64(span)
	return s.roundLevel * (0.8 + 0.5*math.Sin(math.Pi*x))
}

// --- outages ---

func (s *sim) outageStart(d time.Duration) {
	s.outage = true
	s.kernel.After(d, func(now time.Duration) {
		s.outage = false
		// Both sides time out; everyone is dropped at the same instant
		// (the paper: "all of the players or a majority of players were
		// disconnected ... at identical points in time").
		for i := len(s.players) - 1; i >= 0; i-- {
			p := s.players[i]
			s.disconnect(now, p, false)
			// Players who recorded the address reconnect promptly; the
			// rest relied on server auto-discovery and drift back via
			// the normal arrival process.
			if s.rng.Bool(s.cfg.ReconnectProb) {
				client := p.client
				delay := time.Duration(s.cfg.ReconnectIn.Sample(s.rng) * float64(time.Second))
				s.kernel.After(delay, func(now time.Duration) { s.attemptOnce(now, client, true) })
			}
		}
	})
}

// --- traffic generation ---

// buildWindow plans the tick window [start, end): it advances every
// player's schedules across the window exactly once and appends one
// skeleton record per packet to the current plan. Payload sizes that
// depend on the window RNG stream (snapshots, commands) are left open for
// the fill stage; fixed sizes (downloads, handshakes appended by emit) are
// final.
func (s *sim) buildWindow(start, end time.Duration) {
	if s.outage {
		// Total connectivity loss: nothing reaches the tap. Client-side
		// schedules still advance so streams resume naturally.
		for _, p := range s.players {
			for p.nextCmd < end {
				p.nextCmd += s.jitteredGap(p)
			}
			for p.nextSnap < end {
				p.nextSnap += p.snapGap
			}
		}
		return
	}

	plan := &s.plan
	plan.n, plan.act = len(s.players), 0
	if !s.paused {
		plan.act = s.activity(start)
	}
	record := s.warm

	// Synchronous snapshot broadcast: one packet per ordinary client, sent
	// back-to-back at the tick instant (the paper's 50 ms bursts).
	if record && !s.paused && !s.cfg.DesynchronizeTicks {
		t := start - s.cfg.Warmup
		for _, p := range s.players {
			if p.elite {
				continue
			}
			plan.append(t, trace.Out, trace.KindGame, p.session, 0)
			t += s.cfg.BurstSpacing
		}
	}

	for _, p := range s.players {
		s.advance(p, start, end, s.paused, plan, record)
	}
}

// advance moves p's packet schedules across [start, end), the server paused or
// not throughout, appending a skeleton record per packet due at or after start
// when record is set. It is the only code that schedules packets: a recorded
// window calls it per tick, catchUp once per pause span. Each loop runs until
// its next-due time reaches end and draws only from p's own stream, so a span
// advances as its ticks would one by one and a span already covered is a no-op.
func (s *sim) advance(p *player, start, end time.Duration, paused bool, plan *tickPlan, record bool) {
	w := s.cfg.Warmup
	// Inbound command stream (throttled to keepalives during the map-change
	// pause while the client sits at the loading screen).
	gapScale := time.Duration(1)
	if paused {
		gapScale = keepaliveDivisor
	}
	for p.nextCmd < end {
		if record && p.nextCmd >= start {
			plan.append(p.nextCmd-w, trace.In, trace.KindGame, p.session, 0)
		}
		p.nextCmd += s.jitteredGap(p) * gapScale
	}

	if paused {
		// No snapshots and no logo packets; the snapshot phase keeps time.
		for p.nextSnap < end {
			p.nextSnap += p.snapGap
		}
		return
	}

	// Per-client snapshot schedules: elites at their elevated rate, and
	// everyone when the desync ablation is on.
	if p.elite || s.cfg.DesynchronizeTicks {
		var mark uint16 // the fill sizes elite snapshots by their mark
		if p.elite {
			mark = eliteMark
		}
		for p.nextSnap < end {
			if record && p.nextSnap >= start {
				plan.append(p.nextSnap-w, trace.Out, trace.KindGame, p.session, mark)
			}
			p.nextSnap += p.snapGap
		}
	}

	// Rate-limited logo transfers.
	for p.dlOut > 0 && p.dlNextOut < end {
		sz := min(s.cfg.LogoPacket, p.dlOut)
		p.dlOut -= sz
		if record && p.dlNextOut >= start {
			plan.append(p.dlNextOut-w, trace.Out, trace.KindDownload, p.session, uint16(sz))
		}
		p.dlNextOut += s.logoGap
	}
	for p.dlIn > 0 && p.dlNextIn < end {
		sz := min(s.cfg.LogoPacket, p.dlIn)
		p.dlIn -= sz
		if record && p.dlNextIn >= start {
			plan.append(p.dlNextIn-w, trace.In, trace.KindDownload, p.session, uint16(sz))
		}
		p.dlNextIn += s.logoGap
	}
}

// jitteredGap draws p's next inter-command interval: the base gap under
// symmetric fractional jitter from the session's own generator (inline in the
// player: a heap RNG each costs three cache misses per player per window).
func (s *sim) jitteredGap(p *player) time.Duration {
	u := float64(p.jit.Uint64()>>11) / (1 << 53) // uniform in [0, 1)
	return time.Duration(float64(p.cmdGap) * (1 + s.cfg.CmdJitter*(2*u-1)))
}

func (s *sim) finish() {
	total := s.cfg.Warmup + s.cfg.Duration
	s.integrateCount(total)
	for _, p := range s.players {
		if p.counted {
			s.stats.TotalSessionTime += total - p.connectedAt
		}
	}
	s.stats.Duration = s.cfg.Duration
	s.stats.UniqueAttempting = len(s.uniqueAttempt)
	s.stats.UniqueEstablishing = len(s.uniqueEst)
}
