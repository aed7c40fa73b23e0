// Package gamesim generates synthetic Counter-Strike server traffic that is
// statistically equivalent to the trace the paper measured.
//
// The original 40 GB trace is unrecoverable, so this package reproduces the
// mechanisms the paper identifies as generating every observed phenomenon:
// a 22-slot server broadcasting state snapshots to every client each 50 ms
// tick, clients streaming small fixed-rate command packets, 30-minute map
// rotation with a changeover pause, round-level activity modulation, Poisson
// session arrivals with refusals and retries against a finite skewed client
// population, modem-capped per-client bandwidth with a few "l337" high-rate
// players, rate-limited logo/map downloads, and brief network outages.
//
// PaperConfig returns parameters calibrated against the paper's Tables I-III;
// calibration_test.go holds the paper's numbers and asserts the model
// against them within stated tolerances; `cstrace -mode week` prints the
// full-week results.
package gamesim

import (
	"errors"
	"math"
	"time"

	"cstrace/internal/dist"
)

// Config parameterizes one simulated server.
type Config struct {
	Seed     uint64
	Duration time.Duration
	// Workers does nothing. It sized a worker-pool fill stage that lost to
	// the serial one and was deleted (ROADMAP's "Parked" paragraph on a
	// parallel fill says what a return must beat); every value is accepted
	// and ignored, and the stream is the same at all of them. The field is
	// still here only because bench/ assigns it: ROADMAP 1a removes it.
	Workers int
	// Warmup runs the server for this long before recording starts, so the
	// trace begins on a busy server exactly as the paper's did ("after a
	// brief warm-up period, we recorded the traffic"). Only the session
	// control plane runs through it; players still connected at its end
	// then have their packet schedules advanced once, so its cost follows
	// their ages, not its length. Records, statistics and timestamps all
	// refer to the recorded window only. Must be a multiple of TickInterval.
	Warmup time.Duration

	// Server.
	Slots        int           // player capacity (paper: 22)
	TickInterval time.Duration // snapshot broadcast period (50 ms)
	BurstSpacing time.Duration // serialization gap between packets of one broadcast burst

	// Session arrival model. Fresh attempts follow a non-homogeneous
	// Poisson process with a diurnal rate profile
	// λ(t) = AttemptRate · (1 + DiurnalAmp·cos(2π(t−DiurnalPeak)/24h)):
	// demand concentrates in the evenings, which is what pushes blocking
	// beyond the Erlang-B level a flat Poisson stream would produce.
	AttemptRate   float64       // mean fresh connection attempts per second
	DiurnalAmp    float64       // relative amplitude of the daily swing [0,1)
	DiurnalPeak   time.Duration // trace-time offset of the first demand peak
	RetryProb     float64       // probability a refused client retries
	RetryDelay    dist.Sampler  // seconds until retry
	SessionMean   float64       // mean established session length, seconds
	SessionSigma  float64       // lognormal shape of session length
	MinSession    float64       // seconds; shorter draws are clamped
	Population    int           // distinct returning clients ("regulars")
	PopularityExp float64       // Zipf exponent of regular re-visit skew
	// TouristFrac is the fraction of fresh arrivals that are one-time
	// visitors found via the in-game server browser: each is a distinct
	// client, and one that is refused never comes back. This reproduces
	// the paper's wide gap between unique clients attempting (8,207) and
	// establishing (5,886).
	TouristFrac float64

	// Launch-day surge (the "Microsoft or Sony launch" provisioning
	// scenario of §V): the fresh-attempt rate is additionally multiplied
	// by 1 + (SpikeMult−1)·exp(−t/SpikeDecay), t measured from the start
	// of the recorded window. SpikeMult ≤ 1 (or 0) disables the surge;
	// during warm-up the full SpikeMult applies, so the server opens its
	// doors to release-day demand already formed. SpikeDecay must be
	// positive when SpikeMult > 1.
	SpikeMult  float64
	SpikeDecay time.Duration

	// Client command stream.
	CmdRate   float64 // inbound packets/sec per ordinary client
	CmdJitter float64 // fractional jitter on the inter-command gap
	// InPayload sizes each command packet: a normal in bytes, redrawn while
	// it falls outside [Low, High] (after 64 tries the next draw is clamped
	// into the band). Its fields must be finite with Sigma ≥ 0 and
	// 0 ≤ Low ≤ High ≤ 65535. It is one concrete band, not a dist.Sampler,
	// so the fill stage draws the first try inline.
	InPayload    dist.TruncNormal
	EliteFrac    float64 // fraction of clients on high-rate configs
	EliteCmdRate float64 // their inbound packet rate
	EliteSnapHz  float64 // their requested update rate (server side)

	// Server snapshot sizing: payload ~ SnapBase + SnapPerPlayer * players
	// * activity + Normal(0, SnapSigma), clamped to [SnapMin, SnapMax].
	SnapBase      float64
	SnapPerPlayer float64
	SnapSigma     float64
	SnapMin       int
	SnapMax       int

	// Round structure (activity modulation within a map).
	RoundDuration dist.Sampler // seconds
	FreezeTime    time.Duration

	// Map rotation.
	MapDuration    time.Duration // play time per map (paper: 30 min)
	MapChangePause time.Duration // server-side changeover pause
	MapLeaveProb   float64       // chance a player quits at map change

	// Downloads (custom logos; rate-limited by the server).
	LogoDownloadProb float64 // per established session
	LogoUploadProb   float64
	LogoBytes        int     // total transfer size
	LogoRate         float64 // bytes/sec the server rate-limits to
	LogoPacket       int     // payload bytes per download packet

	// Network outages.
	Outages       []Outage
	ReconnectProb float64      // players reconnecting right after an outage
	ReconnectIn   dist.Sampler // seconds until their reattempt

	// DesynchronizeTicks staggers each client's snapshot phase across the
	// tick interval instead of broadcasting to everyone at once. This is
	// the ablation for the paper's synchronization claim (§III-B, Fig 7).
	DesynchronizeTicks bool
}

// Outage is a brief total connectivity loss, as the trace saw on Apr 12, 14
// and 17.
type Outage struct {
	At       time.Duration
	Duration time.Duration
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Duration <= 0:
		return errors.New("gamesim: Duration must be positive")
	case c.Slots <= 0:
		return errors.New("gamesim: Slots must be positive")
	case c.TickInterval <= 0:
		return errors.New("gamesim: TickInterval must be positive")
	case !(c.AttemptRate > 0): // NaN too
		return errors.New("gamesim: AttemptRate must be positive")
	case c.SessionMean <= 0:
		return errors.New("gamesim: SessionMean must be positive")
	case c.Population <= 0:
		return errors.New("gamesim: Population must be positive")
	case !(c.CmdRate > 0):
		return errors.New("gamesim: CmdRate must be positive")
	case c.SnapMax <= 0 || c.SnapMax > 65535:
		return errors.New("gamesim: SnapMax must be in (0, 65535]")
	case c.MapDuration <= 0:
		return errors.New("gamesim: MapDuration must be positive")
	case c.RetryDelay == nil || c.RoundDuration == nil || c.ReconnectIn == nil:
		return errors.New("gamesim: all samplers must be set")
	case !finite(c.InPayload.Mu, c.InPayload.Sigma, c.InPayload.Low, c.InPayload.High) ||
		c.InPayload.Sigma < 0 || c.InPayload.Low < 0 || c.InPayload.Low > c.InPayload.High || c.InPayload.High > 65535:
		return errors.New("gamesim: InPayload must be finite with Sigma ≥ 0 and 0 ≤ Low ≤ High ≤ 65535")
	case c.BurstSpacing < 0 || c.BurstSpacing > 0 && !c.DesynchronizeTicks &&
		time.Duration(c.Slots-1) > (c.TickInterval-1)/c.BurstSpacing: // (Slots−1)·BurstSpacing ≥ TickInterval
		return errors.New("gamesim: BurstSpacing must be non-negative, and a burst must end inside its tick")
	case (c.LogoDownloadProb > 0 || c.LogoUploadProb > 0) && (c.LogoPacket <= 0 || c.LogoRate <= 0):
		return errors.New("gamesim: LogoPacket and LogoRate must be positive when a logo probability is")
	case !(c.CmdJitter >= 0 && c.CmdJitter < 1):
		return errors.New("gamesim: CmdJitter must be in [0, 1)")
	case c.EliteFrac > 0 && !(c.EliteCmdRate > 0 && c.EliteSnapHz > 0):
		return errors.New("gamesim: EliteCmdRate and EliteSnapHz must be positive when EliteFrac is")
	case max(c.CmdRate, c.EliteCmdRate, c.EliteSnapHz) > 1e6: // a gap that truncates to 0 never ends
		return errors.New("gamesim: command and snapshot rates must be at most 1e6/s")
	case c.SnapMin < 0 || c.SnapMin > c.SnapMax:
		return errors.New("gamesim: SnapMin must be in [0, SnapMax]")
	}
	if c.Warmup < 0 || c.Warmup%c.TickInterval != 0 {
		return errors.New("gamesim: Warmup must be a non-negative multiple of TickInterval")
	}
	if c.SpikeMult > 1 && c.SpikeDecay <= 0 {
		return errors.New("gamesim: SpikeDecay must be positive when SpikeMult > 1")
	}
	for _, o := range c.Outages {
		if o.At < 0 || o.Duration <= 0 || o.At+o.Duration > c.Duration {
			return errors.New("gamesim: outage outside trace window")
		}
	}
	return nil
}

// finite reports whether every value is neither NaN nor infinite.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// PaperDuration is the length of the paper's trace: 7 d, 6 h, 1 m, 17 s.
const PaperDuration = 626477 * time.Second

// PaperConfig returns the configuration calibrated to the paper's trace
// (calibration_test.go asserts the derivations from Tables I-III).
func PaperConfig(seed uint64) Config {
	return Config{
		Seed:     seed,
		Duration: PaperDuration,
		// One full map cycle of warm-up aligns recording with a map start.
		Warmup: 30*time.Minute + 48*time.Second,

		Slots:        22,
		TickInterval: 50 * time.Millisecond,
		BurstSpacing: 15 * time.Microsecond, // ~190B frame at 100 Mb/s

		// 24,004 attempts / 626,477 s with retry feedback; 16,030 accepted.
		AttemptRate:   0.0349,
		DiurnalAmp:    0.48,
		DiurnalPeak:   10 * time.Hour, // trace starts 08:55; evening peak
		RetryProb:     0.35,
		RetryDelay:    dist.Uniform{Low: 15, High: 120},
		SessionMean:   790,
		SessionSigma:  1.15,
		MinSession:    10,
		TouristFrac:   0.185,
		Population:    11800,
		PopularityExp: 1.06,

		// 437.12 pps inbound / ~18 players ≈ 24.2 pps per client.
		CmdRate:      24.3,
		CmdJitter:    0.30,
		InPayload:    dist.TruncNormal{Mu: 40.1, Sigma: 4.2, Low: 28, High: 64},
		EliteFrac:    0.013,
		EliteCmdRate: 44,
		EliteSnapHz:  44,

		// Mean outbound payload 129.51 B at ~18 active players.
		SnapBase:      40,
		SnapPerPlayer: 4.37,
		SnapSigma:     46,
		SnapMin:       12,
		SnapMax:       420,

		RoundDuration: dist.Uniform{Low: 95, High: 250},
		FreezeTime:    8 * time.Second,

		// 339 maps in 626,477 s ⇒ ~1848 s per cycle.
		MapDuration:    30 * time.Minute,
		MapChangePause: 48 * time.Second,
		MapLeaveProb:   0.10,

		LogoDownloadProb: 0.22,
		LogoUploadProb:   0.10,
		LogoBytes:        24 << 10,
		LogoRate:         2500,
		LogoPacket:       1100,

		// Three brief outages (Apr 12, 14, 17 in the paper).
		Outages: []Outage{
			{At: 26 * time.Hour, Duration: 18 * time.Second},
			{At: 78 * time.Hour, Duration: 25 * time.Second},
			{At: 146 * time.Hour, Duration: 12 * time.Second},
		},
		ReconnectProb: 0.35,
		ReconnectIn:   dist.Uniform{Low: 3, High: 45},
	}
}

// NATExperimentConfig returns the single-map configuration used for the
// paper's NAT experiment (§IV-A): one 30-minute map traced behind the
// device, with the server already warmed up and full.
func NATExperimentConfig(seed uint64) Config {
	c := PaperConfig(seed)
	c.Duration = 30 * time.Minute
	c.Outages = nil
	// Warm up through one full map cycle so the traced map starts on a
	// busy server, as in the paper.
	c.Warmup = c.MapDuration + c.MapChangePause
	// One map, no rotation inside the window.
	c.MapDuration = 30 * time.Minute
	// Triple the arrival rate so the warm-up to a full server is quick
	// (the paper traced "after a brief warm-up period").
	c.AttemptRate *= 3
	return c
}
