// Package provision turns the paper's measurements into the capacity
// planning its title promises: given the per-player resource budget the
// trace establishes (§III) and the burst structure of the server's 50 ms
// broadcast (§III-B), it sizes servers, checks last-mile links, and
// assesses whether a forwarding device can host game servers without the
// §IV-A failure mode.
//
// The device assessment encodes the paper's mechanism analytically. Every
// tick the server hands the device a back-to-back burst of one snapshot per
// player; draining the burst occupies the shared lookup engine while
// independently-arriving client packets pile up on their ingress queue. The
// paper's buffering argument is reproduced too: absorbing a full tick's
// spike in buffers delays packets by (burst + inbound)/capacity, which for
// the measured server and the SMC Barricade is "more than a quarter of the
// maximum tolerable latency" — so extra buffering trades loss for
// unacceptable lag, and only lookup capacity actually helps.
package provision

import (
	"errors"
	"fmt"
	"time"

	"cstrace/internal/netem"
)

// PlayerBudget is the steady-state demand of one active player as seen at
// the server: packet rates and wire bit rates per direction.
type PlayerBudget struct {
	InPPS  float64 // client → server packets/sec
	OutPPS float64 // server → client packets/sec
	InBps  float64 // client → server wire bits/sec
	OutBps float64 // server → client wire bits/sec
}

// PaperBudget returns the per-active-player budget from Tables I-II: mean
// loads divided by the ≈18.05 mean concurrent players the trace carried.
func PaperBudget() PlayerBudget {
	const meanPlayers = 18.05
	return PlayerBudget{
		InPPS:  437.12 / meanPlayers,
		OutPPS: 360.99 / meanPlayers,
		InBps:  341e3 / meanPlayers,
		OutBps: 542e3 / meanPlayers,
	}
}

// TotalBps returns the duplex per-player bit rate (the paper's headline
// "40 kbps per player" uses slots rather than active players; both views
// derive from this).
func (b PlayerBudget) TotalBps() float64 { return b.InBps + b.OutBps }

// TotalPPS returns the duplex per-player packet rate.
func (b PlayerBudget) TotalPPS() float64 { return b.InPPS + b.OutPPS }

// ServerDemand is the aggregate demand of one game server.
type ServerDemand struct {
	Players int
	Tick    time.Duration

	MeanInPPS  float64
	MeanOutPPS float64
	MeanBps    float64
	// TickBurst is the synchronized packet burst emitted every tick: one
	// snapshot per player, back to back (§III-B: "the game server
	// deterministically flooding its clients with state updates about
	// every 50ms").
	TickBurst int
}

// Demand computes a server's demand under the linear-in-players model.
func Demand(b PlayerBudget, players int, tick time.Duration) ServerDemand {
	return ServerDemand{
		Players:    players,
		Tick:       tick,
		MeanInPPS:  b.InPPS * float64(players),
		MeanOutPPS: b.OutPPS * float64(players),
		MeanBps:    b.TotalBps() * float64(players),
		TickBurst:  players,
	}
}

// DeviceSpec describes a forwarding device in the terms that matter for
// small-packet traffic: lookup capacity and ingress queue depths.
type DeviceSpec struct {
	Name string
	// LookupPPS is the sustained route-lookup/forwarding rate in
	// packets/sec — the §IV-A bottleneck, not link bandwidth.
	LookupPPS float64
	// QueueIn/QueueOut are the per-direction ingress buffers in packets.
	QueueIn, QueueOut int
}

// Barricade returns the SMC7004AWBR spec the paper tested: a listed routing
// capacity of 1000-1500 pps (midpoint used) and shallow consumer buffers.
func Barricade() DeviceSpec {
	return DeviceSpec{Name: "SMC Barricade", LookupPPS: 1250, QueueIn: 18, QueueOut: 64}
}

// MidRangeRouter is a 10 kpps branch router of the era.
func MidRangeRouter() DeviceSpec {
	return DeviceSpec{Name: "mid-range router", LookupPPS: 10000, QueueIn: 128, QueueOut: 256}
}

// DefaultLatencyBudget is the maximum tolerable lag for a first-person
// shooter, taken from the low end of the 100-225 ms degradation range of
// MacKenzie & Ware (the paper's ref [33]); it is also the budget under
// which the paper's own arithmetic holds — buffering the measured server's
// ~35 ms tick spike on the Barricade then costs "more than a quarter of
// the maximum tolerable latency".
const DefaultLatencyBudget = 130 * time.Millisecond

// Assessment reports whether a device can host a set of game servers.
type Assessment struct {
	Device  DeviceSpec
	Servers int

	// Utilization is mean offered pps over lookup capacity; above 1 the
	// device is unconditionally overrun.
	Utilization float64
	// BurstDrain is the time the aligned per-tick burst monopolizes the
	// engine.
	BurstDrain time.Duration
	// InboundPileup is the number of client packets accumulating on the
	// WAN-side queue while the burst drains.
	InboundPileup float64
	// EstLossIn/EstLossOut are analytic per-direction loss estimates from
	// queue overflow during the tick cycle (zero when margins hold; the
	// simulator in internal/nat adds the service-jitter and slow-path
	// effects that produce loss even at nominal margins).
	EstLossIn, EstLossOut float64
	// SpikeBufferDelay is the delay absorbing one full tick's work in
	// buffers would impose: (burst + inbound during a tick) / capacity.
	SpikeBufferDelay time.Duration
	// LatencyFrac is SpikeBufferDelay over the latency budget; the paper
	// measured "more than a quarter" for the Barricade.
	LatencyFrac float64

	Feasible bool
	Reason   string
}

// Assess evaluates hosting n identical servers behind the device. The
// worst case is assumed: server ticks align, so bursts superpose.
func Assess(d DeviceSpec, demand ServerDemand, n int, latencyBudget time.Duration) (Assessment, error) {
	if n <= 0 {
		return Assessment{}, errors.New("provision: need at least one server")
	}
	if d.LookupPPS <= 0 {
		return Assessment{}, errors.New("provision: device has no lookup capacity")
	}
	if latencyBudget <= 0 {
		latencyBudget = DefaultLatencyBudget
	}
	a := Assessment{Device: d, Servers: n}
	inPPS := demand.MeanInPPS * float64(n)
	outPPS := demand.MeanOutPPS * float64(n)
	burst := demand.TickBurst * n
	tick := demand.Tick.Seconds()

	a.Utilization = (inPPS + outPPS) / d.LookupPPS
	drain := float64(burst) / d.LookupPPS
	a.BurstDrain = time.Duration(drain * float64(time.Second))
	a.InboundPileup = inPPS * drain

	// Outgoing loss: the burst itself must fit the LAN-side queue.
	if burst > d.QueueOut {
		a.EstLossOut = float64(burst-d.QueueOut) / float64(burst)
	}
	// Incoming loss: clients trickle in while the engine drains the
	// burst; overflow beyond the WAN-side queue is lost. Expressed as a
	// fraction of the inbound packets offered per tick.
	inPerTick := inPPS * tick
	if over := a.InboundPileup - float64(d.QueueIn); over > 0 && inPerTick > 0 {
		a.EstLossIn = over / inPerTick
		if a.EstLossIn > 1 {
			a.EstLossIn = 1
		}
	}
	// Unstable queues lose whatever exceeds capacity, on top of the
	// burst-phase losses.
	if a.Utilization > 1 {
		excess := 1 - 1/a.Utilization
		if a.EstLossIn < excess {
			a.EstLossIn = excess
		}
		if a.EstLossOut < excess {
			a.EstLossOut = excess
		}
	}

	perTickWork := float64(burst) + inPPS*tick
	a.SpikeBufferDelay = time.Duration(perTickWork / d.LookupPPS * float64(time.Second))
	a.LatencyFrac = float64(a.SpikeBufferDelay) / float64(latencyBudget)

	switch {
	case a.Utilization >= 1:
		a.Reason = fmt.Sprintf("mean load %.0f pps exceeds lookup capacity %.0f pps",
			inPPS+outPPS, d.LookupPPS)
	case a.EstLossOut > 0:
		a.Reason = fmt.Sprintf("tick burst of %d packets overflows %d-packet LAN queue",
			burst, d.QueueOut)
	case a.EstLossIn > 0:
		a.Reason = fmt.Sprintf("inbound pile-up %.1f packets overflows %d-packet WAN queue",
			a.InboundPileup, d.QueueIn)
	case a.LatencyFrac > 0.25:
		a.Reason = fmt.Sprintf("buffering the tick spike costs %v, over a quarter of the %v budget",
			a.SpikeBufferDelay.Round(time.Millisecond), latencyBudget)
	default:
		a.Feasible = true
		a.Reason = "within capacity, queue and latency margins"
	}
	return a, nil
}

// MaxServers returns the largest number of identical servers the device
// hosts feasibly under Assess, zero if even one server does not fit.
func MaxServers(d DeviceSpec, demand ServerDemand, latencyBudget time.Duration) int {
	n := 0
	for {
		a, err := Assess(d, demand, n+1, latencyBudget)
		if err != nil || !a.Feasible {
			return n
		}
		n++
		if n > 1<<20 { // defensive: demand must be degenerate
			return n
		}
	}
}

// RequiredLookupPPS returns the lookup capacity needed to host n servers
// with the spike-buffer delay held under frac of the latency budget — the
// provisioning inverse of Assess, and the paper's closing point that
// "increasing the peak route lookup capacity" is the fix.
func RequiredLookupPPS(demand ServerDemand, n int, latencyBudget time.Duration, frac float64) float64 {
	if latencyBudget <= 0 {
		latencyBudget = DefaultLatencyBudget
	}
	if frac <= 0 {
		frac = 0.25
	}
	inPPS := demand.MeanInPPS * float64(n)
	outPPS := demand.MeanOutPPS * float64(n)
	perTickWork := float64(demand.TickBurst*n) + inPPS*demand.Tick.Seconds()
	byDelay := perTickWork / (frac * latencyBudget.Seconds())
	byLoad := (inPPS + outPPS) * 1.25 // 80% utilization headroom
	if byDelay > byLoad {
		return byDelay
	}
	return byLoad
}

// LastMileReport is the saturation check for one access profile.
type LastMileReport struct {
	Profile netem.Profile
	// DownUtil/UpUtil are per-direction utilizations of the access link
	// by one player's flow.
	DownUtil, UpUtil float64
	// SaturationRatio is the paper's own comparison: the player's total
	// duplex demand over the narrowest direction of the access link
	// (§III-B compares the ~40 kbs per-player total against the 40-50 kbs
	// a 56k modem delivers).
	SaturationRatio float64
	// Saturated marks the paper's conclusion for this link class: the
	// game's fixed budget consumes essentially all of the narrowest
	// last-mile capacity.
	Saturated bool
	// Fits means both directions individually stay at or under 100%:
	// the game is playable on this link.
	Fits bool
}

// CheckLastMile evaluates one player's budget against an access profile.
// Server→client traffic rides the downlink, client→server the uplink.
func CheckLastMile(b PlayerBudget, p netem.Profile) LastMileReport {
	r := LastMileReport{Profile: p}
	r.DownUtil = b.OutBps / p.DownBps
	r.UpUtil = b.InBps / p.UpBps
	narrow := p.DownBps
	if p.UpBps < narrow {
		narrow = p.UpBps
	}
	r.SaturationRatio = b.TotalBps() / narrow
	r.Saturated = r.SaturationRatio >= 0.9
	max := r.DownUtil
	if r.UpUtil > max {
		max = r.UpUtil
	}
	r.Fits = max <= 1.0
	return r
}

// Plan is a deployment plan for a target concurrent player count.
type Plan struct {
	Players int
	Slots   int
	Servers int

	TotalBps     float64
	TotalMeanPPS float64
	// PeakPPS is the short-timescale peak the routers actually see (the
	// paper's Fig 6 view): with server ticks aligned, every broadcast
	// burst lands within one 10 ms window, so the windowed rate is
	// burst/10 ms plus the smooth inbound flow. For the paper's single
	// server this gives ≈2700 pps against a 798 pps mean — the ≈3×
	// burst-to-mean ratio visible in Fig 6.
	PeakPPS float64
	// MinLookupPPS is the router capacity recommendation.
	MinLookupPPS float64
}

// PlanFor sizes a deployment: how many slots-sized servers carry the target
// population, and what the network in front of them must sustain.
func PlanFor(b PlayerBudget, players, slots int, tick time.Duration) (Plan, error) {
	if players <= 0 || slots <= 0 {
		return Plan{}, errors.New("provision: players and slots must be positive")
	}
	servers := (players + slots - 1) / slots
	demand := Demand(b, slots, tick)
	p := Plan{
		Players:      players,
		Slots:        slots,
		Servers:      servers,
		TotalBps:     b.TotalBps() * float64(players),
		TotalMeanPPS: b.TotalPPS() * float64(players),
	}
	const peakWindow = 0.010 // seconds; Fig 6's bin width
	burst := float64(demand.TickBurst * servers)
	p.PeakPPS = burst/peakWindow + b.InPPS*float64(players)
	p.MinLookupPPS = RequiredLookupPPS(demand, servers, DefaultLatencyBudget, 0.25)
	return p, nil
}
