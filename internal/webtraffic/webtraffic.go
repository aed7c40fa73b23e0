// Package webtraffic generates the bulk-transfer TCP baseline the paper
// contrasts game traffic against (§IV-A: "the majority of traffic being
// carried in today's networks involve bulk data transfers using TCP" whose
// data segments "can be close to an order of magnitude larger than game
// traffic", and the Ames exchange-point observation of mean packet sizes
// above 400 bytes).
//
// The model is a compact 2002-era web source in the SURGE / Mah tradition:
// user sessions arrive Poisson; each session fetches a heavy-tailed number
// of pages with think times between them; each page is a heavy-tailed
// number of objects; each object is one non-persistent HTTP/1.0-style TCP
// connection — handshake, request, slow-started MSS segments from the
// server, delayed ACKs from the client, FIN teardown. The generator emits
// time-sorted trace.Records as seen at the server tap, so the stream feeds
// the same analysis collectors and NAT device model as game traffic.
//
// Byte accounting: trace.Record.Wire() adds the 58-byte UDP framing the
// rest of the repository uses. A TCP header is 12 bytes larger than a UDP
// header, so web records carry App = TCP payload + TCPHeaderDelta, which
// makes Wire() exact for TCP packets while reusing the shared Record type:
// a record's TCP payload is App - TCPHeaderDelta.
package webtraffic

import (
	"errors"
	"sort"
	"time"

	"cstrace/internal/dist"
	"cstrace/internal/trace"
	"cstrace/internal/units"
)

// TCPHeaderDelta is the TCP-minus-UDP header size difference added to every
// web record's App field so Record.Wire() stays exact.
const TCPHeaderDelta = 20 - 8

// Config parameterizes the web workload.
type Config struct {
	Seed     uint64
	Duration time.Duration // session arrival window

	// Session structure.
	SessionRate     float64      // new user sessions per second
	PagesPerSession dist.Sampler // pages fetched per session (≥1)
	ObjectsPerPage  dist.Sampler // objects per page (≥1)
	ThinkTime       dist.Sampler // seconds between pages
	ObjectGap       dist.Sampler // seconds between object starts in a page

	// Object transfer.
	ObjectSize  dist.Sampler // bytes per object (heavy-tailed)
	RequestSize dist.Sampler // bytes of the client's request

	// TCP mechanics.
	MSS             int          // maximum segment size (payload bytes)
	InitCwnd        int          // initial congestion window, segments
	MaxCwnd         int          // receiver-window cap, segments
	RTT             dist.Sampler // per-session round-trip time, seconds
	BottleneckBps   dist.Sampler // per-session bottleneck rate, bits/sec
	DelayedAckEvery int          // client ACKs every n-th data segment
	DelayedAckDelay time.Duration
}

// DefaultConfig returns a workload calibrated to look like 2002 web traffic:
// heavy-tailed object sizes with a ~12 KB mean, a client mix from modems to
// office LANs, and a session rate chosen so the aggregate offered load is
// close to the paper's game server (≈880 kbs) — which makes head-to-head
// router experiments an equal-bits comparison.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:     seed,
		Duration: 30 * time.Minute,

		SessionRate:     0.5,
		PagesPerSession: dist.Truncated{S: dist.Pareto{Xm: 1, Alpha: 1.5}, Low: 1, High: 50},
		ObjectsPerPage:  dist.Truncated{S: dist.Pareto{Xm: 2, Alpha: 1.3}, Low: 1, High: 30},
		ThinkTime:       dist.Truncated{S: dist.Pareto{Xm: 1, Alpha: 1.4}, Low: 1, High: 120},
		ObjectGap:       dist.Exponential{MeanV: 0.15},

		// Crovella-style hybrid: lognormal body, Pareto tail.
		ObjectSize: dist.Truncated{
			S:    mustMixture([]dist.Sampler{dist.LogNormalFromMean(8000, 1.2), dist.Pareto{Xm: 30000, Alpha: 1.2}}, []float64{0.88, 0.12}),
			Low:  200,
			High: 5e6,
		},
		RequestSize: dist.Truncated{S: dist.Normal{Mu: 350, Sigma: 80}, Low: 120, High: 1400},

		MSS:      1460,
		InitCwnd: 2,
		MaxCwnd:  6, // 8760-byte receiver window of the era
		RTT:      dist.Truncated{S: dist.LogNormalFromMean(0.08, 0.7), Low: 0.01, High: 1},
		BottleneckBps: mustMixture(
			[]dist.Sampler{
				dist.Constant{V: 45e3},  // modem
				dist.Constant{V: 640e3}, // DSL/cable of the era
				dist.Constant{V: 10e6},  // office LAN
			},
			[]float64{0.45, 0.4, 0.15},
		),
		DelayedAckEvery: 2,
		DelayedAckDelay: 200 * time.Millisecond,
	}
}

func mustMixture(s []dist.Sampler, w []float64) dist.Sampler {
	m, err := dist.NewMixture(s, w)
	if err != nil {
		panic(err)
	}
	return m
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.Duration <= 0:
		return errors.New("webtraffic: Duration must be positive")
	case c.SessionRate <= 0:
		return errors.New("webtraffic: SessionRate must be positive")
	case c.MSS <= 0:
		return errors.New("webtraffic: MSS must be positive")
	case c.InitCwnd <= 0 || c.MaxCwnd < c.InitCwnd:
		return errors.New("webtraffic: need 0 < InitCwnd <= MaxCwnd")
	case c.DelayedAckEvery <= 0:
		return errors.New("webtraffic: DelayedAckEvery must be positive")
	case c.PagesPerSession == nil || c.ObjectsPerPage == nil || c.ThinkTime == nil ||
		c.ObjectGap == nil || c.ObjectSize == nil || c.RequestSize == nil ||
		c.RTT == nil || c.BottleneckBps == nil:
		return errors.New("webtraffic: all samplers must be set")
	}
	return nil
}

// Stats summarizes a generated workload.
type Stats struct {
	Sessions    int64
	Pages       int64
	Connections int64

	PacketsIn  int64 // client → server
	PacketsOut int64 // server → client
	WireIn     int64 // bytes on the wire
	WireOut    int64

	// Span is the time of the last record (connections outlive the
	// arrival window while they drain).
	Span time.Duration
}

// Packets returns the total packet count.
func (s Stats) Packets() int64 { return s.PacketsIn + s.PacketsOut }

// MeanWirePacket returns the mean on-the-wire packet size in bytes across
// both directions — the number the paper's §IV-A compares against routers'
// 125-250 byte design assumptions.
func (s Stats) MeanWirePacket() float64 {
	if s.Packets() == 0 {
		return 0
	}
	return float64(s.WireIn+s.WireOut) / float64(s.Packets())
}

// MeanBandwidth returns the mean offered load in bits/sec over the span.
func (s Stats) MeanBandwidth() units.BitsPerSecond {
	if s.Span <= 0 {
		return 0
	}
	return units.Rate(units.Bytes(s.WireIn+s.WireOut), s.Span.Seconds())
}

// MeanPacketLoad returns the mean packet rate over the span.
func (s Stats) MeanPacketLoad() units.PacketsPerSecond {
	if s.Span <= 0 {
		return 0
	}
	return units.PacketRate(s.Packets(), s.Span.Seconds())
}

// PPSPerMbps returns packets/sec needed to carry one megabit/sec of this
// traffic — the router-provisioning figure of merit that makes the
// small-packet problem visible independent of load level.
func (s Stats) PPSPerMbps() float64 {
	bw := float64(s.MeanBandwidth())
	if bw == 0 {
		return 0
	}
	return float64(s.MeanPacketLoad()) / (bw / 1e6)
}

// Generate produces the workload and streams it, time-sorted, to h.
// Returns aggregate statistics.
func Generate(cfg Config, h trace.Handler) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	rng := dist.NewRNG(cfg.Seed)
	var st Stats
	var recs []trace.Record

	// Poisson session arrivals across the window.
	var t float64
	client := uint32(0)
	for {
		t += rng.ExpFloat64() / cfg.SessionRate
		if t >= cfg.Duration.Seconds() {
			break
		}
		client++
		st.Sessions++
		sessRecs := genSession(cfg, rng, t, client, &st)
		recs = append(recs, sessRecs...)
	}

	sort.SliceStable(recs, func(i, j int) bool { return recs[i].T < recs[j].T })
	for _, r := range recs {
		if r.T > st.Span {
			st.Span = r.T
		}
		switch r.Dir {
		case trace.In:
			st.PacketsIn++
			st.WireIn += int64(r.Wire())
		case trace.Out:
			st.PacketsOut++
			st.WireOut += int64(r.Wire())
		}
		h.Handle(r)
	}
	return st, nil
}

// genSession generates all records of one user session starting at t0
// seconds.
func genSession(cfg Config, rng *dist.RNG, t0 float64, client uint32, st *Stats) []trace.Record {
	rtt := cfg.RTT.Sample(rng)
	bps := cfg.BottleneckBps.Sample(rng)
	var recs []trace.Record

	t := t0
	pages := int(cfg.PagesPerSession.Sample(rng))
	if pages < 1 {
		pages = 1
	}
	for p := 0; p < pages; p++ {
		st.Pages++
		objects := int(cfg.ObjectsPerPage.Sample(rng))
		if objects < 1 {
			objects = 1
		}
		pageEnd := t
		for o := 0; o < objects; o++ {
			st.Connections++
			size := int64(cfg.ObjectSize.Sample(rng))
			if size < 1 {
				size = 1
			}
			req := int(cfg.RequestSize.Sample(rng))
			if req < 1 {
				req = 1
			}
			end := genConnection(cfg, &recs, t, client, rtt, bps, size, req)
			if end > pageEnd {
				pageEnd = end
			}
			t += cfg.ObjectGap.Sample(rng)
		}
		t = pageEnd + cfg.ThinkTime.Sample(rng)
	}
	return recs
}

// genConnection emits the records of one HTTP/1.0-style transfer starting
// at t0 and returns its finish time. Timestamps are as seen at the server:
// client packets at arrival, server packets at transmission.
func genConnection(cfg Config, recs *[]trace.Record, t0 float64, client uint32, rtt, bps float64, size int64, req int) float64 {
	half := rtt / 2
	emit := func(at float64, dir trace.Direction, payload int) {
		*recs = append(*recs, trace.Record{
			T:      time.Duration(at * float64(time.Second)),
			Dir:    dir,
			Kind:   trace.KindWeb,
			Client: client,
			App:    uint16(payload + TCPHeaderDelta),
		})
	}

	// Handshake: SYN arrives at the server half an RTT after the client
	// sends it; the SYN-ACK goes straight back; the client's ACK rides
	// with the request one RTT later.
	tSYN := t0 + half
	emit(tSYN, trace.In, 0)
	emit(tSYN, trace.Out, 0)
	tReq := tSYN + rtt
	emit(tReq, trace.In, req)

	// Data rounds: ack-clocked slow start capped by the receiver window.
	// Within a round, segments are spaced by the bottleneck serialization
	// time (ack-clocking spreads them across the path's slowest link).
	nseg := int((size + int64(cfg.MSS) - 1) / int64(cfg.MSS))
	segGap := float64(cfg.MSS+units.WireOverhead+TCPHeaderDelta) * 8 / bps
	cwnd := cfg.InitCwnd
	sent := 0
	var remaining = size
	tRound := tReq
	var lastData float64
	ackCount := 0
	for sent < nseg {
		burst := cwnd
		if sent+burst > nseg {
			burst = nseg - sent
		}
		for i := 0; i < burst; i++ {
			payload := cfg.MSS
			if remaining < int64(cfg.MSS) {
				payload = int(remaining)
			}
			at := tRound + float64(i)*segGap
			emit(at, trace.Out, payload)
			lastData = at
			remaining -= int64(payload)
			sent++
			// Delayed ACK: every n-th segment acknowledged on
			// arrival; a trailing odd segment after the timeout.
			ackCount++
			if ackCount == cfg.DelayedAckEvery {
				emit(at+rtt, trace.In, 0)
				ackCount = 0
			} else if sent == nseg && ackCount > 0 {
				emit(at+rtt+cfg.DelayedAckDelay.Seconds(), trace.In, 0)
			}
		}
		tRound = tRound + float64(burst-1)*segGap + rtt
		if cwnd < cfg.MaxCwnd {
			cwnd *= 2
			if cwnd > cfg.MaxCwnd {
				cwnd = cfg.MaxCwnd
			}
		}
	}

	// Teardown: server FIN after the last segment, client FIN-ACK one RTT
	// later, server's final ACK immediately.
	tFin := lastData + segGap
	emit(tFin, trace.Out, 0)
	emit(tFin+rtt, trace.In, 0)
	emit(tFin+rtt, trace.Out, 0)
	return tFin + rtt
}
