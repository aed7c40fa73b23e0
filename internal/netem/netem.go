// Package netem models the narrowest last-mile links the paper's thesis
// revolves around: "in order to maximize the interactivity of the game
// itself and to provide relatively uniform experiences between players
// playing over different network speeds, on-line games typically fix their
// usage requirements in such a way as to saturate the network link of their
// lowest speed players."
//
// A Link is a one-direction store-and-forward bottleneck: packets serialize
// at the link rate, wait in a finite drop-tail FIFO, then propagate after a
// fixed delay plus optional jitter. A LastMile pairs a downlink (server →
// client) and an uplink (client → server) and routes records by direction,
// so a single client's slice of the server trace can be replayed through
// its access link to measure the delay and loss that client would see.
//
// The presets are the access technologies of the paper's era; Modem56k's
// effective 40-50 kbs payload rate is exactly the budget the game's ~40 kbs
// per-player flow saturates.
package netem

import (
	"errors"
	"time"

	"cstrace/internal/dist"
	"cstrace/internal/stats"
	"cstrace/internal/trace"
	"cstrace/internal/units"
)

// Profile describes a bidirectional access link.
type Profile struct {
	Name     string
	DownBps  float64 // server → client rate, bits/sec
	UpBps    float64 // client → server rate, bits/sec
	Prop     time.Duration
	JitterSD time.Duration // lognormal-ish spread added to propagation
	BufBytes int           // queue capacity per direction, bytes
}

// Modem56k is a V.90 modem: nominal 56 kbs down, 33.6 kbs up, with the
// 40-50 kbs effective downstream the paper cites, long serialization
// delays and a small modem buffer.
func Modem56k() Profile {
	return Profile{
		Name:    "modem56k",
		DownBps: 45e3, UpBps: 31.2e3,
		Prop: 60 * time.Millisecond, JitterSD: 8 * time.Millisecond,
		BufBytes: 4096,
	}
}

// ISDN is a 64 kbs basic-rate channel.
func ISDN() Profile {
	return Profile{
		Name:    "isdn64k",
		DownBps: 64e3, UpBps: 64e3,
		Prop: 20 * time.Millisecond, JitterSD: 2 * time.Millisecond,
		BufBytes: 8192,
	}
}

// DSL is early ADSL: 640 kbs down, 128 kbs up.
func DSL() Profile {
	return Profile{
		Name:    "dsl640k",
		DownBps: 640e3, UpBps: 128e3,
		Prop: 15 * time.Millisecond, JitterSD: 2 * time.Millisecond,
		BufBytes: 16384,
	}
}

// Cable is a shared cable plant: 1.5 Mbs down, 256 kbs up, jittery.
func Cable() Profile {
	return Profile{
		Name:    "cable1.5M",
		DownBps: 1.5e6, UpBps: 256e3,
		Prop: 12 * time.Millisecond, JitterSD: 6 * time.Millisecond,
		BufBytes: 32768,
	}
}

// LAN10M is a campus/office connection that is never the bottleneck.
func LAN10M() Profile {
	return Profile{
		Name:    "lan10M",
		DownBps: 10e6, UpBps: 10e6,
		Prop: 2 * time.Millisecond, JitterSD: 200 * time.Microsecond,
		BufBytes: 65536,
	}
}

// Profiles returns all presets, slowest first.
func Profiles() []Profile {
	return []Profile{Modem56k(), ISDN(), DSL(), Cable(), LAN10M()}
}

// LinkStats summarizes one direction of a link.
type LinkStats struct {
	Offered   int64
	Delivered int64
	Dropped   int64
	WireBytes int64 // delivered bytes on the wire

	// Delay is queue wait + serialization + propagation + jitter, in
	// seconds, over delivered packets.
	Delay stats.Summary

	// Busy is the total serialization time, for utilization.
	Busy time.Duration
	// Span is the time of the last departure.
	Span time.Duration
}

// LossRate returns the drop fraction of offered packets.
func (s *LinkStats) LossRate() float64 {
	if s.Offered == 0 {
		return 0
	}
	return float64(s.Dropped) / float64(s.Offered)
}

// Utilization returns the fraction of the span the transmitter was busy.
func (s *LinkStats) Utilization() float64 {
	if s.Span <= 0 {
		return 0
	}
	return float64(s.Busy) / float64(s.Span)
}

// Goodput returns delivered wire bits/sec over the span.
func (s *LinkStats) Goodput() units.BitsPerSecond {
	if s.Span <= 0 {
		return 0
	}
	return units.Rate(units.Bytes(s.WireBytes), s.Span.Seconds())
}

// Link is one direction of an access link. Feed it records in time order;
// survivors are forwarded, restamped with their arrival time at the far
// end. Output order is monotone (jitter is clamped so packets do not
// overtake each other, as on a real serial link).
type Link struct {
	rate     float64 // bits/sec
	prop     time.Duration
	jitterSD time.Duration
	bufBytes int
	next     trace.Handler
	rng      *dist.RNG

	queueBytes int64         // bytes awaiting or in serialization
	freeAt     time.Duration // when the transmitter frees up
	lastOut    time.Duration // last forwarded timestamp (order clamp)
	lastT      time.Duration // last arrival seen (to drain the queue)
	stats      LinkStats
}

// NewLink builds a one-direction link. rate is the line rate in bits/sec.
func NewLink(rate float64, prop, jitterSD time.Duration, bufBytes int, seed uint64, next trace.Handler) (*Link, error) {
	if rate <= 0 {
		return nil, errors.New("netem: rate must be positive")
	}
	if bufBytes <= 0 {
		return nil, errors.New("netem: buffer must be positive")
	}
	if next == nil {
		return nil, errors.New("netem: nil next handler")
	}
	return &Link{
		rate:     rate,
		prop:     prop,
		jitterSD: jitterSD,
		bufBytes: bufBytes,
		next:     next,
		rng:      dist.NewRNG(seed),
	}, nil
}

// Stats returns the accumulated statistics.
func (l *Link) Stats() *LinkStats { return &l.stats }

// Handle implements trace.Handler: the record is queued, serialized and
// forwarded restamped with its delivery time, or dropped when the queue
// is full.
func (l *Link) Handle(r trace.Record) {
	l.stats.Offered++
	l.drainTo(r.T)
	l.lastT = r.T

	wire := int64(r.Wire())
	if l.queueBytes+wire > int64(l.bufBytes) {
		l.stats.Dropped++
		return
	}
	l.queueBytes += wire

	// Serialization starts when the transmitter frees up.
	start := l.freeAt
	if r.T > start {
		start = r.T
	}
	tx := time.Duration(float64(wire*8) / l.rate * float64(time.Second))
	done := start + tx
	l.freeAt = done
	l.stats.Busy += tx

	jitter := time.Duration(0)
	if l.jitterSD > 0 {
		j := l.rng.NormFloat64() * float64(l.jitterSD)
		if j < 0 {
			j = -j
		}
		jitter = time.Duration(j)
	}
	out := done + l.prop + jitter
	if out < l.lastOut {
		out = l.lastOut // no overtaking on a serial link
	}
	l.lastOut = out

	l.stats.Delivered++
	l.stats.WireBytes += wire
	l.stats.Delay.Add((out - r.T).Seconds())
	if out > l.stats.Span {
		l.stats.Span = out
	}
	r.T = out
	l.next.Handle(r)
}

// drainTo releases queue occupancy for packets fully serialized by t. The
// queue holds bytes from arrival until serialization completes, so
// occupancy is the backlog the transmitter still owes at time t.
func (l *Link) drainTo(t time.Duration) {
	if t <= l.lastT || l.queueBytes == 0 {
		return
	}
	if t >= l.freeAt {
		l.queueBytes = 0
		return
	}
	// Backlog remaining at t, in bytes.
	remaining := int64(float64(l.freeAt-t) / float64(time.Second) * l.rate / 8)
	if remaining < l.queueBytes {
		l.queueBytes = remaining
	}
}

// LastMile pairs the two directions of one client's access link and routes
// records by direction: Out records (server → client) traverse the
// downlink, In records the uplink. Timestamps on In records are taken as
// client transmission times, so the uplink restamps them with server-side
// arrival times just as the downlink restamps Out records with client-side
// arrival times.
type LastMile struct {
	down, up *Link
}

// New builds a LastMile from a profile. Both directions forward to next.
func New(p Profile, seed uint64, next trace.Handler) (*LastMile, error) {
	down, err := NewLink(p.DownBps, p.Prop, p.JitterSD, p.BufBytes, seed, next)
	if err != nil {
		return nil, err
	}
	up, err := NewLink(p.UpBps, p.Prop, p.JitterSD, p.BufBytes, seed+1, next)
	if err != nil {
		return nil, err
	}
	return &LastMile{down: down, up: up}, nil
}

// Handle implements trace.Handler.
func (m *LastMile) Handle(r trace.Record) {
	if r.Dir == trace.Out {
		m.down.Handle(r)
	} else {
		m.up.Handle(r)
	}
}

// Down returns downlink statistics (server → client).
func (m *LastMile) Down() *LinkStats { return m.down.Stats() }

// Up returns uplink statistics (client → server).
func (m *LastMile) Up() *LinkStats { return m.up.Stats() }
