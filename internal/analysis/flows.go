package analysis

import (
	"time"

	"cstrace/internal/stats"
	"cstrace/internal/trace"
	"cstrace/internal/units"
)

// FlowStats summarizes one session's traffic.
type FlowStats struct {
	Client    uint32
	First     time.Duration
	Last      time.Duration
	Packets   int64
	WireBytes int64
	AppBytes  int64
}

// Duration returns the flow's active span.
func (f FlowStats) Duration() time.Duration { return f.Last - f.First }

// MeanKbs returns the flow's mean wire bandwidth in kbs over its span
// (both directions combined, as measured at the server).
func (f FlowStats) MeanKbs() float64 {
	d := f.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return float64(f.WireBytes) * 8 / d / 1e3
}

// FlowBandwidth groups traffic by session and produces the paper's Fig 11:
// the histogram of mean bandwidth across sessions longer than a cutoff.
// Handshake traffic with no session (Client 0) is ignored.
//
// Session ids from the generator are small dense integers, so the hot path
// indexes a slice grown to the highest id seen; ids past the dense bound
// (foreign traces with sparse ids) fall back to a map.
type FlowBandwidth struct {
	dense []*FlowStats // index = client id, for ids < denseFlowLimit
	flows map[uint32]*FlowStats
}

// denseFlowLimit bounds the slice-indexed fast path; the slice grows to the
// highest id actually seen, so the worst case is one pointer per session.
const denseFlowLimit = 1 << 21

// NewFlowBandwidth creates the collector.
func NewFlowBandwidth() *FlowBandwidth {
	return &FlowBandwidth{flows: make(map[uint32]*FlowStats)}
}

// flow returns (creating if needed) the accumulator for one client id.
func (fb *FlowBandwidth) flow(client uint32, t time.Duration) *FlowStats {
	if client < denseFlowLimit {
		if int(client) >= len(fb.dense) {
			grown := make([]*FlowStats, client+1+uint32(len(fb.dense)/2))
			copy(grown, fb.dense)
			fb.dense = grown
		}
		f := fb.dense[client]
		if f == nil {
			f = &FlowStats{Client: client, First: t}
			fb.dense[client] = f
		}
		return f
	}
	f := fb.flows[client]
	if f == nil {
		f = &FlowStats{Client: client, First: t}
		fb.flows[client] = f
	}
	return f
}

// each visits every flow.
func (fb *FlowBandwidth) each(visit func(*FlowStats)) {
	for _, f := range fb.dense {
		if f != nil {
			visit(f)
		}
	}
	for _, f := range fb.flows {
		visit(f)
	}
}

// HandleBatch implements trace.BatchHandler.
func (fb *FlowBandwidth) HandleBatch(rs []trace.Record) { viaColumns(rs, fb.HandleColumns) }

// HandleColumns sweeps a column block over the client, timestamp and app
// columns, looking each flow up in the dense table inline.
func (fb *FlowBandwidth) HandleColumns(cb *trace.ColumnBlock) {
	ts := cb.T
	clients, apps := cb.Client[:len(ts)], cb.App[:len(ts)]
	for i, c := range clients {
		if c == 0 {
			continue
		}
		t := ts[i]
		var f *FlowStats
		if int(c) < len(fb.dense) {
			f = fb.dense[c]
		}
		if f == nil {
			f = fb.flow(c, t)
		}
		f.First = min(f.First, t)
		f.Last = max(f.Last, t)
		f.Packets++
		a := int64(apps[i])
		f.AppBytes += a
		f.WireBytes += a + units.WireOverhead
	}
}

// Histogram bins mean session bandwidth (bits/sec) for sessions lasting at
// least minDuration, over [0, maxBps) with the given number of bins —
// Fig 11 uses sessions > 30 s on [0, 150000) b/s.
func (fb *FlowBandwidth) Histogram(minDuration time.Duration, maxBps float64, bins int) *stats.Histogram {
	h := stats.MustHistogram(0, maxBps, bins)
	fb.each(func(f *FlowStats) {
		if f.Duration() >= minDuration {
			h.Add(f.MeanKbs() * 1e3)
		}
	})
	return h
}
