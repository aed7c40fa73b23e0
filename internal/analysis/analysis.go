// Package analysis implements the paper's trace characterization as a
// library of streaming collectors: network/application usage counters
// (Tables II-III), per-minute bandwidth/packet-load/player series (Figs 1-4),
// the multi-scale variance-time analysis (Figs 5-10), the per-session
// bandwidth histogram (Fig 11), and packet-size distributions (Figs 12-13).
//
// All collectors run in a single pass over the record stream in bounded
// memory, so the full half-billion-packet reproduction streams straight from
// the generator without materializing a trace.
//
// Suite bundles every collector behind one trace.BatchHandler.
// Each collector has one sweep body, HandleColumns, over a
// trace.ColumnBlock: it reads only the field arrays it needs. A record
// block is transposed once (ColumnBlock.AppendFrom) before the sweeps, and
// a v4 trace's decoded columns reach the sharded suite as they are. The
// per-record Handle that the suites, Counters and IntervalWindow keep for
// trace.Handler callers is a one-record batch, not a second body. Shard
// deals the suite's collectors once, in even chunks, to worker goroutines
// fed by refcounted column-block fan-out — results are byte-identical to
// single-threaded runs because every collector still sees every record in
// stream order. Suite.Sink picks the mode from a parallelism knob. The
// suite expects time-ordered records; a source that may disorder them puts
// a trace.SortBuffer in front. Observe feeds session lifecycle events to
// the player series independently of the record stream. See
// docs/ARCHITECTURE.md for the data-flow picture.
package analysis

import (
	"math"
	"time"

	"cstrace/internal/stats"
	"cstrace/internal/timeseries"
	"cstrace/internal/trace"
	"cstrace/internal/units"
)

// Counters accumulates the aggregate usage numbers behind Tables II and III.
type Counters struct {
	PacketsIn, PacketsOut   int64
	AppBytesIn, AppBytesOut int64
	End                     time.Duration // highest timestamp seen
}

// Handle implements trace.Handler: one record is a one-record batch.
func (c *Counters) Handle(r trace.Record) { c.HandleBatch([]trace.Record{r}) }

// HandleBatch implements trace.BatchHandler.
func (c *Counters) HandleBatch(rs []trace.Record) { viaColumns(rs, c.HandleColumns) }

// HandleColumns sweeps a column block: outbound packets (flag bit 0 set)
// and app bytes, and the highest timestamp, accumulate branch-free in
// locals with one write-back per block.
func (c *Counters) HandleColumns(cb *trace.ColumnBlock) {
	ts := cb.T
	flags, apps := cb.Flags[:len(ts)], cb.App[:len(ts)]
	var outs, bytes, bytesOut int64
	end := c.End
	for i, t := range ts {
		o := int64(flags[i] & 1)
		a := int64(apps[i])
		outs += o
		bytes += a
		bytesOut += a & -o
		end = max(end, t)
	}
	c.PacketsIn += int64(len(ts)) - outs
	c.PacketsOut += outs
	c.AppBytesIn += bytes - bytesOut
	c.AppBytesOut += bytesOut
	c.End = end
}

// viaColumns is every collector's record-block adapter: rs is transposed
// into a pooled column block for the collector's one sweep.
func viaColumns(rs []trace.Record, sweep func(*trace.ColumnBlock)) {
	cb := trace.NewColumnBlock()
	cb.AppendFrom(rs)
	sweep(cb)
	trace.FreeColumnBlock(cb)
}

// refill transposes rs into cb in place of what cb held; its columns grow
// only to the largest batch they are handed.
func refill(cb *trace.ColumnBlock, rs []trace.Record) *trace.ColumnBlock {
	cb.T, cb.Flags, cb.Client, cb.App = cb.T[:0], cb.Flags[:0], cb.Client[:0], cb.App[:0]
	cb.AppendFrom(rs)
	return cb
}

// runEnd returns the end of the run that starts at ts[i]: ts[i] belongs to
// it whatever its value, and so does each following timestamp in [lo, hi).
// The time-binned collectors add a run's count to its bin once; bins hold
// integer counts in float64, so that is bit-identical to adding one per
// record.
func runEnd(ts []time.Duration, i int, lo, hi time.Duration) int {
	j := i + 1
	for j < len(ts) && ts[j] >= lo && ts[j] < hi {
		j++
	}
	return j
}

// Packets returns the total packet count.
func (c *Counters) Packets() int64 { return c.PacketsIn + c.PacketsOut }

// WireBytesIn returns inbound wire bytes under the paper's accounting.
func (c *Counters) WireBytesIn() int64 {
	return c.AppBytesIn + c.PacketsIn*units.WireOverhead
}

// WireBytesOut returns outbound wire bytes.
func (c *Counters) WireBytesOut() int64 {
	return c.AppBytesOut + c.PacketsOut*units.WireOverhead
}

// WireBytes returns total wire bytes.
func (c *Counters) WireBytes() int64 { return c.WireBytesIn() + c.WireBytesOut() }

// TableII is the paper's network usage summary.
type TableII struct {
	TotalPackets, PacketsIn, PacketsOut int64
	TotalBytes, BytesIn, BytesOut       units.Bytes
	MeanPPS, MeanPPSIn, MeanPPSOut      units.PacketsPerSecond
	MeanBW, MeanBWIn, MeanBWOut         units.BitsPerSecond
}

// TableII computes the paper's Table II over the observed duration (pass the
// nominal trace duration; zero means "use the last timestamp").
func (c *Counters) TableII(duration time.Duration) TableII {
	if duration <= 0 {
		duration = c.End
	}
	sec := duration.Seconds()
	return TableII{
		TotalPackets: c.Packets(),
		PacketsIn:    c.PacketsIn,
		PacketsOut:   c.PacketsOut,
		TotalBytes:   units.Bytes(c.WireBytes()),
		BytesIn:      units.Bytes(c.WireBytesIn()),
		BytesOut:     units.Bytes(c.WireBytesOut()),
		MeanPPS:      units.PacketRate(c.Packets(), sec),
		MeanPPSIn:    units.PacketRate(c.PacketsIn, sec),
		MeanPPSOut:   units.PacketRate(c.PacketsOut, sec),
		MeanBW:       units.Rate(units.Bytes(c.WireBytes()), sec),
		MeanBWIn:     units.Rate(units.Bytes(c.WireBytesIn()), sec),
		MeanBWOut:    units.Rate(units.Bytes(c.WireBytesOut()), sec),
	}
}

// TableIII is the paper's application-layer summary.
type TableIII struct {
	TotalBytes, BytesIn, BytesOut units.Bytes
	MeanSize, MeanIn, MeanOut     float64 // application bytes per packet
}

// TableIII computes the paper's Table III.
func (c *Counters) TableIII() TableIII {
	t := TableIII{
		TotalBytes: units.Bytes(c.AppBytesIn + c.AppBytesOut),
		BytesIn:    units.Bytes(c.AppBytesIn),
		BytesOut:   units.Bytes(c.AppBytesOut),
	}
	if n := c.Packets(); n > 0 {
		t.MeanSize = float64(c.AppBytesIn+c.AppBytesOut) / float64(n)
	}
	if c.PacketsIn > 0 {
		t.MeanIn = float64(c.AppBytesIn) / float64(c.PacketsIn)
	}
	if c.PacketsOut > 0 {
		t.MeanOut = float64(c.AppBytesOut) / float64(c.PacketsOut)
	}
	return t
}

// SizeDist collects application payload size distributions (Figs 12-13).
// Only the per-direction histograms are maintained on the hot path; the
// combined distribution is derived on demand, halving the per-record
// histogram work.
type SizeDist struct {
	In, Out *stats.IntHistogram
	max     int
}

// NewSizeDist creates histograms covering payloads up to max bytes.
func NewSizeDist(max int) *SizeDist {
	return &SizeDist{
		In:  stats.NewIntHistogram(max),
		Out: stats.NewIntHistogram(max),
		max: max,
	}
}

// Total returns the both-directions distribution, computed from the
// per-direction histograms. The result is a snapshot: records observed
// after the call are not reflected in it.
func (s *SizeDist) Total() *stats.IntHistogram {
	t := stats.NewIntHistogram(s.max)
	t.Merge(s.In)
	t.Merge(s.Out)
	return t
}

// HandleBatch implements trace.BatchHandler.
func (s *SizeDist) HandleBatch(rs []trace.Record) { viaColumns(rs, s.HandleColumns) }

// HandleColumns sweeps a column block over its two dense arrays of interest,
// the direction bit and the app size.
func (s *SizeDist) HandleColumns(cb *trace.ColumnBlock) {
	in, out := s.In, s.Out
	apps := cb.App
	for i, f := range cb.Flags {
		if trace.Direction(f&1) == trace.In {
			in.Add(int(apps[i]))
		} else {
			out.Add(int(apps[i]))
		}
	}
}

// MinuteSeries collects the per-minute bandwidth and packet-load series of
// Figs 1, 2 and 4.
type MinuteSeries struct {
	BitsIn, BitsOut *timeseries.Binner // wire bits per minute
	PktsIn, PktsOut *timeseries.Binner
}

// NewMinuteSeries creates the collector.
func NewMinuteSeries() *MinuteSeries {
	return &MinuteSeries{
		BitsIn:  timeseries.MustBinner(time.Minute),
		BitsOut: timeseries.MustBinner(time.Minute),
		PktsIn:  timeseries.MustBinner(time.Minute),
		PktsOut: timeseries.MustBinner(time.Minute),
	}
}

// HandleBatch implements trace.BatchHandler.
func (m *MinuteSeries) HandleBatch(rs []trace.Record) { viaColumns(rs, m.HandleColumns) }

// HandleColumns sweeps a column block. A block spans a handful of ticks at
// most, so nearly every record lands in the same minute: each minute's run
// sums wire bytes and packets per direction in integers (exact, as the
// per-record float additions are) and flushes once per direction.
func (m *MinuteSeries) HandleColumns(cb *trace.ColumnBlock) {
	ts := cb.T
	flags, apps := cb.Flags[:len(ts)], cb.App[:len(ts)]
	for i := 0; i < len(ts); {
		lo := ts[i] / time.Minute * time.Minute
		j := runEnd(ts, i, lo, lo+time.Minute)
		var outs, wire, wireOut int64
		for k := i; k < j; k++ {
			o := int64(flags[k] & 1)
			w := int64(apps[k]) + units.WireOverhead
			outs += o
			wire += w
			wireOut += w & -o
		}
		if ins := int64(j-i) - outs; ins > 0 {
			m.BitsIn.Add(lo, float64((wire-wireOut)*8))
			m.PktsIn.Add(lo, float64(ins))
		}
		if outs > 0 {
			m.BitsOut.Add(lo, float64(wireOut*8))
			m.PktsOut.Add(lo, float64(outs))
		}
		i = j
	}
}

// PadTo extends all four series through t.
func (m *MinuteSeries) PadTo(t time.Duration) {
	m.BitsIn.PadTo(t)
	m.BitsOut.PadTo(t)
	m.PktsIn.PadTo(t)
	m.PktsOut.PadTo(t)
}

// KbsIn returns the per-minute inbound bandwidth in kbs (Fig 4a).
func (m *MinuteSeries) KbsIn() []float64 { return scale(m.BitsIn.Rates(), 1e-3) }

// KbsOut returns the per-minute outbound bandwidth in kbs (Fig 4b).
func (m *MinuteSeries) KbsOut() []float64 { return scale(m.BitsOut.Rates(), 1e-3) }

// KbsTotal returns the per-minute total bandwidth in kbs (Fig 1).
func (m *MinuteSeries) KbsTotal() []float64 {
	return sum2(m.KbsIn(), m.KbsOut())
}

// PPSIn returns per-minute inbound packet rates (Fig 4c).
func (m *MinuteSeries) PPSIn() []float64 { return m.PktsIn.Rates() }

// PPSOut returns per-minute outbound packet rates (Fig 4d).
func (m *MinuteSeries) PPSOut() []float64 { return m.PktsOut.Rates() }

// PPSTotal returns per-minute total packet rates (Fig 2).
func (m *MinuteSeries) PPSTotal() []float64 { return sum2(m.PPSIn(), m.PPSOut()) }

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

func sum2(a, b []float64) []float64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]float64, n)
	for i := range out {
		if i < len(a) {
			out[i] += a[i]
		}
		if i < len(b) {
			out[i] += b[i]
		}
	}
	return out
}

// IntervalWindow collects the first N bins of the packet-load process at a
// chosen interval size — the paper's Figs 6-10 ("the first 200 intervals").
//
// A window covers only the head of the trace (2 s for the 10 ms figure),
// but the naive sweep still pays a 64-bit division per record for the whole
// trace. Once the stream has moved safely past the window's end — "safely"
// meaning beyond any bounded disorder a generator or merge can produce —
// the collector latches done and whole blocks skip with two comparisons.
type IntervalWindow struct {
	interval              time.Duration
	n                     int
	total, inBins, outBin []float64
	end                   time.Duration // interval * n
	done                  bool
}

// windowDoneSlack is how far past the window's end the stream must have
// moved before blocks are skipped wholesale. Generated, stored and merged
// streams are time-ordered and a raw live capture is disordered by a few
// server ticks at most; 10 s is beyond anything the pipeline produces.
const windowDoneSlack = 10 * time.Second

// NewIntervalWindow creates a window of n bins of the given width.
func NewIntervalWindow(interval time.Duration, n int) *IntervalWindow {
	return &IntervalWindow{
		interval: interval,
		n:        n,
		total:    make([]float64, n),
		inBins:   make([]float64, n),
		outBin:   make([]float64, n),
		end:      interval * time.Duration(n),
	}
}

// Handle implements trace.Handler: one record is a one-record batch.
func (w *IntervalWindow) Handle(r trace.Record) { w.HandleBatch([]trace.Record{r}) }

// HandleBatch implements trace.BatchHandler.
func (w *IntervalWindow) HandleBatch(rs []trace.Record) { viaColumns(rs, w.HandleColumns) }

// HandleColumns sweeps a column block. Consecutive records usually share a
// bin (always, for the second-scale windows), so each run of one bin costs
// a bounds comparison per record and one addition per bin; the records past
// the window's end make one run however many bins they span.
func (w *IntervalWindow) HandleColumns(cb *trace.ColumnBlock) {
	ts := cb.T
	if w.done || len(ts) == 0 {
		return
	}
	if ts[0] >= w.end+windowDoneSlack {
		// Streams are time-ordered up to bounded disorder, so once a
		// block starts this far past the window nothing can land in it.
		w.done = true
		return
	}
	flags := cb.Flags[:len(ts)]
	for i := 0; i < len(ts); {
		b := int(ts[i] / w.interval)
		lo := time.Duration(b) * w.interval
		hi := lo + w.interval
		if b >= w.n {
			lo, hi = w.end, math.MaxInt64
		}
		j := runEnd(ts, i, lo, hi)
		if b >= 0 && b < w.n {
			var outs int
			for _, f := range flags[i:j] {
				outs += int(f & 1)
			}
			w.total[b] += float64(j - i)
			w.inBins[b] += float64(j - i - outs)
			w.outBin[b] += float64(outs)
		}
		i = j
	}
}

// Interval returns the bin width.
func (w *IntervalWindow) Interval() time.Duration { return w.interval }

// TotalPPS returns the per-bin total packet rate.
func (w *IntervalWindow) TotalPPS() []float64 { return scale(w.total, 1/w.interval.Seconds()) }

// InPPS returns the per-bin inbound packet rate.
func (w *IntervalWindow) InPPS() []float64 { return scale(w.inBins, 1/w.interval.Seconds()) }

// OutPPS returns the per-bin outbound packet rate.
func (w *IntervalWindow) OutPPS() []float64 { return scale(w.outBin, 1/w.interval.Seconds()) }
