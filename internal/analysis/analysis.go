// Package analysis implements the paper's trace characterization as a
// library of streaming collectors: usage counters (Tables II-III),
// per-minute bandwidth/packet-load/player series (Figs 1-4), the
// multi-scale variance-time analysis (Figs 5-10), the per-session bandwidth
// histogram (Fig 11) and packet-size distributions (Figs 12-13). All run in
// one bounded-memory pass, so a half-billion-packet reproduction streams
// straight from the generator without materializing a trace.
//
// Suite bundles every collector behind one trace.BatchHandler. Each
// collector has one sweep body over a trace.ColumnBlock: a record batch is
// transposed once (ColumnBlock.AppendFrom), and a v4 trace's decoded
// columns arrive as they are. The five time-binned collectors (Counters,
// MinuteSeries, VarTime, IntervalWindow, Periodicity) sweep one run
// finder's bin summaries; in a Suite one pass at VarTimeBase feeds all five
// as the clock unit. Shard deals the suite's five units (sizes, flows,
// gaps, kinds, clock) once to worker goroutines fed by refcounted block
// fan-out; results are byte-identical to single-threaded runs because each
// collector sees every record in stream order. Suite.Sink picks the mode
// from a parallelism knob. The suite expects time-ordered records; a source
// that may disorder them puts a trace.SortBuffer in front. See
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

// HandleColumns sweeps a column block. Counters has no bin width of its
// own: at the widest one a block is one run.
func (c *Counters) HandleColumns(cb *trace.ColumnBlock) { sweepClock(cb, math.MaxInt64, c.addBins) }

func (c *Counters) addBins(bins []clockBin) {
	for _, b := range bins {
		c.PacketsIn, c.PacketsOut = c.PacketsIn+b.n-b.out, c.PacketsOut+b.out
		c.AppBytesIn, c.AppBytesOut = c.AppBytesIn+b.app-b.appOut, c.AppBytesOut+b.appOut
		c.End = max(c.End, b.last)
	}
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
	run             clockBin // addBins' open run; idx counts minutes
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

// HandleColumns sweeps a column block at a one-minute width.
func (m *MinuteSeries) HandleColumns(cb *trace.ColumnBlock) {
	sweepClock(cb, time.Minute, func(bins []clockBin) { m.addBins(bins, time.Minute) })
	m.flushRun()
}

// addBins merges consecutive bins of one minute into a run, which adds to
// the series once per direction when the next minute opens or flushRun
// ends the block. The bins' width divides a minute.
func (m *MinuteSeries) addBins(bins []clockBin, width time.Duration) {
	k, r := int64(time.Minute/width), m.run
	for _, b := range bins {
		if b.idx < r.idx*k || b.idx >= r.idx*k+k {
			m.run = r
			m.flushRun()
			r = clockBin{idx: b.idx / k}
		}
		r.n, r.out, r.app, r.appOut = r.n+b.n, r.out+b.out, r.app+b.app, r.appOut+b.appOut
	}
	m.run = r
}

func (m *MinuteSeries) flushRun() {
	r, lo := m.run, time.Duration(m.run.idx)*time.Minute
	if ins := r.n - r.out; ins > 0 {
		m.BitsIn.Add(lo, float64((r.app-r.appOut+ins*units.WireOverhead)*8))
		m.PktsIn.Add(lo, float64(ins))
	}
	if r.out > 0 {
		m.BitsOut.Add(lo, float64((r.appOut+r.out*units.WireOverhead)*8))
		m.PktsOut.Add(lo, float64(r.out))
	}
	m.run = clockBin{}
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
	if len(a) < len(b) {
		a, b = b, a
	}
	out := append(make([]float64, 0, len(a)), a...)
	for i, x := range b {
		out[i] += x
	}
	return out
}

// IntervalWindow collects the first N bins of the packet-load process at a
// chosen interval size — the paper's Figs 6-10 ("the first 200 intervals").
//
// A window covers only the head of the trace (2 s for the 10 ms figure).
// Once the stream has moved safely past the window's end — "safely"
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

// HandleColumns sweeps a column block at the window's own width.
func (w *IntervalWindow) HandleColumns(cb *trace.ColumnBlock) {
	if w.latch(cb.T); !w.done {
		sweepClock(cb, w.interval, func(bins []clockBin) { w.addBins(bins, w.interval) })
	}
}

// latch marks the window done once a block starts too far past its end
// for anything to land in it.
func (w *IntervalWindow) latch(ts []time.Duration) {
	w.done = w.done || len(ts) > 0 && ts[0] >= w.end+windowDoneSlack
}

// addBins adds the bins' packets to the window bins that cover them; the
// bins' width divides the window's interval. Consecutive bins usually share
// a window bin, so their packets add up in integers and reach it once.
func (w *IntervalWindow) addBins(bins []clockBin, width time.Duration) {
	if w.done {
		return
	}
	k := int64(w.interval / width)
	var wb, lo, hi, n, outs int64 // the open window bin, its bins [lo, hi), its packets
	for _, b := range bins {
		if b.idx < lo || b.idx >= hi {
			w.add(wb, n, outs)
			wb, lo, hi, n, outs = b.idx/k, b.idx/k*k, b.idx/k*k+k, 0, 0
		}
		n, outs = n+b.n, outs+b.out
	}
	w.add(wb, n, outs)
}

func (w *IntervalWindow) add(wb, n, outs int64) {
	if n > 0 && wb < int64(w.n) {
		w.total[wb] += float64(n)
		w.inBins[wb] += float64(n - outs)
		w.outBin[wb] += float64(outs)
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
