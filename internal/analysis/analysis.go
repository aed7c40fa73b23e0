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
// Suite bundles every collector behind one trace.Handler/BatchHandler;
// the batch path sweeps whole trace.Blocks through each collector in
// tight loops. Shard splits the suite's collectors into independent
// groups on worker goroutines fed by refcounted block fan-out — results
// are byte-identical to single-threaded runs because every collector
// still sees every record in stream order. Suite.Sink picks the mode
// from a parallelism knob. Order-sensitive collectors (Interarrival,
// Periodicity) sit behind an internal trace.SortBuffer; Observe feeds
// session lifecycle events to the player series independently of the
// record stream. See docs/ARCHITECTURE.md for the data-flow picture.
package analysis

import (
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

// Handle implements trace.Handler.
func (c *Counters) Handle(r trace.Record) {
	if r.Dir == trace.In {
		c.PacketsIn++
		c.AppBytesIn += int64(r.App)
	} else {
		c.PacketsOut++
		c.AppBytesOut += int64(r.App)
	}
	if r.T > c.End {
		c.End = r.T
	}
}

// HandleBatch implements trace.BatchHandler: the block accumulates into
// locals, with one write-back per block.
func (c *Counters) HandleBatch(rs []trace.Record) {
	var pIn, pOut, bIn, bOut int64
	end := c.End
	for _, r := range rs {
		if r.Dir == trace.In {
			pIn++
			bIn += int64(r.App)
		} else {
			pOut++
			bOut += int64(r.App)
		}
		if r.T > end {
			end = r.T
		}
	}
	c.PacketsIn += pIn
	c.PacketsOut += pOut
	c.AppBytesIn += bIn
	c.AppBytesOut += bOut
	c.End = end
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

// Handle implements trace.Handler.
func (s *SizeDist) Handle(r trace.Record) {
	if r.Dir == trace.In {
		s.In.Add(int(r.App))
	} else {
		s.Out.Add(int(r.App))
	}
}

// HandleBatch implements trace.BatchHandler.
func (s *SizeDist) HandleBatch(rs []trace.Record) {
	in, out := s.In, s.Out
	for _, r := range rs {
		if r.Dir == trace.In {
			in.Add(int(r.App))
		} else {
			out.Add(int(r.App))
		}
	}
}

// HandleColumns is the column-aware sweep: the collector consumes only the
// direction bit and the app size, so a column-decoded block (v4) is swept
// over two dense arrays instead of striding through 24-byte Records. Counts
// are identical to HandleBatch over the interleaved records.
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

// Handle implements trace.Handler.
func (m *MinuteSeries) Handle(r trace.Record) {
	bits := float64(r.Wire() * 8)
	if r.Dir == trace.In {
		m.BitsIn.Add(r.T, bits)
		m.PktsIn.Add(r.T, 1)
	} else {
		m.BitsOut.Add(r.T, bits)
		m.PktsOut.Add(r.T, 1)
	}
}

// HandleBatch implements trace.BatchHandler. A block spans a handful of
// ticks at most, so nearly every record lands in the same minute: per-minute
// runs accumulate into locals and flush once per direction per run.
func (m *MinuteSeries) HandleBatch(rs []trace.Record) {
	var runT time.Duration = -1
	var bitsIn, bitsOut, pktsIn, pktsOut float64
	flush := func(t time.Duration) {
		if pktsIn > 0 {
			m.BitsIn.Add(t, bitsIn)
			m.PktsIn.Add(t, pktsIn)
			bitsIn, pktsIn = 0, 0
		}
		if pktsOut > 0 {
			m.BitsOut.Add(t, bitsOut)
			m.PktsOut.Add(t, pktsOut)
			bitsOut, pktsOut = 0, 0
		}
	}
	for _, r := range rs {
		min := r.T / time.Minute
		if min != runT {
			if runT >= 0 {
				flush(runT * time.Minute)
			}
			runT = min
		}
		bits := float64(r.Wire() * 8)
		if r.Dir == trace.In {
			bitsIn += bits
			pktsIn++
		} else {
			bitsOut += bits
			pktsOut++
		}
	}
	if runT >= 0 {
		flush(runT * time.Minute)
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

// Handle implements trace.Handler.
func (w *IntervalWindow) Handle(r trace.Record) {
	if w.done || r.T >= w.end {
		if !w.done && r.T >= w.end+windowDoneSlack {
			w.done = true
		}
		return
	}
	i := int(r.T / w.interval)
	if i < 0 {
		return
	}
	w.total[i]++
	if r.Dir == trace.In {
		w.inBins[i]++
	} else {
		w.outBin[i]++
	}
}

// HandleBatch implements trace.BatchHandler.
func (w *IntervalWindow) HandleBatch(rs []trace.Record) {
	if w.done {
		return
	}
	if len(rs) > 0 && rs[0].T >= w.end+windowDoneSlack {
		// Streams are time-ordered up to bounded disorder, so once a
		// block starts this far past the window nothing can land in it.
		w.done = true
		return
	}
	total, in, out := w.total, w.inBins, w.outBin
	interval, n := w.interval, w.n
	// Bin cache: consecutive records usually share a bin (always, for the
	// second-scale windows), so a bounds comparison replaces the division.
	cached := -1
	var lo, hi time.Duration
	for _, r := range rs {
		i := cached
		if i < 0 || r.T < lo || r.T >= hi {
			i = int(r.T / interval)
			cached = i
			lo = time.Duration(i) * interval
			hi = lo + interval
		}
		if i < 0 || i >= n {
			continue
		}
		total[i]++
		if r.Dir == trace.In {
			in[i]++
		} else {
			out[i]++
		}
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
