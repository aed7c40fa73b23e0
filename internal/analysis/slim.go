package analysis

import (
	"time"

	"cstrace/internal/trace"
)

// SlimSuite is the lightweight per-server collector set for large fleets:
// aggregate counters (Tables II-III) and the per-minute bandwidth and
// packet-load series (Figs 1-2, 4) only. A full Suite per box costs the
// variance-time ladder, four interval windows, per-flow state and the
// order-sensitive collectors for every server; the slim set keeps exactly
// what an operator reads off a per-box dashboard — total load and its
// minute-scale shape — at a small fraction of the sweep cost and a few KB
// of state, so scenario runs can carry per-server collection to hundreds
// of servers.
type SlimSuite struct {
	duration time.Duration
	Count    Counters
	Minutes  *MinuteSeries
	scratch  trace.ColumnBlock // HandleBatch's transposed batch
	closed   bool
}

// NewSlimSuite builds the slim collector set for a trace of the given
// nominal length (used to pad the minute series; zero means "end at the
// last record").
func NewSlimSuite(duration time.Duration) *SlimSuite {
	return &SlimSuite{duration: duration, Minutes: NewMinuteSeries()}
}

// Handle implements trace.Handler: one record is a one-record batch.
func (s *SlimSuite) Handle(r trace.Record) { s.HandleBatch([]trace.Record{r}) }

// HandleBatch implements trace.BatchHandler: the batch is transposed once
// into the suite's scratch columns, and one run-finder pass at a one-minute
// width feeds both collectors.
func (s *SlimSuite) HandleBatch(rs []trace.Record) { s.sweep(refill(&s.scratch, rs)) }

// sweep is the slim suite's one clock pass over a column block.
func (s *SlimSuite) sweep(cb *trace.ColumnBlock) {
	sweepClock(cb, time.Minute, func(bins []clockBin) {
		s.Count.addBins(bins)
		s.Minutes.addBins(bins, time.Minute)
	})
	s.Minutes.flushRun()
}

// Close finalizes the series. Call once after the last record.
func (s *SlimSuite) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.Minutes.PadTo(s.duration)
}

// TableII computes the paper's network-usage table over the configured
// duration.
func (s *SlimSuite) TableII() TableII { return s.Count.TableII(s.duration) }

var (
	_ trace.Handler      = (*SlimSuite)(nil)
	_ trace.BatchHandler = (*SlimSuite)(nil)
)
