package analysis

import (
	"sync"
	"time"

	"cstrace/internal/trace"
)

// clockBin sums one run of consecutive records in one bin: the only input
// of the time-binned collectors. Its sums are integers, so adding a bin
// once is bit-identical to adding each record, even in float64.
type clockBin struct {
	idx, n, out, app, appOut int64         // T/width; records, outbound, their app bytes
	last                     time.Duration // highest T
}

// clockPool holds the run finder's fixed scratch: a v4 chunk is tens of
// thousands of records, so its summaries go out 256 at a time.
var clockPool = sync.Pool{New: func() any { return new([256]clockBin) }}

// sweepClock walks cb once at the given bin width and hands the summaries
// of its runs to body in stream order. Timestamps are never negative.
func sweepClock(cb *trace.ColumnBlock, width time.Duration, body func([]clockBin)) {
	bins, k := clockPool.Get().(*[256]clockBin), 0
	for i := 0; i < len(cb.T); k++ {
		if k == len(bins) {
			body(bins[:])
			k = 0
		}
		idx := cb.T[i] / width
		j, outs, app, appOut, last := sumRun(cb, i, idx*width, width)
		bins[k] = clockBin{int64(idx), int64(j - i), outs, app, appOut, last}
		i = j
	}
	if k > 0 {
		body(bins[:k])
	}
	clockPool.Put(bins)
}

// sumRun sums the run of records in [lo, lo+width) that starts at record
// i. A function of its own, so that the sums keep their registers.
func sumRun(cb *trace.ColumnBlock, i int, lo, width time.Duration) (j int, outs, app, appOut int64, last time.Duration) {
	ts := cb.T
	flags, apps := cb.Flags[:len(ts)], cb.App[:len(ts)]
	for j, last = i, ts[i]; j < len(ts) && uint64(ts[j]-lo) < uint64(width); j++ {
		o, a := int64(flags[j]&1), int64(apps[j])
		outs, app, appOut, last = outs+o, app+a, appOut+a&-o, max(last, ts[j])
	}
	return
}

// sweepClock is the suite's clock unit: one run-finder pass at VarTimeBase
// feeds all five time-binned collectors. The windows latch done at the
// block's start, and the minute series closes its run at the block's end,
// as each does sweeping a block alone.
func (s *Suite) sweepClock(cb *trace.ColumnBlock) {
	for _, w := range s.Windows {
		w.latch(cb.T)
	}
	sweepClock(cb, s.cfg.VarTimeBase, func(bins []clockBin) {
		s.Count.addBins(bins)
		s.Minutes.addBins(bins, s.cfg.VarTimeBase)
		s.VT.addBins(bins)
		for _, w := range s.Windows {
			w.addBins(bins, s.cfg.VarTimeBase)
		}
		s.Tick.addBins(bins)
	})
	s.Minutes.flushRun()
}
