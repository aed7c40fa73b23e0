package analysis

import (
	"time"

	"cstrace/internal/hurst"
	"cstrace/internal/trace"
)

// VarTime streams the total packet-count process, binned at a base interval
// (the paper uses m = 10 ms), into a dyadic variance-time ladder — the
// machinery behind Fig 5 and the Hurst estimates.
//
// The generator and the fleet merge emit strictly time-ordered streams, and
// a live capture reaches the suite through a SortBuffer. VarTime still
// keeps a small ring of open bins, flushed to the ladder once the stream
// has safely moved past, so a stream disordered by less than the ring
// bins exactly.
type VarTime struct {
	base   time.Duration
	ladder *hurst.Dyadic
	ring   []float64
	head   int64 // index of the oldest unflushed bin
	maxIdx int64 // highest bin index seen, −1 before any
}

// ringSlack is how many base bins of reordering the collector tolerates
// (64 × 10 ms = 640 ms, far beyond the one-tick disorder bound). A power of
// two, so a bin's ring slot is a mask of its index.
const ringSlack = 64

// NewVarTime creates the collector. levels is the number of dyadic
// aggregation levels (m up to 2^(levels-1) base bins).
func NewVarTime(base time.Duration, levels int) (*VarTime, error) {
	d, err := hurst.NewDyadic(levels)
	if err != nil {
		return nil, err
	}
	return &VarTime{base: base, ladder: d, ring: make([]float64, ringSlack), maxIdx: -1}, nil
}

// HandleBatch implements trace.BatchHandler.
func (v *VarTime) HandleBatch(rs []trace.Record) { viaColumns(rs, v.HandleColumns) }

// HandleColumns sweeps a column block at the collector's base interval.
func (v *VarTime) HandleColumns(cb *trace.ColumnBlock) { sweepClock(cb, v.base, v.addBins) }

// addBins adds each bin, at the collector's base interval, to the ring.
func (v *VarTime) addBins(bins []clockBin) {
	ring := v.ring[:ringSlack]
	for _, b := range bins {
		// Deep reordering beyond the slack window lands in the oldest
		// open bin rather than being lost.
		idx := max(b.idx, v.head)
		for idx >= v.head+ringSlack {
			v.flushOne()
		}
		ring[idx&(ringSlack-1)] += float64(b.n)
		v.maxIdx = max(v.maxIdx, idx)
	}
}

func (v *VarTime) flushOne() {
	slot := v.head & (ringSlack - 1)
	v.ladder.Add(v.ring[slot])
	v.ring[slot] = 0
	v.head++
}

// Close flushes bins through the end of the trace (pass the nominal trace
// duration so trailing silence is represented as empty bins; zero flushes
// only through the last packet seen).
func (v *VarTime) Close(duration time.Duration) {
	end := v.maxIdx + 1
	if duration > 0 {
		if n := int64(duration / v.base); n > end {
			end = n
		}
	}
	for v.head < end {
		v.flushOne()
	}
}

// Points returns the variance-time points accumulated so far (call Close
// first for exact results).
func (v *VarTime) Points() []hurst.Point { return v.ladder.Points() }

// RegionEstimates fits the Hurst parameter in the paper's three regions:
// below the server tick (m < tick), the plateau between the tick and the map
// rotation period, and beyond the map period.
type RegionEstimates struct {
	SubTick  hurst.Estimate // m < 50 ms: paper sees H < 1/2
	Plateau  hurst.Estimate // 50 ms – 30 min: high remaining variability
	LongTerm hurst.Estimate // > 30 min: H ≈ 1/2
}

// Regions fits the three regions given the tick and map-rotation periods.
func Regions(points []hurst.Point, base, tick, mapPeriod time.Duration) RegionEstimates {
	tickM := int(tick / base)
	mapM := int(mapPeriod / base)
	var out RegionEstimates
	if e, err := hurst.EstimateFromPoints(points, 1, tickM); err == nil {
		out.SubTick = e
	}
	if e, err := hurst.EstimateFromPoints(points, tickM+1, mapM); err == nil {
		out.Plateau = e
	}
	if e, err := hurst.EstimateFromPoints(points, mapM+1, 1<<62); err == nil {
		out.LongTerm = e
	}
	return out
}
