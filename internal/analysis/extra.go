package analysis

import (
	"math"
	"math/bits"
	"sort"
	"time"

	"cstrace/internal/trace"
	"cstrace/internal/units"
)

// Interarrival collects per-direction packet interarrival times. The paper
// reads burstiness off binned plots (Figs 6-7); the interarrival view makes
// the same structure quantitative — outbound times split between ~0 (within
// a broadcast burst) and the 50 ms tick, while inbound times look like a
// smooth superposition of independent client streams — and it is what
// source models (Borella) consume.
type Interarrival struct {
	last [2]time.Duration
	seen [2]bool
	// Plain power sums instead of a Welford accumulator: the mean and CV
	// the report needs come out of Σx and Σx², two fused multiply-adds per
	// record where Welford's recurrence costs a divide. Gaps are seconds in
	// [1e-9, 1e3], so the sums hold comfortable precision at half a billion
	// samples.
	n          [2]int64
	sum, sumSq [2]float64
	hist       [2][]int64 // log₂-spaced microsecond buckets
	total      [2]int64
}

// interarrivalBuckets is the number of log₂ microsecond buckets: bucket i
// holds gaps in [2^i, 2^(i+1)) µs, bucket 0 holds sub-microsecond gaps, the
// last bucket is open-ended (≥ ~134 s).
const interarrivalBuckets = 28

// NewInterarrival creates the collector.
func NewInterarrival() *Interarrival {
	ia := &Interarrival{}
	ia.hist[trace.In] = make([]int64, interarrivalBuckets)
	ia.hist[trace.Out] = make([]int64, interarrivalBuckets)
	return ia
}

// HandleBatch implements trace.BatchHandler.
func (ia *Interarrival) HandleBatch(rs []trace.Record) { viaColumns(rs, ia.HandleColumns) }

// HandleColumns sweeps a column block's flags and timestamps: the
// per-direction cursors and log₂ histogram accumulate in locals across the
// block, with one write-back per block. (The floating-point power sums
// accumulate per record, in stream order: float addition is
// order-sensitive, and results must be identical whatever the batch
// boundaries.)
func (ia *Interarrival) HandleColumns(cb *trace.ColumnBlock) {
	last, seen := ia.last, ia.seen
	var hist [2][interarrivalBuckets]int64
	var total [2]int64
	ts := cb.T
	for i, f := range cb.Flags {
		d := trace.Direction(f & 1)
		t := ts[i]
		if seen[d] {
			gap := t - last[d]
			if gap >= 0 {
				// Exactly gap.Seconds() for a sub-second gap, without
				// its integer division.
				g := float64(gap) / 1e9
				if gap >= time.Second {
					g = gap.Seconds()
				}
				ia.sum[d] += g
				ia.sumSq[d] += g * g
				hist[d][iaBucket(gap)]++
				total[d]++
			}
		}
		seen[d] = true
		last[d] = t
	}
	ia.last, ia.seen = last, seen
	for d := 0; d < 2; d++ {
		if total[d] == 0 {
			continue
		}
		ia.n[d] += total[d]
		ia.total[d] += total[d]
		dst := ia.hist[d]
		for b, c := range hist[d] {
			dst[b] += c
		}
	}
}

func iaBucket(gap time.Duration) int {
	us := gap.Microseconds()
	if us <= 0 {
		return 0
	}
	b := 64 - bits.LeadingZeros64(uint64(us))
	if b >= interarrivalBuckets {
		return interarrivalBuckets - 1
	}
	return b
}

// Mean returns the mean interarrival time in seconds for the direction.
func (ia *Interarrival) Mean(d trace.Direction) float64 {
	if ia.n[d] == 0 {
		return 0
	}
	return ia.sum[d] / float64(ia.n[d])
}

// CV returns the coefficient of variation (σ/mean) — the burstiness scalar:
// ≈1 for Poisson, ≫1 for the server's burst-then-silence pattern.
func (ia *Interarrival) CV(d trace.Direction) float64 {
	m := ia.Mean(d)
	if m == 0 {
		return 0
	}
	v := ia.sumSq[d]/float64(ia.n[d]) - m*m
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v) / m
}

// Quantile returns an approximate q-quantile (0<q<1) of the interarrival
// distribution from the log-spaced histogram (upper edge of the containing
// bucket).
func (ia *Interarrival) Quantile(d trace.Direction, q float64) time.Duration {
	if ia.total[d] == 0 {
		return 0
	}
	target := int64(q * float64(ia.total[d]))
	var cum int64
	for i, c := range ia.hist[d] {
		cum += c
		if cum > target {
			return time.Duration(1<<uint(i+1)) * time.Microsecond
		}
	}
	return time.Duration(1<<interarrivalBuckets) * time.Microsecond
}

// Histogram returns (bucket upper edge, count) pairs for plotting.
func (ia *Interarrival) Histogram(d trace.Direction) ([]time.Duration, []int64) {
	edges := make([]time.Duration, interarrivalBuckets)
	counts := make([]int64, interarrivalBuckets)
	for i := range edges {
		edges[i] = time.Duration(1<<uint(i+1)) * time.Microsecond
		counts[i] = ia.hist[d][i]
	}
	return edges, counts
}

// KindRow is one class of traffic in the composition table.
type KindRow struct {
	Kind      trace.Kind
	Packets   int64
	AppBytes  int64
	WireBytes int64
}

// KindBreakdown tallies traffic by application message class (§II's
// inventory of traffic sources: game state, handshakes, text, voice,
// logo/map downloads).
type KindBreakdown struct {
	rows [8]KindRow // indexed by the three kind bits the format stores
}

// NewKindBreakdown creates the collector.
func NewKindBreakdown() *KindBreakdown {
	k := &KindBreakdown{}
	for kind := range k.rows {
		k.rows[kind].Kind = trace.Kind(kind)
	}
	return k
}

// HandleBatch implements trace.BatchHandler.
func (k *KindBreakdown) HandleBatch(rs []trace.Record) { viaColumns(rs, k.HandleColumns) }

// HandleColumns sweeps a column block: per-kind tallies accumulate in a
// block-local array indexed by the flags byte's three kind bits — the
// format stores no more, so this counts a record as a file would return
// it — and merge into the rows once per block.
func (k *KindBreakdown) HandleColumns(cb *trace.ColumnBlock) {
	var pkts, app [8]int64
	apps := cb.App[:len(cb.Flags)]
	for i, f := range cb.Flags {
		kind := f >> 1 & 7
		pkts[kind]++
		app[kind] += int64(apps[i])
	}
	for kind, n := range pkts {
		row := &k.rows[kind]
		row.Packets += n
		row.AppBytes += app[kind]
		row.WireBytes += app[kind] + n*units.WireOverhead
	}
}

// Rows returns the composition of the kinds seen, sorted by descending
// packet count.
func (k *KindBreakdown) Rows() []KindRow {
	out := make([]KindRow, 0, len(k.rows))
	for _, r := range k.rows {
		if r.Packets > 0 {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Packets != out[j].Packets {
			return out[i].Packets > out[j].Packets
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Share returns the packet share of one kind in [0,1].
func (k *KindBreakdown) Share(kind trace.Kind) float64 {
	var total, mine int64
	for _, r := range k.rows {
		total += r.Packets
		if r.Kind == kind {
			mine = r.Packets
		}
	}
	if total == 0 {
		return 0
	}
	return float64(mine) / float64(total)
}

// Periodicity detects the server tick by autocorrelating the binned packet
// count of one direction — the quantitative counterpart of "the periodicity
// comes from the game server deterministically flooding its clients with
// state updates about every 50ms" (§III-B). Bin the outbound stream at a
// resolution well under the tick (10 ms default elsewhere), then the first
// dominant positive-lag peak of the autocorrelation is the tick.
type Periodicity struct {
	bin     time.Duration
	maxLag  int
	dir     trace.Direction
	current int64     // count in the bin being filled
	binIdx  int64     // index of the bin being filled
	recent  []float64 // a ring of the last bin counts, twice over (closeBin)
	n       int64     // completed bins

	sum, sumSq float64
	lagSum     []float64 // Σ x_t·x_{t−l} for l = 1..maxLag
}

// NewPeriodicity creates a detector for the given direction with the given
// bin width, scanning lags 1..maxLag bins.
func NewPeriodicity(dir trace.Direction, bin time.Duration, maxLag int) *Periodicity {
	if maxLag < 1 {
		maxLag = 1
	}
	return &Periodicity{
		bin:    bin,
		maxLag: maxLag,
		dir:    dir,
		recent: make([]float64, 2<<bits.Len(uint(maxLag-1))),
		lagSum: make([]float64, maxLag+1),
	}
}

// HandleBatch implements trace.BatchHandler.
func (p *Periodicity) HandleBatch(rs []trace.Record) { viaColumns(rs, p.HandleColumns) }

// HandleColumns sweeps a column block at the detector's bin width.
func (p *Periodicity) HandleColumns(cb *trace.ColumnBlock) { sweepClock(cb, p.bin, p.addBins) }

// addBins counts each bin's records of the detector's direction. A bin
// with none leaves the detector be, a later one moves it on, and a late one
// counts into the bin being filled. The bins are at the detector's width.
func (p *Periodicity) addBins(bins []clockBin) {
	for _, b := range bins {
		c := b.out
		if p.dir == trace.In {
			c = b.n - b.out
		}
		for c > 0 && b.idx > p.binIdx {
			p.closeBin()
		}
		p.current += c
	}
}

// closeBin finalizes the currently filling bin and moves to the next. Empty
// bins contribute nothing to the lag products, so the O(maxLag) inner loop
// runs only for occupied bins — on a 10 ms grid under a 50 ms tick, most
// bins are empty and close for the cost of a ring store.
//
// recent holds bin m at m mod size and again size on (size is a power of
// two ≥ maxLag), so the lags read bin n−l at win[maxLag−l] with no modulo.
// Unreached slots hold +0, which leaves the non-negative sums unchanged.
func (p *Periodicity) closeBin() {
	x := float64(p.current)
	p.sum += x
	p.sumSq += x * x
	size := len(p.recent) / 2
	pos := int(p.n) & (size - 1)
	win := p.recent[pos+size-p.maxLag : pos+size]
	if p.current != 0 {
		lag := p.lagSum[1 : len(win)+1]
		for l := range lag {
			lag[l] += x * win[len(win)-1-l]
		}
	}
	p.recent[pos], p.recent[pos+size] = x, x
	p.n++
	p.binIdx++
	p.current = 0
}

// Autocorrelation returns the normalized autocorrelation at lags 1..maxLag.
func (p *Periodicity) Autocorrelation() []float64 {
	n := float64(p.n)
	if n < 2 {
		return nil
	}
	mean := p.sum / n
	variance := p.sumSq/n - mean*mean
	out := make([]float64, p.maxLag)
	if variance <= 0 {
		return out
	}
	for l := 1; l <= p.maxLag; l++ {
		m := n - float64(l)
		if m <= 0 {
			continue
		}
		// E[x_t·x_{t−l}] − mean²; biased estimator, fine for peaks.
		out[l-1] = (p.lagSum[l]/m - mean*mean) / variance
	}
	return out
}

// Tick returns the detected period (the fundamental — every multiple of the
// true period also peaks, so the first lag whose correlation is a local
// maximum near the global one is the tick) and its correlation value.
// It returns zero when no positive peak exists.
func (p *Periodicity) Tick() (time.Duration, float64) {
	ac := p.Autocorrelation()
	bestVal := 0.0
	for _, v := range ac {
		if v > bestVal {
			bestVal = v
		}
	}
	if bestVal <= 0 || math.IsNaN(bestVal) {
		return 0, 0
	}
	for i, v := range ac {
		if v < 0.9*bestVal {
			continue
		}
		left := v
		if i > 0 {
			left = ac[i-1]
		}
		right := v
		if i+1 < len(ac) {
			right = ac[i+1]
		}
		if v >= left && v >= right {
			return time.Duration(i+1) * p.bin, v
		}
	}
	return 0, 0
}

// Flush finalizes the last partially-filled bin. Call once, before reading
// results.
func (p *Periodicity) Flush() {
	if p.current > 0 {
		p.closeBin()
	}
}
