package gamesim

import (
	"slices"
	"sort"
	"sync"

	"cstrace/internal/dist"
	"cstrace/internal/trace"
)

// The batch-native traffic plane. The control plane (arrivals, departures,
// map rotation, rounds) runs sequentially on the simulation kernel, but the
// per-tick traffic — the half a billion records of a full week — splits into
// two stages:
//
//	plan  — the coordinator walks every player's schedule across the tick
//	        window once, appending a skeleton record (time, direction, kind,
//	        client; payload size where it is already determined) per packet.
//	        Jitter draws come from each session's own stream, so planning is
//	        identical however the fill stage runs or a schedule is advanced.
//	fill  — the skeleton is sorted into strict time order and the open
//	        payload sizes (snapshots, client commands) are sampled in record
//	        order from the window's own RNG stream, derived by index from a
//	        dist.Splitter. Stream i depends only on (seed, i), so windows can
//	        fill out of order on worker goroutines and still sample exactly
//	        the values a serial run would.
//
// With Config.Workers ≥ 2 the fill stage runs on workers feeding an
// in-order delivery goroutine; the handler sees the same blocks in the same
// order as a serial run, so reports are byte-identical at every setting.
// Because every window is sorted before delivery and window time ranges
// never overlap, the emitted stream is strictly time-ordered — downstream
// consumers need no SortBuffer.

// Size-fill tags. tagFixed records carry their final payload size already;
// the rest are sampled by fillSizes.
const (
	tagFixed     = iota
	tagCmd       // client command: InPayload sample
	tagSnap      // ordinary snapshot: SnapBase + SnapPerPlayer·players·act
	tagSnapElite // high-rate client snapshot: 0.6× the ordinary mean
)

// tickPlan is one emission window in flight between the control plane and
// the fill stage.
type tickPlan struct {
	seq    uint64 // delivery order (dense over dispatched plans)
	tick   uint64 // window index; selects the size RNG stream
	n      int    // active players when the window was planned
	act    float64
	recs   trace.Block
	tags   []uint8
	totals tickTotals

	// sort scratch, reused across windows
	keys       []uint64
	sorted     trace.Block
	sortedTags []uint8
}

// tickTotals is one window's contribution to the generator statistics,
// tallied by the fill stage (which is the first point where every payload
// size is known).
type tickTotals struct {
	pIn, pOut int64
	bIn, bOut int64
}

func (t *tickTotals) add(o tickTotals) {
	t.pIn += o.pIn
	t.pOut += o.pOut
	t.bIn += o.bIn
	t.bOut += o.bOut
}

var planPool = sync.Pool{New: func() any { return new(tickPlan) }}

func newTickPlan(tick uint64) *tickPlan {
	p := planPool.Get().(*tickPlan)
	p.tick = tick
	p.recs = p.recs[:0]
	p.tags = p.tags[:0]
	p.totals = tickTotals{}
	return p
}

func freeTickPlan(p *tickPlan) {
	if p != nil {
		planPool.Put(p)
	}
}

// append adds one skeleton record.
func (p *tickPlan) append(r trace.Record, tag uint8) {
	p.recs = append(p.recs, r)
	p.tags = append(p.tags, tag)
}

// sortPlan stable-sorts the window's records into time order (ties keep
// emission order). The common case packs (T−minT, index) into native uint64
// keys — no comparison closure — and gathers records and tags through the
// permutation; pathological windows (≥2^24 records or ≥ ~18 min span) fall
// back to an index sort.
func sortPlan(p *tickPlan) {
	n := len(p.recs)
	if n < 2 {
		return
	}
	minT, maxT := p.recs[0].T, p.recs[0].T
	sorted := true
	prev := p.recs[0].T
	for _, r := range p.recs[1:] {
		if r.T < prev {
			sorted = false
		}
		prev = r.T
		if r.T < minT {
			minT = r.T
		}
		if r.T > maxT {
			maxT = r.T
		}
	}
	if sorted {
		return
	}
	const idxBits = 24
	if n < 1<<idxBits && uint64(maxT-minT) < 1<<(64-idxBits) {
		keys := p.keys[:0]
		for i, r := range p.recs {
			keys = append(keys, uint64(r.T-minT)<<idxBits|uint64(i))
		}
		slices.Sort(keys)
		outR := append(p.sorted[:0], make(trace.Block, n)...)[:n]
		outT := append(p.sortedTags[:0], make([]uint8, n)...)[:n]
		for i, k := range keys {
			j := int(k & (1<<idxBits - 1))
			outR[i] = p.recs[j]
			outT[i] = p.tags[j]
		}
		p.keys = keys
		p.recs, p.sorted = outR, p.recs
		p.tags, p.sortedTags = outT, p.tags
		return
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return p.recs[idx[a]].T < p.recs[idx[b]].T })
	outR := make(trace.Block, n)
	outT := make([]uint8, n)
	for i, j := range idx {
		outR[i] = p.recs[j]
		outT[i] = p.tags[j]
	}
	p.recs, p.tags = outR, outT
}

// fillSizes samples the window's open payload sizes in record order from the
// window's RNG stream and tallies its traffic totals. The snapshot mean is a
// per-window constant, so it is hoisted out of the loop; command sizes
// remain one sampler call each (the truncated normal consumes a variable
// number of draws, which is exactly why each window owns a whole stream).
func fillSizes(cfg *Config, p *tickPlan, rng *dist.RNG) tickTotals {
	muOrd := cfg.SnapBase + cfg.SnapPerPlayer*float64(p.n)*p.act
	muElite := muOrd * 0.6
	sigma := cfg.SnapSigma
	lo, hi := float64(cfg.SnapMin), float64(cfg.SnapMax)
	var tt tickTotals
	for i := range p.recs {
		r := &p.recs[i]
		switch p.tags[i] {
		case tagFixed:
		case tagCmd:
			r.App = uint16(cfg.InPayload.Sample(rng))
		default:
			mu := muOrd
			if p.tags[i] == tagSnapElite {
				mu = muElite
			}
			v := mu + sigma*rng.NormFloat64()
			if v < lo {
				v = lo
			}
			if v > hi {
				v = hi
			}
			r.App = uint16(v)
		}
		if r.Dir == trace.In {
			tt.pIn++
			tt.bIn += int64(r.App)
		} else {
			tt.pOut++
			tt.bOut += int64(r.App)
		}
	}
	return tt
}

// genPipeline runs the fill stage on worker goroutines with an in-order
// delivery stage: plans dispatch in window order, fill concurrently, and a
// single delivery goroutine hands each window's block to the handler in the
// original order. In-flight windows are bounded by a token pool so the fill
// stage cannot run arbitrarily ahead of a slow consumer.
type genPipeline struct {
	cfg   *Config
	sizes dist.Splitter
	h     trace.Handler

	jobs     chan *tickPlan
	results  []chan *tickPlan // ring of 1-deep slots, indexed seq mod depth
	free     chan struct{}
	countCh  chan uint64
	totalsCh chan tickTotals
	wg       sync.WaitGroup
	n        uint64 // plans dispatched
}

func newGenPipeline(cfg *Config, sizes dist.Splitter, h trace.Handler, workers int) *genPipeline {
	depth := 2 * workers
	gp := &genPipeline{
		cfg:      cfg,
		sizes:    sizes,
		h:        h,
		jobs:     make(chan *tickPlan, depth),
		results:  make([]chan *tickPlan, depth),
		free:     make(chan struct{}, depth),
		countCh:  make(chan uint64, 1),
		totalsCh: make(chan tickTotals, 1),
	}
	for i := range gp.results {
		gp.results[i] = make(chan *tickPlan, 1)
		gp.free <- struct{}{}
	}
	for w := 0; w < workers; w++ {
		gp.wg.Add(1)
		go gp.work()
	}
	go gp.deliver()
	return gp
}

func (gp *genPipeline) work() {
	defer gp.wg.Done()
	depth := uint64(len(gp.results))
	for p := range gp.jobs {
		sortPlan(p)
		p.totals = fillSizes(gp.cfg, p, gp.sizes.Stream(p.tick))
		gp.results[p.seq%depth] <- p
	}
}

// dispatch hands a non-empty plan to the workers, blocking while the
// pipeline is full.
func (gp *genPipeline) dispatch(p *tickPlan) {
	<-gp.free
	p.seq = gp.n
	gp.n++
	gp.jobs <- p
}

func (gp *genPipeline) deliver() {
	depth := uint64(len(gp.results))
	var tt tickTotals
	seq := uint64(0)
	one := func(p *tickPlan) {
		trace.Dispatch(gp.h, p.recs)
		tt.add(p.totals)
		freeTickPlan(p)
		gp.free <- struct{}{}
	}
	for {
		select {
		case p := <-gp.results[seq%depth]:
			one(p)
			seq++
		case n := <-gp.countCh:
			for ; seq < n; seq++ {
				one(<-gp.results[seq%depth])
			}
			gp.totalsCh <- tt
			return
		}
	}
}

// close drains the pipeline and returns the accumulated traffic totals.
// No further dispatches are allowed.
func (gp *genPipeline) close() tickTotals {
	close(gp.jobs)
	gp.wg.Wait()
	gp.countCh <- gp.n
	return <-gp.totalsCh
}
