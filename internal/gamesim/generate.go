package gamesim

import (
	"slices"
	"sort"

	"cstrace/internal/dist"
	"cstrace/internal/trace"
)

// The batch-native traffic plane. The control plane (arrivals, departures,
// map rotation, rounds) runs on the simulation kernel; the per-tick traffic —
// the half a billion records of a full week — is made one tick window at a
// time, in two stages on the same goroutine:
//
//	plan  — the simulation walks every player's schedule across the tick
//	        window once, appending a skeleton record (time, direction, kind,
//	        client; payload size where it is already determined) per packet.
//	        Jitter draws come from each session's own stream, so planning is
//	        identical however a schedule is advanced.
//	fill  — the skeleton is sorted into strict time order and the open
//	        payload sizes (snapshots, client commands) are sampled in record
//	        order from the window's own RNG stream, keyed by tick index from
//	        a dist.Splitter. Stream i depends only on (seed, i), so a window
//	        samples the same sizes whatever was or was not recorded before it;
//	        the simulation keeps one generator and re-keys it per window.
//
// Because every window is sorted before delivery and window time ranges
// never overlap, the emitted stream is strictly time-ordered — downstream
// consumers need no SortBuffer. The fill stage is deliberately not handed to
// worker goroutines: a window is ≈ 48 records, and the channel hops that
// carry one to a worker and back in order cost more than sorting and filling
// it (measured: 60 against 37.5 CPU ns/rec; ROADMAP 2a).

// Size-fill tags. tagFixed records carry their final payload size already;
// the rest are sampled by fillSizes.
const (
	tagFixed     = iota
	tagCmd       // client command: InPayload sample
	tagSnap      // ordinary snapshot: SnapBase + SnapPerPlayer·players·act
	tagSnapElite // high-rate client snapshot: 0.6× the ordinary mean
)

// tickPlan is one emission window on its way from the control plane through
// the fill stage. The simulation owns one and reuses it for every window.
type tickPlan struct {
	n    int // active players when the window was planned
	act  float64
	recs trace.Block
	tags []uint8

	// sort scratch, reused across windows
	keys       []uint64
	sorted     trace.Block
	sortedTags []uint8
}

// reset empties the plan for the next window, keeping its buffers.
func (p *tickPlan) reset() {
	p.recs = p.recs[:0]
	p.tags = p.tags[:0]
}

// append adds one skeleton record.
func (p *tickPlan) append(r trace.Record, tag uint8) {
	p.recs = append(p.recs, r)
	p.tags = append(p.tags, tag)
}

// Packed sort keys are (T−minT)<<keyIdxBits | index; at or below
// insertionMax of them a plain insertion sort beats slices.Sort's dispatch.
const (
	keyIdxBits   = 24
	insertionMax = 64
)

// sortPlan stable-sorts the window's records into time order (ties keep
// emission order). A window is planned handshakes first, then the snapshot
// burst, then every player's commands — so it arrives as one already-ordered
// run (about half the window on a busy server) followed by an unordered tail.
// sortPlan finds that run in the pass that looks for disorder; the part of it
// at or before the tail's earliest record is already where it belongs and is
// not touched again. The rest — the tail and the few records of the run it
// reaches back among — is sorted by packing (T−minT, index) into native uint64
// keys (no comparison closure, ties to the lower index) and gathered through
// the permutation. A window with no ordered head sorts everything, a fully
// ordered one nothing; pathological windows (≥2^24 records, or ≥ ~18 min
// across the sorted part) take sortPlanWide.
func sortPlan(p *tickPlan) {
	recs, tags := p.recs, p.tags
	n := len(recs)
	run := 1
	for run < n && recs[run-1].T <= recs[run].T {
		run++
	}
	if run >= n {
		return
	}
	minT, maxT := recs[run].T, recs[run-1].T
	for _, r := range recs[run:] {
		if r.T < minT {
			minT = r.T
		}
		if r.T > maxT {
			maxT = r.T
		}
	}
	lo := run // recs[:lo] stays: in order, and nothing after it is earlier
	for lo > 0 && recs[lo-1].T > minT {
		lo--
	}
	if n >= 1<<keyIdxBits || uint64(maxT-minT) >= 1<<(64-keyIdxBits) {
		sortPlanWide(p)
		return
	}
	keys := p.keys[:0]
	for i := lo; i < n; i++ {
		keys = append(keys, uint64(recs[i].T-minT)<<keyIdxBits|uint64(i))
	}
	if len(keys) <= insertionMax {
		for i := run - lo; i < len(keys); i++ { // the run's share is in order
			k, j := keys[i], i
			for ; j > 0 && keys[j-1] > k; j-- {
				keys[j] = keys[j-1]
			}
			keys[j] = k
		}
	} else {
		slices.Sort(keys)
	}
	outR := slices.Grow(p.sorted[:0], len(keys))[:len(keys)]
	outT := slices.Grow(p.sortedTags[:0], len(keys))[:len(keys)]
	for i, k := range keys {
		j := k & (1<<keyIdxBits - 1)
		outR[i], outT[i] = recs[j], tags[j]
	}
	copy(recs[lo:], outR)
	copy(tags[lo:], outT)
	p.keys, p.sorted, p.sortedTags = keys, outR, outT
}

// sortPlanWide is the comparison sort behind sortPlan for windows the packed
// keys cannot describe.
func sortPlanWide(p *tickPlan) {
	n := len(p.recs)
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
// window's RNG stream and adds the window's traffic to st (the fill stage is
// the first point where every payload size is known). The snapshot mean is a
// per-window constant, so it is hoisted out of the loop; command sizes
// remain one sampler call each (the truncated normal consumes a variable
// number of draws, which is exactly why each window owns a whole stream).
func fillSizes(cfg *Config, p *tickPlan, rng *dist.RNG, st *Stats) {
	muOrd := cfg.SnapBase + cfg.SnapPerPlayer*float64(p.n)*p.act
	muElite := muOrd * 0.6
	sigma := cfg.SnapSigma
	lo, hi := float64(cfg.SnapMin), float64(cfg.SnapMax)
	var pIn, pOut, bIn, bOut int64
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
			pIn++
			bIn += int64(r.App)
		} else {
			pOut++
			bOut += int64(r.App)
		}
	}
	st.PacketsIn += pIn
	st.PacketsOut += pOut
	st.AppBytesIn += bIn
	st.AppBytesOut += bOut
}
