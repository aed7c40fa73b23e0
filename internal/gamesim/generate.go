package gamesim

import (
	"math/bits"
	"slices"
	"sort"
	"time"

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
// it (measured: 60 against 37.5 CPU ns/rec; ROADMAP's "Parked" paragraph on
// a parallel fill names what one would have to beat).

// eliteMark is the App an elite snapshot carries from the plan stage to the
// fill, which overwrites it: fillSizes reads every size rule off the record
// (Kind, Dir, App) instead of a side array.
const eliteMark = 1

// tickPlan is one emission window on its way from the control plane through
// the fill stage. The simulation owns one and reuses it for every window.
type tickPlan struct {
	n    int // active players when the window was planned
	act  float64
	recs trace.Block

	// sort scratch, reused across windows
	keys   []uint64
	sorted trace.Block
}

// reset empties the plan for the next window, keeping its buffers.
func (p *tickPlan) reset() { p.recs = p.recs[:0] }

// append adds one skeleton record, written field by field into a zeroed
// slot. A Record literal (five fields, one more than the compiler keeps in
// registers) would be built on the stack and copied out; writing in place
// took ≈ 15 % off BenchmarkPlan.
func (p *tickPlan) append(t time.Duration, dir trace.Direction, kind trace.Kind, client uint32, app uint16) {
	p.recs = append(p.recs, trace.Record{})
	r := &p.recs[len(p.recs)-1]
	r.T, r.Dir, r.Kind, r.Client, r.App = t, dir, kind, client, app
}

// At or below bucketMax records to sort, bucketSort moves them directly;
// above it they are sorted as packed keys, (T−minT)<<keyIdxBits | index.
const (
	keyIdxBits = 24
	bucketMax  = 64 // bucketSort's uint8 counts hold up to 255
)

// sortPlan stable-sorts the window's records into time order (ties keep
// emission order). A window is planned handshakes first, then the snapshot
// burst, then every player's commands — so it arrives as one already-ordered
// run (about half the window on a busy server) followed by an unordered tail.
// sortPlan finds that run in the pass that looks for disorder; the part of it
// at or before the tail's earliest record is already where it belongs and is
// not touched again. The rest — the tail and the few records of the run it
// reaches back among, ≈ 20 on a busy server — goes through bucketSort; a
// longer rest is sorted by packing (T−minT, index) into native uint64 keys (no
// comparison closure, ties to the lower index) and gathered through the
// permutation. A window with no ordered head sorts everything, a fully
// ordered one nothing; pathological windows (≥2^24 records, or ≥ ~18 min
// across the sorted part) take sortPlanWide.
func sortPlan(p *tickPlan) {
	recs := p.recs
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
	m := n - lo
	outR := slices.Grow(p.sorted[:0], m)[:m]
	if m <= bucketMax {
		bucketSort(recs[lo:], outR, minT, uint64(maxT-minT))
	} else {
		keys := slices.Grow(p.keys[:0], m)[:m]
		for i := range keys {
			keys[i] = uint64(recs[lo+i].T-minT)<<keyIdxBits | uint64(lo+i)
		}
		slices.Sort(keys)
		for i, k := range keys {
			outR[i] = recs[k&(1<<keyIdxBits-1)]
		}
		p.keys = keys
	}
	copy(recs[lo:], outR)
	p.sorted = outR
}

// bucketSort stable-sorts rs — at most bucketMax records, their times
// running from minT over span — into out: a counting sort on the top five
// bits of T−minT, then one insertion pass, which finds disorder only inside a
// bucket. Both keep ties in emission order: the scatter walks rs in order, and
// the pass moves a record only past strictly later ones. The prefix sum
// carries its running total in a register: cnt[b] += cnt[b-1] would chain
// every bucket's store to the next one's load.
func bucketSort(rs, out trace.Block, minT time.Duration, span uint64) {
	shift := uint(max(bits.Len64(span), 5)-5) & 63 // the mask spares each shift a range check
	var cnt [32]uint8
	for _, r := range rs {
		cnt[uint64(r.T-minT)>>shift&31]++
	}
	var sum uint8
	for b, c := range cnt {
		cnt[b], sum = sum, sum+c
	}
	for _, r := range rs {
		b := uint64(r.T-minT) >> shift & 31
		out[cnt[b]] = r
		cnt[b]++
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].T > out[j].T; j-- { // most records stop at the first test
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
}

// sortPlanWide is the comparison sort behind sortPlan for windows the packed
// keys cannot describe.
func sortPlanWide(p *tickPlan) {
	sort.SliceStable(p.recs, func(a, b int) bool { return p.recs[a].T < p.recs[b].T })
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
		switch {
		case r.Kind != trace.KindGame: // handshakes and logo packets are sized
		case r.Dir == trace.In:
			r.App = uint16(cfg.InPayload.Sample(rng))
		default:
			mu := muOrd
			if r.App == eliteMark {
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
