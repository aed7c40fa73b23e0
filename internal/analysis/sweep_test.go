package analysis

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"cstrace/internal/gamesim"
	"cstrace/internal/trace"
)

// The record-block sweeps the collectors ran before every collector swept
// columns and before the five time-binned ones shared one run finder, kept
// as the reference the column sweeps must match.

func refCounters(c *Counters, rs []trace.Record) {
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

func refSizes(s *SizeDist, rs []trace.Record) {
	in, out := s.In, s.Out
	for _, r := range rs {
		if r.Dir == trace.In {
			in.Add(int(r.App))
		} else {
			out.Add(int(r.App))
		}
	}
}

func refMinutes(m *MinuteSeries, rs []trace.Record) {
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

func refWindow(w *IntervalWindow, rs []trace.Record) {
	if w.done {
		return
	}
	if len(rs) > 0 && rs[0].T >= w.end+windowDoneSlack {
		w.done = true
		return
	}
	total, in, out := w.total, w.inBins, w.outBin
	interval, n := w.interval, w.n
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

func refFlows(fb *FlowBandwidth, rs []trace.Record) {
	for _, r := range rs {
		if r.Client == 0 {
			continue
		}
		f := fb.flow(r.Client, r.T)
		if r.T > f.Last {
			f.Last = r.T
		}
		if r.T < f.First {
			f.First = r.T
		}
		f.Packets++
		f.AppBytes += int64(r.App)
		f.WireBytes += int64(r.Wire())
	}
}

func refVarTime(v *VarTime, rs []trace.Record) {
	ring := v.ring
	n := int64(len(ring))
	base := v.base
	head, maxIdx := v.head, v.maxIdx
	cached := int64(-1)
	var lo, hi time.Duration
	for _, r := range rs {
		var idx int64
		if cached >= 0 && r.T >= lo && r.T < hi {
			idx = cached
		} else {
			idx = int64(r.T / base)
			cached = idx
			lo = time.Duration(idx) * base
			hi = lo + base
		}
		if idx < head {
			idx = head
		}
		for idx >= head+n {
			v.flushOne()
			head = v.head
		}
		ring[idx%n]++
		if idx > maxIdx {
			maxIdx = idx
		}
	}
	v.maxIdx = maxIdx
}

func refGaps(ia *Interarrival, rs []trace.Record) {
	last, seen := ia.last, ia.seen
	var hist [2][interarrivalBuckets]int64
	var total [2]int64
	for _, r := range rs {
		d := r.Dir
		if seen[d] {
			gap := r.T - last[d]
			if gap >= 0 {
				g := gap.Seconds()
				ia.sum[d] += g
				ia.sumSq[d] += g * g
				hist[d][iaBucket(gap)]++
				total[d]++
			}
		}
		seen[d] = true
		last[d] = r.T
	}
	ia.last, ia.seen = last, seen
	for d := 0; d < 2; d++ {
		if total[d] == 0 {
			continue
		}
		ia.n[d] += total[d]
		ia.total[d] += total[d]
		for b, c := range hist[d] {
			ia.hist[d][b] += c
		}
	}
}

func refKinds(k *KindBreakdown, rs []trace.Record) {
	for _, r := range rs {
		row := &k.rows[r.Kind]
		row.Packets++
		row.AppBytes += int64(r.App)
		row.WireBytes += int64(r.Wire())
	}
}

func refTick(p *Periodicity, rs []trace.Record) {
	dir, bin := p.dir, p.bin
	lo := time.Duration(p.binIdx) * bin
	hi := lo + bin
	for _, r := range rs {
		if r.Dir != dir {
			continue
		}
		if r.T < lo || r.T >= hi {
			idx := int64(r.T / bin)
			for idx > p.binIdx {
				refCloseBin(p)
			}
			lo = time.Duration(p.binIdx) * bin
			hi = lo + bin
		}
		p.current++
	}
}

// refCloseBin is the lag-product update with one modulo per lag: it reads
// bin n−l at (n−l) mod size and adds only the lags that bins have reached.
// It stores each bin where closeBin's doubled ring of 2·size keeps it.
func refCloseBin(p *Periodicity) {
	x := float64(p.current)
	p.sum += x
	p.sumSq += x * x
	size := int64(len(p.recent) / 2)
	if p.current != 0 {
		for l := 1; l <= p.maxLag; l++ {
			if p.n-int64(l) >= 0 {
				prev := p.recent[(p.n-int64(l))%size]
				p.lagSum[l] += x * prev
			}
		}
	}
	slot := p.n % size
	p.recent[slot], p.recent[slot+size] = x, x
	p.n++
	p.binIdx++
	p.current = 0
}

// refSweep feeds one block to every unit of s through the reference
// sweeps, each record as a file returns it: the format keeps three bits of
// Kind.
func refSweep(s *Suite, rs []trace.Record) {
	rs = slices.Clone(rs)
	for i := range rs {
		rs[i].Kind &= 7
	}
	refCounters(&s.Count, rs)
	refSizes(s.Sizes, rs)
	refFlows(s.Flows, rs)
	refKinds(s.Kinds, rs)
	refMinutes(s.Minutes, rs)
	refVarTime(s.VT, rs)
	for _, w := range s.Windows {
		refWindow(w, rs)
	}
	refGaps(s.Gaps, rs)
	refTick(s.Tick, rs)
}

// unitState is every collector's state, by name, with the tick detector's
// float sums also as bits: == would let a −0 pass for a +0.
func unitState(s *Suite) map[string]any {
	var tickBits []uint64
	for _, x := range append([]float64{s.Tick.sum, s.Tick.sumSq}, s.Tick.lagSum...) {
		tickBits = append(tickBits, math.Float64bits(x))
	}
	return map[string]any{
		"count": s.Count, "sizes": s.Sizes, "flows": s.Flows, "kinds": s.Kinds,
		"minutes": s.Minutes, "vt": s.VT, "windows": s.Windows, "gaps": s.Gaps,
		"tick": s.Tick, "tick sums": tickBits,
	}
}

// cutBlocks splits rs into blocks of n records, or into 50 ms tick windows
// when n is 0.
func cutBlocks(rs []trace.Record, n int) [][]trace.Record {
	const tick = 50 * time.Millisecond
	var out [][]trace.Record
	for len(rs) > 0 {
		k := min(n, len(rs))
		if n == 0 {
			for k = 1; k < len(rs) && rs[k].T/tick == rs[0].T/tick; k++ {
			}
		}
		out = append(out, rs[:k])
		rs = rs[k:]
	}
	return out
}

// sweepEdgeCases is a hand-made stream for the sweeps' boundary cases.
func sweepEdgeCases() []trace.Record {
	const ms, s = time.Millisecond, time.Second
	r := func(t time.Duration, dir trace.Direction, kind trace.Kind, client uint32, app uint16) trace.Record {
		return trace.Record{T: t, Dir: dir, Kind: kind, Client: client, App: app}
	}
	return []trace.Record{
		// Runs crossing 10 ms bin edges, with equal timestamps each side.
		r(0, trace.Out, trace.KindGame, 1, 130),
		r(10*ms-1, trace.Out, trace.KindGame, 2, 140),
		r(10*ms-1, trace.In, trace.KindGame, 2, 40),
		r(10*ms, trace.Out, trace.KindText, 3, 90),
		r(10*ms, trace.Out, trace.KindGame, 3, 130),
		r(10*ms, trace.In, trace.KindVoice, 1, 300),
		r(20*ms-1, trace.In, trace.KindGame, 4, 41),
		r(20*ms, trace.Out, trace.KindGame, 4, 131),
		r(49*ms, trace.Out, trace.KindGame, 1, 129),
		r(50*ms, trace.Out, trace.KindGame, 2, 128),
		// Gaps of exactly one second and longer, in both directions.
		r(1*s+50*ms, trace.Out, trace.KindGame, 2, 150),
		r(1*s+50*ms, trace.In, trace.KindGame, 2, 45),
		r(2*s+50*ms, trace.Out, trace.KindGame, 2, 150),
		r(2*s+50*ms, trace.In, trace.KindHandshake, 2, 20),
		r(4*s+500*ms, trace.In, trace.KindGame, 5, 44),
		// Client 0 and ids at and past the dense table's bound; kinds past
		// the three bits the format stores.
		r(4*s+500*ms, trace.In, trace.KindHandshake, 0, 20),
		r(4*s+510*ms, trace.Out, 8, denseFlowLimit, 60),
		r(4*s+520*ms, trace.In, 13, denseFlowLimit+7, 61),
		r(4*s+530*ms, trace.Out, 255, 1<<32-1, 62),
		r(4*s+530*ms, trace.In, trace.KindDownload, denseFlowLimit-1, 1400),
		// 700 ms late: past VarTime's 640 ms ring, so it clamps to the
		// oldest open bin.
		r(5*s+300*ms, trace.Out, trace.KindGame, 1, 130),
		r(4*s+600*ms, trace.In, trace.KindGame, 1, 40),
		r(5*s+310*ms, trace.Out, trace.KindGame, 1, 130),
		// Past the 10 ms and 50 ms windows' ends plus the done slack (2 s
		// and 10 s + 10 s), then a straggler back inside them.
		r(15*s, trace.Out, trace.KindGame, 3, 130),
		r(15*s, trace.In, trace.KindGame, 3, 40),
		r(21*s, trace.Out, trace.KindGame, 3, 130),
		r(21*s+1, trace.In, trace.KindGame, 3, 40),
		r(1*s+200*ms, trace.In, trace.KindGame, 3, 40),
		r(59*s+999*ms, trace.Out, trace.KindGame, 6, 200),
		r(60*s, trace.Out, trace.KindGame, 6, 200),
		r(60*s, trace.In, trace.KindGame, 6, 50),
		// The last run's highest timestamp is not its last record's.
		r(2*time.Minute+5*s+2*ms, trace.Out, trace.KindGame, 6, 50),
		r(2*time.Minute+5*s, trace.In, trace.KindGame, 6, 50),
	}
}

// TestColumnSweepsMatchRecordSweeps: every collector's column sweep leaves
// exactly the state its old record-block sweep did, on a busy generated
// stream and on hand-made edge cases, cut at one record, one tick window,
// BlockSize and an odd size.
func TestColumnSweepsMatchRecordSweeps(t *testing.T) {
	var busy trace.Collect
	if _, err := gamesim.Run(shardWorkload(t), &busy, nil); err != nil {
		t.Fatal(err)
	}
	for _, stream := range []struct {
		name string
		recs []trace.Record
	}{{"busy", busy.Records}, {"edges", sweepEdgeCases()}} {
		sc := DefaultSuiteConfig(stream.recs[len(stream.recs)-1].T)
		for _, size := range []int{1, 0, trace.BlockSize, 777} {
			ref, col := newTestSuite(t, sc), newTestSuite(t, sc)
			for _, blk := range cutBlocks(stream.recs, size) {
				refSweep(ref, blk)
				col.HandleBatch(blk)
			}
			want, got := unitState(ref), unitState(col)
			for unit := range want {
				if !reflect.DeepEqual(want[unit], got[unit]) {
					t.Errorf("%s stream, blocks of %d: %s unit diverges from the record sweep", stream.name, size, unit)
				}
			}
			if stream.name == "edges" && size == 1 && !col.Window(10*time.Millisecond).done {
				t.Errorf("edge stream never latched the 10 ms window done")
			}
		}
	}
}

// TestKindPastThreeBitsCountsAsOnDisk: the format stores three bits of
// Kind, so a Kind 9 record reads back from a file as Kind 1. The suite
// counts an in-memory record the way it counts it after that round trip,
// whether it is handed a batch or one record at a time, and the rolling
// window hashes it that way.
func TestKindPastThreeBitsCountsAsOnDisk(t *testing.T) {
	recs := []trace.Record{
		{T: 0, Dir: trace.In, Kind: 9, Client: 1, App: 40},
		{T: time.Millisecond, Dir: trace.Out, Kind: trace.KindText, Client: 1, App: 90},
		{T: 2 * time.Millisecond, Dir: trace.Out, Kind: 200, Client: 2, App: 130},
	}
	mem := newTestSuite(t, SuiteConfig{Duration: time.Second})
	mem.HandleBatch(recs)
	perRecord := newTestSuite(t, SuiteConfig{Duration: time.Second})
	trace.Dispatch(trace.HandlerFunc(perRecord.Handle), recs)

	var file bytes.Buffer
	w := trace.NewWriter(&file)
	w.HandleBatch(recs)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := file.Bytes()
	disk := newTestSuite(t, SuiteConfig{Duration: time.Second})
	if _, err := trace.NewReader(bytes.NewReader(raw)).ReadAll(disk); err != nil {
		t.Fatal(err)
	}
	want := disk.Kinds.Rows()
	if got := mem.Kinds.Rows(); !reflect.DeepEqual(got, want) {
		t.Errorf("in memory %+v, after a v4 round trip %+v", got, want)
	}
	if got := perRecord.Kinds.Rows(); !reflect.DeepEqual(got, want) {
		t.Errorf("one record at a time %+v, after a v4 round trip %+v", got, want)
	}
	for i, kind := range []trace.Kind{0, 1, trace.KindText} {
		if i >= len(want) || want[i].Kind != kind || want[i].Packets != 1 {
			t.Fatalf("round-trip rows %+v, want one packet each of kinds 0, 1, 2", want)
		}
	}

	// The daemon's window hashes the kind as the file holds it, too.
	windows := func(feed func(*RollingWindow)) []WindowStats {
		var ws []WindowStats
		rw := NewRollingWindow(time.Second, func(w WindowStats) { ws = append(ws, w) })
		feed(rw)
		rw.Close()
		return ws
	}
	memWin := windows(func(rw *RollingWindow) { rw.HandleBatch(recs) })
	diskWin := windows(func(rw *RollingWindow) {
		if _, err := trace.NewReader(bytes.NewReader(raw)).ReadAll(rw); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(memWin, diskWin) {
		t.Errorf("window in memory %+v, after a v4 round trip %+v", memWin, diskWin)
	}
}

// disorderedStream is a seeded 150 s stream of records a few milliseconds
// apart, each jittered by up to one 50 ms tick, with stragglers: records
// arriving 0.7–3 s after their time (past VarTime's 640 ms ring), and
// records from inside the 10 ms and 50 ms windows arriving once the stream
// is past both windows' done slack.
func disorderedStream(seed int64) []trace.Record {
	const ms = time.Millisecond
	rng := rand.New(rand.NewSource(seed))
	var rs []trace.Record
	for t := time.Duration(0); t < 150*time.Second; t += time.Duration(rng.Intn(4000)) * time.Microsecond {
		rs = append(rs, trace.Record{
			T:      t + time.Duration(rng.Int63n(int64(50*ms))),
			Dir:    trace.Direction(rng.Intn(2)),
			Kind:   trace.Kind(rng.Intn(8)),
			Client: uint32(rng.Intn(40)),
			App:    uint16(rng.Intn(1400)),
		})
	}
	for range 8 {
		r := &rs[rng.Intn(len(rs))]
		r.T = max(0, r.T-700*ms-time.Duration(rng.Int63n(int64(2300*ms))))
	}
	for range 8 {
		i := len(rs)/4 + rng.Intn(len(rs)*3/4) // past 37 s: both windows are done
		rs[i].T = time.Duration(rng.Int63n(int64(10 * time.Second)))
	}
	return rs
}

// TestClockUnitMatchesRecordSweepsOnDisorder: on disordered streams cut at
// random block sizes, the clock unit leaves every time-binned collector in
// exactly the state its record sweep does. Each keeps its own late-record
// policy: Counters and the minute series count a late record where it
// belongs, VarTime clamps one past its ring into the oldest open bin, a
// window drops what arrives after it latched done, and the tick detector
// counts a late record into the bin it is filling.
func TestClockUnitMatchesRecordSweepsOnDisorder(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		recs := disorderedStream(seed)
		sc := DefaultSuiteConfig(150 * time.Second)
		ref, col := newTestSuite(t, sc), newTestSuite(t, sc)
		rng := rand.New(rand.NewSource(seed))
		for rs := recs; len(rs) > 0; {
			n := min(1+rng.Intn(3000), len(rs))
			refSweep(ref, rs[:n])
			col.HandleBatch(rs[:n])
			rs = rs[n:]
		}
		want, got := unitState(ref), unitState(col)
		for unit := range want {
			if !reflect.DeepEqual(want[unit], got[unit]) {
				t.Errorf("seed %d: %s diverges from the record sweep", seed, unit)
			}
		}
		if !col.Window(50*time.Millisecond).done || col.VT.head == 0 {
			t.Errorf("seed %d: the stream never latched the 50 ms window or flushed VarTime", seed)
		}
	}
}

// TestNewSuiteRejectsOffGridIntervals: every time-binned collector reads one
// run finder at VarTimeBase, so a window or the minute series off its grid
// is refused rather than binned wrong.
func TestNewSuiteRejectsOffGridIntervals(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  SuiteConfig
	}{
		{"15 ms window", SuiteConfig{Windows: []WindowSpec{{Interval: 15 * time.Millisecond, N: 10}}}},
		{"7 ms VarTimeBase", SuiteConfig{VarTimeBase: 7 * time.Millisecond}},
	} {
		if _, err := NewSuite(c.cfg); err == nil {
			t.Errorf("%s: NewSuite accepted it", c.name)
		}
	}
	if _, err := NewSuite(SuiteConfig{VarTimeBase: 5 * time.Millisecond}); err != nil {
		t.Errorf("5 ms VarTimeBase under the paper's windows: %v", err)
	}
}
