package analysis

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"cstrace/internal/gamesim"
	"cstrace/internal/stats"
	"cstrace/internal/timeseries"
	"cstrace/internal/trace"
	"cstrace/internal/units"
)

// A deliberately naive reference analyzer: it reads a trace one record at a
// time through trace.Reader.Read and keeps its state in maps and slices —
// no batches, no columns, no run finder, no rings. It shares no code with
// the collectors, so it checks them from outside: counts, bins and
// histograms must match it exactly, and the derived floats (means, CVs,
// normalized variances, correlations) to naiveTol.

// naiveTol bounds |suite − naive| for a derived float, relative to the
// value for means and CVs and to one for the normalized variances and
// correlations, which are at most about one.
const naiveTol = 1e-9

type naive struct {
	cfg                    SuiteConfig
	pkts, app              [2]int64 // by direction
	end                    time.Duration
	sizes                  [2]map[int]int64
	minuteBits, minutePkts [2]map[int64]int64 // by direction, by minute
	base, tickOut          map[int64]int64    // all / outbound records per VarTimeBase bin
	windows                []map[int64][2]int64
	flows                  map[uint32]FlowStats
	kinds                  map[trace.Kind][2]int64 // packets, app bytes
	gaps                   [2][]float64            // interarrival seconds
	gapHist                [2][interarrivalBuckets]int64
}

// naiveAnalyze reads a whole trace file record by record.
func naiveAnalyze(t *testing.T, file []byte, cfg SuiteConfig) *naive {
	t.Helper()
	n := &naive{cfg: cfg, base: map[int64]int64{}, tickOut: map[int64]int64{},
		flows: map[uint32]FlowStats{}, kinds: map[trace.Kind][2]int64{}}
	for d := range 2 {
		n.sizes[d], n.minuteBits[d], n.minutePkts[d] = map[int]int64{}, map[int64]int64{}, map[int64]int64{}
	}
	for range cfg.Windows {
		n.windows = append(n.windows, map[int64][2]int64{})
	}
	var last [2]time.Duration
	var seen [2]bool
	r := trace.NewReader(bytes.NewReader(file))
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return n
		}
		if err != nil {
			t.Fatal(err)
		}
		d, app := rec.Dir, int64(rec.App)
		n.pkts[d]++
		n.app[d] += app
		n.end = max(n.end, rec.T)
		n.sizes[d][int(rec.App)]++
		n.minuteBits[d][int64(rec.T/time.Minute)] += 8 * int64(rec.Wire())
		n.minutePkts[d][int64(rec.T/time.Minute)]++
		n.base[int64(rec.T/cfg.VarTimeBase)]++
		if d == trace.Out {
			n.tickOut[int64(rec.T/cfg.VarTimeBase)]++
		}
		for i, w := range cfg.Windows {
			c := n.windows[i][int64(rec.T/w.Interval)]
			c[d]++
			n.windows[i][int64(rec.T/w.Interval)] = c
		}
		if rec.Client != 0 {
			f, ok := n.flows[rec.Client]
			if !ok {
				f = FlowStats{Client: rec.Client, First: rec.T, Last: rec.T}
			}
			f.First, f.Last = min(f.First, rec.T), max(f.Last, rec.T)
			f.Packets, f.AppBytes, f.WireBytes = f.Packets+1, f.AppBytes+app, f.WireBytes+int64(rec.Wire())
			n.flows[rec.Client] = f
		}
		k := n.kinds[rec.Kind]
		n.kinds[rec.Kind] = [2]int64{k[0] + 1, k[1] + app}
		if seen[d] {
			gap := rec.T - last[d]
			n.gaps[d] = append(n.gaps[d], float64(gap)/1e9)
			b := 0 // bucket b holds gaps of b significant bits of microseconds
			for us := gap / time.Microsecond; us > 0 && b < interarrivalBuckets-1; us /= 2 {
				b++
			}
			n.gapHist[d][b]++
		}
		seen[d], last[d] = true, rec.T
	}
}

// series lays per-bin counts out as a slice of at least minLen bins.
func series(m map[int64]int64, minLen int64) []float64 {
	for k := range m {
		minLen = max(minLen, k+1)
	}
	out := make([]float64, minLen)
	for k, v := range m {
		out[k] = float64(v)
	}
	return out
}

// minuteBinner holds xs as one-minute bins, for comparing with a
// collector's binner.
func minuteBinner(xs []float64) *timeseries.Binner {
	b := timeseries.MustBinner(time.Minute)
	for i, x := range xs {
		b.Add(time.Duration(i)*time.Minute, x)
	}
	return b
}

// meanVar is the two-pass mean and population variance.
func meanVar(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	return mean, variance / float64(len(xs))
}

func near(got, want, scale float64) bool { return math.Abs(got-want) <= naiveTol*scale }

// check compares a closed suite with the naive result.
func (n *naive) check(t *testing.T, s *Suite, label string) {
	t.Helper()
	fail := func(what string, got, want any) { t.Errorf("%s: %s = %v, naive %v", label, what, got, want) }
	if want := (Counters{n.pkts[trace.In], n.pkts[trace.Out], n.app[trace.In], n.app[trace.Out], n.end}); s.Count != want {
		fail("counters", s.Count, want)
	}
	for d, h := range []*stats.IntHistogram{s.Sizes.In, s.Sizes.Out} {
		want := stats.NewIntHistogram(n.cfg.MaxPayload)
		for v, c := range n.sizes[d] {
			for range c {
				want.Add(v)
			}
		}
		if !reflect.DeepEqual(h, want) {
			fail(fmt.Sprintf("size histogram, dir %d", d), h.CDF(), want.CDF())
		}
	}
	minutes := int64(n.cfg.Duration / time.Minute)
	m := s.Minutes
	for d, got := range [2][2]*timeseries.Binner{{m.BitsIn, m.PktsIn}, {m.BitsOut, m.PktsOut}} {
		if want := minuteBinner(series(n.minuteBits[d], minutes)); !reflect.DeepEqual(got[0], want) {
			fail(fmt.Sprintf("minute bits, dir %d", d), got[0].Rates(), want.Rates())
		}
		if want := minuteBinner(series(n.minutePkts[d], minutes)); !reflect.DeepEqual(got[1], want) {
			fail(fmt.Sprintf("minute packets, dir %d", d), got[1].Rates(), want.Rates())
		}
	}
	for i, spec := range n.cfg.Windows {
		w := s.Windows[i]
		for b := range spec.N {
			c := n.windows[i][int64(b)]
			if w.total[b] != float64(c[0]+c[1]) || w.inBins[b] != float64(c[0]) || w.outBin[b] != float64(c[1]) {
				fail(fmt.Sprintf("%v window bin %d", spec.Interval, b), []float64{w.inBins[b], w.outBin[b]}, c)
			}
		}
	}
	xs := series(n.base, int64(n.cfg.Duration/n.cfg.VarTimeBase))
	_, v1 := meanVar(xs)
	pts := s.VT.Points()
	for k := range n.cfg.VarTimeLevels {
		size := 1 << k
		if len(xs)/size < 2 {
			continue
		}
		blocks := make([]float64, len(xs)/size)
		for i := range blocks {
			for _, x := range xs[i*size : (i+1)*size] {
				blocks[i] += x
			}
			blocks[i] /= float64(size)
		}
		_, vk := meanVar(blocks)
		if len(pts) == 0 || pts[0].M != size || pts[0].BlockCount != int64(len(blocks)) || !near(pts[0].NormVar, vk/v1, 1) {
			fail(fmt.Sprintf("variance-time point m=%d", size), pts[:min(1, len(pts))], vk/v1)
		}
		pts = pts[min(1, len(pts)):]
	}
	var flows []FlowStats
	for _, f := range n.flows {
		flows = append(flows, f)
	}
	got := flowsOf(s.Flows, 0)
	for _, fs := range [][]FlowStats{flows, got} {
		slices.SortFunc(fs, func(a, b FlowStats) int { return int(a.Client) - int(b.Client) })
	}
	if !slices.Equal(got, flows) {
		fail("flows", len(got), len(flows))
	}
	rows := s.Kinds.Rows()
	for _, row := range rows {
		k := n.kinds[row.Kind]
		if row.Packets != k[0] || row.AppBytes != k[1] || row.WireBytes != k[1]+k[0]*units.WireOverhead {
			fail(fmt.Sprintf("kind %v", row.Kind), row, k)
		}
	}
	if len(rows) != len(n.kinds) {
		fail("kinds", len(rows), len(n.kinds))
	}
	for d := range trace.Direction(2) {
		if _, hist := s.Gaps.Histogram(d); !slices.Equal(hist, n.gapHist[d][:]) {
			fail(fmt.Sprintf("gap histogram, dir %d", d), hist, n.gapHist[d])
		}
		mean, variance := meanVar(n.gaps[d])
		if cv := math.Sqrt(variance) / mean; !near(s.Gaps.Mean(d), mean, mean) || !near(s.Gaps.CV(d), cv, cv) {
			fail(fmt.Sprintf("gap mean, CV, dir %d", d), []float64{s.Gaps.Mean(d), s.Gaps.CV(d)}, []float64{mean, cv})
		}
	}
	out := series(n.tickOut, 0)
	mean, variance := meanVar(out)
	ac := s.Tick.Autocorrelation()
	for l := 1; l <= len(ac); l++ {
		var lag float64
		for i := l; i < len(out); i++ {
			lag += out[i] * out[i-l]
		}
		if want := (lag/float64(len(out)-l) - mean*mean) / variance; !near(ac[l-1], want, 1) {
			fail(fmt.Sprintf("autocorrelation at lag %d", l), ac[l-1], want)
		}
	}
}

// naiveStream is a seeded synthetic server: a 50 ms tick broadcast to the
// clients it has, their updates at random inside the tick, a silence of up
// to five seconds now and then, client 0 and every stored kind.
func naiveStream(seed int64, dur time.Duration) []trace.Record {
	const tick = 50 * time.Millisecond
	rng := rand.New(rand.NewSource(seed))
	var rs []trace.Record
	rec := func(t time.Duration, dir trace.Direction, client uint32) trace.Record {
		return trace.Record{T: t, Dir: dir, Kind: trace.Kind(rng.Intn(8)), Client: client, App: uint16(rng.Intn(1400))}
	}
	for at := time.Duration(0); at < dur; at += tick {
		if rng.Intn(300) == 0 {
			at += time.Duration(rng.Intn(100)) * tick
		}
		for c := range uint32(rng.Intn(24)) {
			rs = append(rs, rec(at+time.Duration(c)*50*time.Microsecond, trace.Out, c))
			rs = append(rs, rec(at+time.Duration(rng.Int63n(int64(tick))), trace.In, c))
		}
	}
	slices.SortStableFunc(rs, func(a, b trace.Record) int { return int(a.T - b.T) })
	for len(rs) > 0 && rs[len(rs)-1].T >= dur {
		rs = rs[:len(rs)-1]
	}
	return rs
}

// writeTrace stores rs at the given format version in small segments, so
// an indexed read spans many of them.
func writeTrace(t *testing.T, version int, rs []trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := [...]func(io.Writer) *trace.Writer{trace.NewWriterV1, trace.NewWriterV2, trace.NewWriterV3, trace.NewWriter}[version-1](&buf)
	w.SegmentPayload = 16 << 10
	w.HandleBatch(rs)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestNaiveMatchesSuite: the suite agrees with the naive analyzer on every
// stream under every transform — the stream stored in format v1–v4, whole
// or split across three files read one after another, read serially or
// by segments, into a suite of one, two or five workers. A five-worker
// suite read by segments receives v4 segments as columns.
func TestNaiveMatchesSuite(t *testing.T) {
	game := shardWorkload(t)
	game.Duration, game.Warmup = 75*time.Second, time.Minute
	var gameRecs trace.Collect
	if _, err := gamesim.Run(game, &gameRecs, nil); err != nil {
		t.Fatal(err)
	}
	for _, st := range []struct {
		name string
		dur  time.Duration
		recs []trace.Record
	}{
		{"gamesim", game.Duration, gameRecs.Records},
		{"synthetic 1", 130 * time.Second, naiveStream(1, 130*time.Second)},
		{"synthetic 2", 70 * time.Second, naiveStream(2, 70*time.Second)},
	} {
		cfg := DefaultSuiteConfig(st.dur)
		rng := rand.New(rand.NewSource(int64(len(st.recs))))
		cut1 := rng.Intn(len(st.recs))
		cut2 := cut1 + rng.Intn(len(st.recs)-cut1)
		var want *naive
		for v := 1; v <= 4; v++ {
			whole := writeTrace(t, v, st.recs)
			split := [][]byte{writeTrace(t, v, st.recs[:cut1]), writeTrace(t, v, st.recs[cut1:cut2]), writeTrace(t, v, st.recs[cut2:])}
			if got := naiveAnalyze(t, whole, cfg); want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: the naive analyzer reads v%d differently", st.name, v)
			}
			for _, files := range [][][]byte{{whole}, split} {
				for _, workers := range []int{1, 2, 5} {
					for _, segments := range []bool{false, true} {
						s := newTestSuite(t, cfg)
						h, done := s.Sink(workers)
						for _, f := range files {
							r := trace.NewReader(bytes.NewReader(f))
							var err error
							if segments {
								_, err = r.ReadAllSharded(h, 2)
							} else {
								_, err = r.ReadAll(h)
							}
							if err != nil {
								t.Fatal(err)
							}
						}
						done()
						want.check(t, s, fmt.Sprintf("%s v%d files=%d workers=%d segments=%v", st.name, v, len(files), workers, segments))
					}
				}
			}
		}
	}
}
