package gamesim

import (
	"slices"
	"testing"
	"time"

	"cstrace/internal/dist"
	"cstrace/internal/trace"
)

// The generator's layers, timed where they live, into a counting batch sink,
// so ns/rec is the generator alone. BenchmarkWindow is the whole recorded
// path; BenchmarkPlan, BenchmarkSortPlan and BenchmarkFillSizes are its three
// stages on the same ten busy minutes and add up to it (what is left over is
// the hand-off to the sink).

type countSink struct{ n int }

func (c *countSink) Handle(trace.Record)           { c.n++ }
func (c *countSink) HandleBatch(rs []trace.Record) { c.n += len(rs) }

// busyConfig is PaperConfig at five times the arrival rate: the server is
// full within minutes, as in cstrace.Quick and the bench/ workloads.
func busyConfig(seed uint64, warmup, d time.Duration) Config {
	c := PaperConfig(seed)
	c.Outages = nil
	c.AttemptRate *= 5
	c.Warmup, c.Duration = warmup, d
	return c
}

// BenchmarkWarmup times the paper's one-map-cycle warm-up in front of a
// single recorded tick: the control plane to the recording point plus one
// catch-up of the survivors.
func BenchmarkWarmup(b *testing.B) {
	var survivors int
	for i := 0; i < b.N; i++ {
		cfg := busyConfig(uint64(i+1), 30*time.Minute+48*time.Second, 50*time.Millisecond)
		st, err := Run(cfg, &countSink{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		survivors += st.MaxConcurrent
	}
	b.ReportMetric(float64(survivors)/float64(b.N), "survivors")
}

// BenchmarkWindow times recorded windows alone: no warm-up, ten minutes of a
// server that fills in the first two.
func BenchmarkWindow(b *testing.B) {
	benchRecorded(b, func(i int) Config { return busyConfig(uint64(i+1), 0, 10*time.Minute) })
}

// BenchmarkFleetServer is the in-package twin of bench/'s
// gamesim.fleet.alone.cpu_ns_per_rec: one launch-day server, the full
// warm-up in front of four recorded minutes.
func BenchmarkFleetServer(b *testing.B) {
	benchRecorded(b, func(i int) Config { return launchServer(11, i%8, 4*time.Minute) })
}

// planWindows drives cfg's recorded windows the way run does, but stops each
// one after the plan stage and hands it to each (nil: discard it). It returns
// the number of records planned.
func planWindows(b *testing.B, cfg Config, each func(p *tickPlan, tick uint64)) (recs int) {
	s, err := newSim(cfg, &countSink{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	dt := cfg.TickInterval
	for t := cfg.Warmup; t < cfg.Warmup+cfg.Duration; t += dt {
		s.planWindow(t, t+dt)
		recs += len(s.plan.recs)
		if each != nil {
			each(&s.plan, uint64(t/dt))
		}
	}
	return recs
}

// BenchmarkPlan times the control plane and the plan stage of
// BenchmarkWindow's run: everything before the sort.
func BenchmarkPlan(b *testing.B) {
	var recs int
	for i := 0; i < b.N; i++ {
		recs += planWindows(b, busyConfig(uint64(i+1), 0, 10*time.Minute), nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(recs), "ns/rec")
}

// captureWindows returns every 50th window of a busy ten minutes as the plan
// stage leaves it — planned, not yet sorted — with its tick. 240 windows stay
// cache-resident, as the one live window of a real run does.
func captureWindows(b *testing.B) (ws []tickPlan, ticks []uint64, recs int) {
	planWindows(b, busyConfig(1, 0, 10*time.Minute), func(p *tickPlan, tick uint64) {
		if tick%50 != 0 {
			return
		}
		ws = append(ws, tickPlan{n: p.n, act: p.act, recs: slices.Clone(p.recs)})
		ticks = append(ticks, tick)
		recs += len(p.recs)
	})
	return ws, ticks, recs
}

// restore copies a captured window into the working plan — one short copy
// that BenchmarkSortPlan and BenchmarkFillSizes count in.
func (p *tickPlan) restore(w *tickPlan) {
	p.n, p.act = w.n, w.act
	p.recs = append(p.recs[:0], w.recs...)
}

// BenchmarkSortPlan times the window sort over windows of a busy run as the
// plan stage leaves them.
func BenchmarkSortPlan(b *testing.B) {
	ws, _, recs := captureWindows(b)
	var p tickPlan
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ws {
			p.restore(&ws[j])
			sortPlan(&p)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(recs*b.N), "ns/rec")
}

// BenchmarkFillSizes times re-keying the fill generator and sampling the open
// sizes of the same windows, sorted.
func BenchmarkFillSizes(b *testing.B) {
	ws, ticks, recs := captureWindows(b)
	for j := range ws {
		sortPlan(&ws[j])
	}
	cfg := busyConfig(1, 0, 10*time.Minute)
	sizes := dist.NewRNG(1).NewSplitter()
	rng := sizes.Stream(0)
	var p tickPlan
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ws {
			p.restore(&ws[j])
			sizes.Rekey(rng, ticks[j])
			fillSizes(&cfg, &p, rng, &st)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(recs*b.N), "ns/rec")
}

func benchRecorded(b *testing.B, cfg func(i int) Config) {
	var sink countSink
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg(i), &sink, nil); err != nil {
			b.Fatal(err)
		}
	}
	if sink.n == 0 {
		b.Fatal("no traffic generated")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sink.n), "ns/rec")
}
