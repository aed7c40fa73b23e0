package analysis

import (
	"math"
	"reflect"
	"testing"
	"time"

	"cstrace/internal/stats"
	"cstrace/internal/trace"
	"cstrace/internal/units"
)

func rec(t time.Duration, dir trace.Direction, client uint32, app uint16) trace.Record {
	return trace.Record{T: t, Dir: dir, Client: client, App: app}
}

func TestCountersTables(t *testing.T) {
	var c Counters
	c.HandleBatch([]trace.Record{
		rec(0, trace.In, 1, 40),
		rec(time.Second, trace.In, 1, 44),
		rec(2*time.Second, trace.Out, 1, 130),
	})

	if c.Packets() != 3 || c.PacketsIn != 2 || c.PacketsOut != 1 {
		t.Fatalf("counts: %+v", c)
	}
	wantInWire := int64(40 + 44 + 2*units.WireOverhead)
	if c.WireBytesIn() != wantInWire {
		t.Errorf("WireBytesIn = %d, want %d", c.WireBytesIn(), wantInWire)
	}

	t2 := c.TableII(10 * time.Second)
	if float64(t2.MeanPPS) != 0.3 {
		t.Errorf("MeanPPS = %v", t2.MeanPPS)
	}
	wantBW := float64(40+44+130+3*units.WireOverhead) * 8 / 10
	if math.Abs(float64(t2.MeanBW)-wantBW) > 1e-9 {
		t.Errorf("MeanBW = %v, want %v", t2.MeanBW, wantBW)
	}

	t3 := c.TableIII()
	if t3.MeanIn != 42 {
		t.Errorf("MeanIn = %v", t3.MeanIn)
	}
	if t3.MeanOut != 130 {
		t.Errorf("MeanOut = %v", t3.MeanOut)
	}
	if math.Abs(t3.MeanSize-(40.0+44+130)/3) > 1e-9 {
		t.Errorf("MeanSize = %v", t3.MeanSize)
	}
}

func TestCountersZeroDurationFallsBack(t *testing.T) {
	var c Counters
	c.HandleBatch([]trace.Record{rec(5*time.Second, trace.In, 1, 40)})
	t2 := c.TableII(0)
	if t2.MeanPPS == 0 {
		t.Error("zero duration should fall back to last timestamp")
	}
}

func TestCountersEmpty(t *testing.T) {
	var c Counters
	t3 := c.TableIII()
	if t3.MeanSize != 0 || t3.MeanIn != 0 || t3.MeanOut != 0 {
		t.Error("empty counters should report zero means")
	}
}

func TestSizeDist(t *testing.T) {
	s := NewSizeDist(500)
	s.HandleBatch([]trace.Record{
		rec(0, trace.In, 1, 40),
		rec(0, trace.In, 1, 40),
		rec(0, trace.Out, 1, 130),
	})
	hist := func(vs ...int) *stats.IntHistogram {
		h := stats.NewIntHistogram(500)
		for _, v := range vs {
			h.Add(v)
		}
		return h
	}
	if !reflect.DeepEqual(s.In, hist(40, 40)) || !reflect.DeepEqual(s.Out, hist(130)) || !reflect.DeepEqual(s.Total(), hist(40, 40, 130)) {
		t.Fatal("counts")
	}
	if s.In.Mean() != 40 {
		t.Error("mean")
	}
	cdf := s.Total().CDF()
	if cdf[39] != 0 || math.Abs(cdf[40]-2.0/3) > 1e-12 || cdf[130] != 1 {
		t.Errorf("cdf: %v %v %v", cdf[39], cdf[40], cdf[130])
	}
}

func TestMinuteSeries(t *testing.T) {
	m := NewMinuteSeries()
	m.HandleBatch([]trace.Record{
		rec(30*time.Second, trace.In, 1, 42),   // minute 0
		rec(90*time.Second, trace.Out, 1, 142), // minute 1
		rec(61*time.Second, trace.Out, 1, 42),  // minute 1
	})
	m.PadTo(4 * time.Minute)

	in := m.KbsIn()
	out := m.KbsOut()
	if len(in) != 4 || len(out) != 4 {
		t.Fatalf("series lengths: %d, %d", len(in), len(out))
	}
	wantIn0 := float64(42+units.WireOverhead) * 8 / 60 / 1e3
	if math.Abs(in[0]-wantIn0) > 1e-12 {
		t.Errorf("in[0] = %v, want %v", in[0], wantIn0)
	}
	if in[1] != 0 || out[0] != 0 {
		t.Error("cross-direction leakage")
	}
	pps := m.PPSTotal()
	if math.Abs(pps[1]-2.0/60) > 1e-12 {
		t.Errorf("pps[1] = %v", pps[1])
	}
	tot := m.KbsTotal()
	if math.Abs(tot[0]-in[0]) > 1e-12 {
		t.Error("total should equal in for minute 0")
	}
}

func TestIntervalWindow(t *testing.T) {
	w := NewIntervalWindow(10*time.Millisecond, 5)
	w.HandleBatch([]trace.Record{
		rec(0, trace.Out, 1, 100),
		rec(5*time.Millisecond, trace.Out, 1, 100),
		rec(12*time.Millisecond, trace.In, 1, 40),
		rec(49*time.Millisecond, trace.In, 1, 40),
		rec(60*time.Millisecond, trace.In, 1, 40), // beyond window: dropped
	})
	tot := w.TotalPPS()
	if len(tot) != 5 {
		t.Fatal("window length")
	}
	if tot[0] != 200 || tot[1] != 100 || tot[4] != 100 {
		t.Errorf("total pps = %v", tot)
	}
	if w.OutPPS()[0] != 200 || w.InPPS()[1] != 100 {
		t.Error("direction split")
	}
}

func TestFlowBandwidth(t *testing.T) {
	fb := NewFlowBandwidth()
	// Session 1: 100 seconds, 10 packets of 100 B wire-ish.
	var rs []trace.Record
	for i := 0; i <= 100; i += 10 {
		rs = append(rs, rec(time.Duration(i)*time.Second, trace.Out, 1, 100-uint16(units.WireOverhead)))
	}
	rs = append(rs,
		// Session 2: too short to qualify.
		rec(0, trace.In, 2, 40),
		rec(time.Second, trace.In, 2, 40),
		// Handshake traffic (client 0) ignored.
		rec(0, trace.In, 0, 42),
	)
	fb.HandleBatch(rs)

	if n := len(flowsOf(fb, 0)); n != 2 {
		t.Fatalf("flows = %d", n)
	}
	qual := flowsOf(fb, 30*time.Second)
	if len(qual) != 1 || qual[0].Client != 1 {
		t.Fatalf("qualifying flows: %+v", qual)
	}
	// 11 packets x 100 B over 100 s = 88 bits/s.
	wantBps := 11.0 * 100 * 8 / 100
	if math.Abs(qual[0].MeanKbs()*1e3-wantBps) > 1e-9 {
		t.Errorf("MeanKbs = %v, want %v bps", qual[0].MeanKbs()*1e3, wantBps)
	}
	var total int64
	for _, c := range histCounts(fb.Histogram(30*time.Second, 150e3, 75)) {
		total += c
	}
	if total != 1 {
		t.Errorf("histogram total = %d", total)
	}
	if fractionBelow(fb, 30*time.Second, 56e3) != 1 {
		t.Error("fractionBelow")
	}
}

// flowsOf lists fb's sessions lasting at least minDuration.
func flowsOf(fb *FlowBandwidth, minDuration time.Duration) []FlowStats {
	var out []FlowStats
	fb.each(func(f *FlowStats) {
		if f.Duration() >= minDuration {
			out = append(out, *f)
		}
	})
	return out
}

// fractionBelow is the fraction of fb's sessions lasting at least
// minDuration whose mean bandwidth is below bps (the modem barrier is
// 56 kb/s).
func fractionBelow(fb *FlowBandwidth, minDuration time.Duration, bps float64) float64 {
	fs := flowsOf(fb, minDuration)
	if len(fs) == 0 {
		return 0
	}
	below := 0
	for _, f := range fs {
		if f.MeanKbs()*1e3 < bps {
			below++
		}
	}
	return float64(below) / float64(len(fs))
}

// histCounts is h's per-bin counts.
func histCounts(h *stats.Histogram) []int64 {
	out := make([]int64, h.NumBins())
	for i := range out {
		out[i] = h.Count(i)
	}
	return out
}

func TestVarTimePeriodicProcess(t *testing.T) {
	// A perfectly periodic burst process at 50 ms: at m=1 (10 ms bins) high
	// variance, at m >= 5 every block holds exactly one burst => variance 0.
	vt, err := NewVarTime(10*time.Millisecond, 8)
	if err != nil {
		t.Fatal(err)
	}
	var rs []trace.Record
	for i := 0; i < 4000; i++ {
		rs = append(rs, rec(time.Duration(i)*50*time.Millisecond, trace.Out, 1, 100))
	}
	vt.HandleBatch(rs)
	vt.Close(4000 * 50 * time.Millisecond)
	pts := vt.Points()
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	var v1, v8 float64 = -1, -1
	for _, p := range pts {
		if p.M == 1 {
			v1 = p.NormVar
		}
		if p.M == 8 {
			v8 = p.NormVar
		}
	}
	if v1 != 1 {
		t.Errorf("normalized variance at m=1 must be 1, got %v", v1)
	}
	// At m=8 (80 ms) blocks hold 1 or 2 bursts: variance far below m=1
	// after normalization per the sub-tick smoothing the paper observes.
	if v8 > 0.05 {
		t.Errorf("m=8 normalized variance = %v, want << 1", v8)
	}
}

func TestVarTimeHandlesDisorder(t *testing.T) {
	// Two interleaved client streams with ~50 ms of mutual disorder must
	// produce the same ladder as the sorted stream.
	mk := func(shuffle bool) []hurst_pointlike {
		vt, _ := NewVarTime(10*time.Millisecond, 6)
		var recs []trace.Record
		for i := 0; i < 2000; i++ {
			recs = append(recs, rec(time.Duration(i)*25*time.Millisecond, trace.In, 1, 40))
		}
		if shuffle {
			// Swap adjacent pairs: bounded disorder of 25 ms.
			for i := 0; i+1 < len(recs); i += 2 {
				recs[i], recs[i+1] = recs[i+1], recs[i]
			}
		}
		vt.HandleBatch(recs)
		vt.Close(0)
		var out []hurst_pointlike
		for _, p := range vt.Points() {
			out = append(out, hurst_pointlike{p.M, p.NormVar})
		}
		return out
	}
	a, b := mk(false), mk(true)
	if len(a) != len(b) {
		t.Fatalf("point counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].m != b[i].m || math.Abs(a[i].v-b[i].v) > 1e-9 {
			t.Errorf("disorder changed ladder at m=%d: %v vs %v", a[i].m, a[i].v, b[i].v)
		}
	}
}

type hurst_pointlike struct {
	m int
	v float64
}

func TestVarTimeCloseWithTrailingSilence(t *testing.T) {
	vt, _ := NewVarTime(10*time.Millisecond, 4)
	vt.HandleBatch([]trace.Record{rec(0, trace.In, 1, 40)})
	vt.Close(time.Second) // 100 bins total, 99 empty
	if got := vt.Points()[0].BlockCount; got != 100 {
		t.Errorf("base blocks = %d, want 100", got)
	}
	// Empty collector with a duration still flushes empty bins.
	vt2, _ := NewVarTime(10*time.Millisecond, 4)
	vt2.Close(500 * time.Millisecond)
	if got := vt2.Points()[0].BlockCount; got != 50 {
		t.Errorf("empty trace base blocks = %d, want 50", got)
	}
}
