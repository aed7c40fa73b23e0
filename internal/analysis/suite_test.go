package analysis

import (
	"math"
	"slices"
	"testing"
	"time"

	"cstrace/internal/gamesim"
	"cstrace/internal/hurst"
	"cstrace/internal/stats"
	"cstrace/internal/trace"
)

func TestPlayerSeries(t *testing.T) {
	p := NewPlayerSeries()
	ev := func(tm time.Duration, typ gamesim.EventType) {
		p.Observe(gamesim.SessionEvent{T: tm, Type: typ})
	}
	ev(10*time.Second, gamesim.EventConnect) // minute 0: 1 distinct
	ev(20*time.Second, gamesim.EventConnect) // minute 0: 2 distinct
	ev(70*time.Second, gamesim.EventDisconnect)
	ev(80*time.Second, gamesim.EventConnect) // minute 1
	p.Finish(4 * time.Minute)

	c := p.Counts()
	if len(c) != 4 {
		t.Fatalf("series = %v", c)
	}
	if c[0] != 2 {
		t.Errorf("minute 0 = %v, want 2", c[0])
	}
	// Minute 1 starts with 2 connected, sees 1 more connect => 3 distinct.
	if c[1] != 3 {
		t.Errorf("minute 1 = %v, want 3", c[1])
	}
	// Minute 2 and 3: 2 players connected throughout.
	if c[2] != 2 || c[3] != 2 {
		t.Errorf("tail = %v", c[2:])
	}
	if m := slices.Max(c); m != 3 {
		t.Errorf("max = %v", m)
	}
}

func TestPlayerSeriesCanExceedSlots(t *testing.T) {
	// The paper notes Fig 3 "sometimes exceeds the maximum number of slots
	// of 22 as multiple clients can come and go during an interval".
	p := NewPlayerSeries()
	// 22 players at minute start, one leaves and another joins within the
	// minute: 23 distinct players seen.
	for i := 0; i < 22; i++ {
		p.Observe(gamesim.SessionEvent{T: 0, Type: gamesim.EventConnect})
	}
	p.Observe(gamesim.SessionEvent{T: 90 * time.Second, Type: gamesim.EventDisconnect})
	p.Observe(gamesim.SessionEvent{T: 100 * time.Second, Type: gamesim.EventConnect})
	p.Finish(3 * time.Minute)
	if p.Counts()[1] != 23 {
		t.Errorf("minute 1 = %v, want 23 (churn exceeds slots)", p.Counts()[1])
	}
}

func TestRegions(t *testing.T) {
	// Build a synthetic variance-time curve: slope -1.6 below the tick,
	// -0.3 in the plateau, -1.0 beyond the map period.
	var pts []hurstPoint
	base := 10 * time.Millisecond
	for k := 0; k < 24; k++ {
		m := 1 << k
		logM := math.Log10(float64(m))
		var logV float64
		switch {
		case m <= 4:
			logV = -1.6 * logM
		case m <= 1<<17:
			logV = -1.6*math.Log10(4) - 0.3*(logM-math.Log10(4))
		default:
			knee := -1.6*math.Log10(4) - 0.3*(math.Log10(float64(int(1)<<17))-math.Log10(4))
			logV = knee - 1.0*(logM-math.Log10(float64(int(1)<<17)))
		}
		pts = append(pts, hurstPoint{m: m, logM: logM, logV: logV})
	}
	hp := toHurst(pts)
	re := Regions(hp, base, 50*time.Millisecond, 30*time.Minute)
	if re.SubTick.H > 0.3 {
		t.Errorf("sub-tick H = %.2f, want < 0.3", re.SubTick.H)
	}
	if re.Plateau.H < 0.75 {
		t.Errorf("plateau H = %.2f, want > 0.75", re.Plateau.H)
	}
	if math.Abs(re.LongTerm.H-0.5) > 0.1 {
		t.Errorf("long-term H = %.2f, want ~0.5", re.LongTerm.H)
	}
}

type hurstPoint struct {
	m    int
	logM float64
	logV float64
}

func toHurst(ps []hurstPoint) []hurst.Point {
	out := make([]hurst.Point, len(ps))
	for i, p := range ps {
		out[i] = hurst.Point{M: p.m, Log10M: p.logM, NormVar: math.Pow(10, p.logV), Log10Var: p.logV, BlockCount: 10}
	}
	return out
}

func TestSuiteEndToEnd(t *testing.T) {
	// A one-hour paper-config run through the full suite must reproduce the
	// qualitative shape of every figure.
	cfg := gamesim.PaperConfig(99)
	cfg.Duration = time.Hour
	cfg.Outages = nil
	// A one-hour window from a cold start at the diurnal trough would sit
	// far below the week-long average load; saturate arrivals so the hour
	// reflects the busy server the paper measured.
	cfg.AttemptRate = 0.2
	cfg.DiurnalAmp = 0
	cfg.Warmup = 10 * time.Minute

	sc := DefaultSuiteConfig(cfg.Duration)
	suite, err := NewSuite(sc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := gamesim.Run(cfg, suite, suite.Observe)
	if err != nil {
		t.Fatal(err)
	}
	suite.Close()

	// Tables II/III shape.
	t2 := suite.Count.TableII(cfg.Duration)
	if t2.PacketsIn <= t2.PacketsOut {
		t.Error("inbound packet count must exceed outbound (paper Table II)")
	}
	if t2.MeanBWOut <= t2.MeanBWIn {
		t.Error("outbound bandwidth must exceed inbound (paper Table II)")
	}
	t3 := suite.Count.TableIII()
	if !(t3.MeanOut > 3*t3.MeanIn) {
		t.Errorf("outgoing mean (%.1f) should be >3x incoming (%.1f)", t3.MeanOut, t3.MeanIn)
	}

	// Fig 12: inbound sizes narrow around 40 B, outbound wide.
	if f := suite.Sizes.In.CDF()[59]; f < 0.95 {
		t.Errorf("inbound packets <60B = %.2f, want >0.95 (Fig 13)", f)
	}
	outCDF := suite.Sizes.Out.CDF()
	if spread := outCDF[300] - outCDF[20]; spread < 0.8 {
		t.Errorf("outbound sizes should spread over 20-300B, got %.2f of mass", spread)
	}

	// Fig 6/7: at 10 ms the out process is bursty and periodic, in is not.
	w10 := suite.Window(10 * time.Millisecond)
	if w10 == nil {
		t.Fatal("missing 10ms window")
	}
	outPeak := peakToMean(w10.OutPPS())
	inPeak := peakToMean(w10.InPPS())
	if outPeak < 2*inPeak {
		t.Errorf("out burstiness (peak/mean %.1f) should far exceed in (%.1f)", outPeak, inPeak)
	}

	// Fig 8: 50 ms aggregation smooths the total load substantially.
	w50 := suite.Window(50 * time.Millisecond)
	if cv(w50.TotalPPS()) > cv(w10.TotalPPS())/1.5 {
		t.Errorf("50ms bins should be far smoother: cv10=%.2f cv50=%.2f",
			cv(w10.TotalPPS()), cv(w50.TotalPPS()))
	}

	// Fig 5 regions: sub-tick smoothing means H < 1/2 below 50 ms.
	re := Regions(suite.VT.Points(), sc.VarTimeBase, 50*time.Millisecond, 30*time.Minute)
	if re.SubTick.H >= 0.5 {
		t.Errorf("sub-tick H = %.2f, want < 0.5", re.SubTick.H)
	}

	// Fig 11: most sessions below the modem barrier.
	if fr := fractionBelow(suite.Flows, 30*time.Second, 56e3); fr < 0.9 {
		t.Errorf("fraction below 56kbs = %.2f", fr)
	}

	// Fig 3 series exists and respects slot bound + churn.
	if m := slices.Max(suite.Players.Counts()); m > float64(cfg.Slots)+5 {
		t.Errorf("player series max %.0f implausibly high", m)
	}
	if got := len(suite.Players.Counts()); got != 60 {
		t.Errorf("player series has %d minutes, want 60", got)
	}

	// Table I linkage.
	t1 := TableIFromStats(st)
	if t1.Established == 0 || t1.Attempted < t1.Established {
		t.Errorf("TableI = %+v", t1)
	}
	if k := PerSlotKbs(t2, cfg.Slots); k < 25 || k > 55 {
		t.Errorf("per-slot bandwidth %.1f kbs implausible", k)
	}
}

func peakToMean(xs []float64) float64 {
	var sum, peak float64
	for _, x := range xs {
		sum += x
		if x > peak {
			peak = x
		}
	}
	if sum == 0 {
		return 0
	}
	return peak / (sum / float64(len(xs)))
}

func cv(xs []float64) float64 {
	m := stats.Mean(xs)
	if m == 0 {
		return 0
	}
	return math.Sqrt(stats.Variance(xs)) / m
}

func TestSuiteWindowLookup(t *testing.T) {
	suite, err := NewSuite(DefaultSuiteConfig(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if suite.Window(10*time.Millisecond) == nil {
		t.Error("10ms window missing")
	}
	if suite.Window(7*time.Millisecond) != nil {
		t.Error("unexpected window")
	}
	suite.Close()
	suite.Close() // idempotent
}

func TestDefaultSuiteConfigLevels(t *testing.T) {
	sc := DefaultSuiteConfig(626477 * time.Second)
	top := (int64(1) << uint(sc.VarTimeLevels-1)) * int64(sc.VarTimeBase)
	if time.Duration(top) < 30*time.Minute {
		t.Errorf("top aggregation %v must exceed the 30min map period", time.Duration(top))
	}
	if time.Duration(top) > 626477*time.Second {
		t.Errorf("top aggregation %v exceeds the trace", time.Duration(top))
	}
}

var _ trace.Handler = (*Suite)(nil)
