package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"cstrace/internal/analysis"
	"cstrace/internal/hurst"
	"cstrace/internal/nat"
	"cstrace/internal/trace"
)

func TestTableRendering(t *testing.T) {
	var b strings.Builder
	TableI(&b, analysis.TableI{
		TotalTime: 626477 * time.Second, MapsPlayed: 339,
		Established: 16030, UniqueEstablishing: 5886,
		Attempted: 24004, UniqueAttempting: 8207,
		MeanSessionSec: 705, MeanPlayers: 18.05,
	})
	out := b.String()
	for _, want := range []string{"Table I", "7 d, 6 h, 1 m", "16030", "8207", "339"} {
		if !strings.Contains(out, want) {
			t.Errorf("TableI output missing %q:\n%s", want, out)
		}
	}
}

func TestTableIIandIII(t *testing.T) {
	var b strings.Builder
	var c analysis.Counters
	TableII(&b, c.TableII(time.Second))
	TableIII(&b, c.TableIII())
	out := b.String()
	if !strings.Contains(out, "Table II") || !strings.Contains(out, "Table III") {
		t.Error(out)
	}
}

func TestTableIV(t *testing.T) {
	var b strings.Builder
	TableIV(&b, nat.Counts{
		ServerToNAT: 677278, NATToClients: 674157,
		ClientToNAT: 853035, NATToServer: 841960,
	})
	out := b.String()
	if !strings.Contains(out, "0.461%") {
		t.Errorf("expected outgoing loss 0.461%% in:\n%s", out)
	}
	if !strings.Contains(out, "1.298%") {
		t.Errorf("expected incoming loss 1.298%% in:\n%s", out)
	}
}

func TestSeries(t *testing.T) {
	var b strings.Builder
	ys := make([]float64, 1000)
	for i := range ys {
		ys[i] = float64(i % 100)
	}
	Series(&b, "load", ys, 40, 5)
	out := b.String()
	if !strings.Contains(out, "#") {
		t.Error("chart has no bars")
	}
	if !strings.Contains(out, "n=1000") {
		t.Error("missing sample count")
	}
	lines := strings.Split(out, "\n")
	var plotted int
	for _, l := range lines {
		if strings.HasPrefix(l, "  |") {
			plotted++
			if len(l) > 3+40 {
				t.Errorf("row too wide: %q", l)
			}
		}
	}
	if plotted != 5 {
		t.Errorf("plotted %d rows, want 5", plotted)
	}

	b.Reset()
	Series(&b, "empty", nil, 10, 3)
	if !strings.Contains(b.String(), "(no data)") {
		t.Error("empty series should say so")
	}

	b.Reset()
	Series(&b, "zeros", []float64{0, 0, 0}, 10, 3)
	if strings.Contains(b.String(), "#") {
		t.Error("all-zero series should draw nothing")
	}
}

func TestVarianceTime(t *testing.T) {
	var b strings.Builder
	pts := []hurst.Point{
		{M: 1, Log10M: 0, NormVar: 1, Log10Var: 0, BlockCount: 100},
		{M: 10, Log10M: 1, NormVar: 0.1, Log10Var: -1, BlockCount: 10},
	}
	re := analysis.RegionEstimates{}
	VarianceTime(&b, pts, re)
	out := b.String()
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "H (m < 50ms)") {
		t.Error(out)
	}
}

func TestSizePDF(t *testing.T) {
	var b strings.Builder
	SizePDF(&b, "Fig 12", []float64{0.5, 0.25, 0.25}, 10, 2)
	out := b.String()
	if !strings.Contains(out, "0-9") || strings.Contains(out, "20-29") {
		t.Errorf("bin rendering wrong:\n%s", out)
	}
}

func TestResample(t *testing.T) {
	ys := []float64{1, 1, 3, 3}
	got := resample(ys, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("resample = %v", got)
	}
	short := resample([]float64{5}, 10)
	if len(short) != 1 || short[0] != 5 {
		t.Errorf("short resample = %v", short)
	}
}

func TestSizeCDF(t *testing.T) {
	d := analysis.NewSizeDist(600)
	var rs []trace.Record
	for i := 0; i < 90; i++ {
		rs = append(rs, trace.Record{Dir: trace.In, App: 40}, trace.Record{Dir: trace.Out, App: 130})
	}
	for i := 0; i < 10; i++ {
		rs = append(rs, trace.Record{Dir: trace.Out, App: 300})
	}
	d.HandleBatch(rs)
	var buf bytes.Buffer
	SizeCDF(&buf, "Figure 13", d)
	out := buf.String()
	if !strings.Contains(out, "Figure 13") {
		t.Error("missing title")
	}
	// Inbound p50 must be 40B; outbound p99 is 300B.
	if !strings.Contains(out, "40B") || !strings.Contains(out, "300B") {
		t.Errorf("quantiles missing from output:\n%s", out)
	}
}

func TestComposition(t *testing.T) {
	k := analysis.NewKindBreakdown()
	var rs []trace.Record
	for i := 0; i < 9; i++ {
		rs = append(rs, trace.Record{Kind: trace.KindGame, App: 100})
	}
	k.HandleBatch(append(rs, trace.Record{Kind: trace.KindDownload, App: 900}))
	var buf bytes.Buffer
	Composition(&buf, k)
	out := buf.String()
	if !strings.Contains(out, "game") || !strings.Contains(out, "download") {
		t.Errorf("composition output missing classes:\n%s", out)
	}
	if !strings.Contains(out, "90.00%") {
		t.Errorf("share missing:\n%s", out)
	}
}

func TestBurstiness(t *testing.T) {
	ia := analysis.NewInterarrival()
	var rs []trace.Record
	for i := 0; i < 100; i++ {
		t := time.Duration(i) * time.Millisecond
		rs = append(rs, trace.Record{T: t, Dir: trace.In}, trace.Record{T: t, Dir: trace.Out})
	}
	ia.HandleBatch(rs)
	var buf bytes.Buffer
	Burstiness(&buf, ia, 50*time.Millisecond, 0.97)
	out := buf.String()
	if !strings.Contains(out, "recovered server tick: 50ms") {
		t.Errorf("tick line missing:\n%s", out)
	}
	if !strings.Contains(out, "in") || !strings.Contains(out, "out") {
		t.Errorf("direction rows missing:\n%s", out)
	}
}
