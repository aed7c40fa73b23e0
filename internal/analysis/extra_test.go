package analysis

import (
	"testing"
	"time"

	"cstrace/internal/trace"
)

func TestInterarrivalMeanAndCV(t *testing.T) {
	ia := NewInterarrival()
	// Inbound: perfectly regular 10 ms spacing → CV ≈ 0.
	var rs []trace.Record
	for i := 0; i < 1000; i++ {
		rs = append(rs, trace.Record{T: time.Duration(i) * 10 * time.Millisecond, Dir: trace.In})
	}
	// Outbound: bursts of 5 back-to-back (1 µs apart) every 50 ms → CV ≫ 1.
	for tick := 0; tick < 200; tick++ {
		base := time.Duration(tick) * 50 * time.Millisecond
		for j := 0; j < 5; j++ {
			rs = append(rs, trace.Record{T: base + time.Duration(j)*time.Microsecond, Dir: trace.Out})
		}
	}
	ia.HandleBatch(rs)

	if m := ia.Mean(trace.In); m < 0.0099 || m > 0.0101 {
		t.Errorf("inbound mean = %f, want ~0.010", m)
	}
	if cv := ia.CV(trace.In); cv > 0.01 {
		t.Errorf("inbound CV = %f, want ~0", cv)
	}
	if cv := ia.CV(trace.Out); cv < 1.5 {
		t.Errorf("outbound CV = %f, want ≫ 1 (bursty)", cv)
	}
	// Outbound median is a within-burst gap; the 90th percentile is the
	// tick gap.
	if q := ia.Quantile(trace.Out, 0.5); q > time.Millisecond {
		t.Errorf("outbound median %v, want sub-millisecond (within burst)", q)
	}
	if q := ia.Quantile(trace.Out, 0.9); q < 30*time.Millisecond {
		t.Errorf("outbound p90 %v, want ≈ tick scale", q)
	}
}

func TestInterarrivalHistogramTotals(t *testing.T) {
	ia := NewInterarrival()
	var rs []trace.Record
	for i := 0; i < 100; i++ {
		rs = append(rs, trace.Record{T: time.Duration(i) * time.Millisecond, Dir: trace.In})
	}
	ia.HandleBatch(rs)
	_, counts := ia.Histogram(trace.In)
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if sum != 99 { // n packets → n−1 gaps
		t.Errorf("histogram total = %d, want 99", sum)
	}
}

func TestInterarrivalEmpty(t *testing.T) {
	ia := NewInterarrival()
	if ia.Mean(trace.In) != 0 || ia.CV(trace.Out) != 0 {
		t.Error("empty collector must report zeros")
	}
	if q := ia.Quantile(trace.In, 0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
}

func TestKindBreakdown(t *testing.T) {
	kb := NewKindBreakdown()
	var rs []trace.Record
	for i := 0; i < 90; i++ {
		rs = append(rs, trace.Record{Kind: trace.KindGame, App: 100})
	}
	for i := 0; i < 8; i++ {
		rs = append(rs, trace.Record{Kind: trace.KindDownload, App: 500})
	}
	for i := 0; i < 2; i++ {
		rs = append(rs, trace.Record{Kind: trace.KindHandshake, App: 20})
	}
	kb.HandleBatch(rs)
	rows := kb.Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Kind != trace.KindGame || rows[0].Packets != 90 {
		t.Errorf("top row = %+v", rows[0])
	}
	if rows[0].AppBytes != 9000 {
		t.Errorf("game app bytes = %d", rows[0].AppBytes)
	}
	if rows[0].WireBytes != 90*(100+58) {
		t.Errorf("game wire bytes = %d", rows[0].WireBytes)
	}
	if s := kb.Share(trace.KindGame); s != 0.9 {
		t.Errorf("game share = %f", s)
	}
	if s := kb.Share(trace.KindVoice); s != 0 {
		t.Errorf("voice share = %f", s)
	}
}

func TestPeriodicityDetectsTick(t *testing.T) {
	// Outbound bursts of 20 packets every 50 ms, binned at 10 ms: the
	// autocorrelation must peak at lag 5.
	p := NewPeriodicity(trace.Out, 10*time.Millisecond, 20)
	var rs []trace.Record
	for tick := 0; tick < 2000; tick++ {
		base := time.Duration(tick) * 50 * time.Millisecond
		for j := 0; j < 20; j++ {
			rs = append(rs, trace.Record{T: base + time.Duration(j)*100*time.Microsecond, Dir: trace.Out})
		}
		// Inbound noise must be ignored by the Out detector.
		rs = append(rs, trace.Record{T: base + 7*time.Millisecond, Dir: trace.In})
	}
	p.HandleBatch(rs)
	p.Flush()
	tick, corr := p.Tick()
	if tick != 50*time.Millisecond {
		t.Errorf("tick = %v, want 50ms (corr %.3f)", tick, corr)
	}
	if corr < 0.5 {
		t.Errorf("peak correlation = %.3f, want strong", corr)
	}
}

func TestPeriodicityNoSignal(t *testing.T) {
	// A constant-rate stream has no positive autocorrelation peak after
	// mean removal: every bin identical → zero variance → no tick.
	p := NewPeriodicity(trace.In, 10*time.Millisecond, 20)
	var rs []trace.Record
	for i := 0; i < 5000; i++ {
		rs = append(rs, trace.Record{T: time.Duration(i) * time.Millisecond, Dir: trace.In})
	}
	p.HandleBatch(rs)
	p.Flush()
	if tick, corr := p.Tick(); tick != 0 {
		t.Errorf("detected spurious tick %v (corr %.3f)", tick, corr)
	}
}

func TestPeriodicityEmptyAndTiny(t *testing.T) {
	p := NewPeriodicity(trace.Out, 10*time.Millisecond, 10)
	if ac := p.Autocorrelation(); ac != nil {
		t.Error("empty detector returned autocorrelation")
	}
	p.HandleBatch([]trace.Record{{T: 0, Dir: trace.Out}})
	p.Flush()
	if tick, _ := p.Tick(); tick != 0 {
		t.Errorf("single-bin detector found tick %v", tick)
	}
}

func TestPeriodicityOnGeneratedTraffic(t *testing.T) {
	// End-to-end: the generator's outbound stream must reveal its own
	// tick. Build a tiny synthetic broadcast pattern mimicking gamesim
	// output shape (jittered burst offsets) to keep the test fast.
	p := NewPeriodicity(trace.Out, 10*time.Millisecond, 30)
	var rs []trace.Record
	for tick := 0; tick < 3000; tick++ {
		base := time.Duration(tick) * 50 * time.Millisecond
		for j := 0; j < 18; j++ {
			off := time.Duration(j) * 120 * time.Microsecond
			rs = append(rs, trace.Record{T: base + off, Dir: trace.Out, App: 130})
		}
	}
	p.HandleBatch(rs)
	p.Flush()
	tick, _ := p.Tick()
	if tick != 50*time.Millisecond {
		t.Errorf("tick = %v, want 50ms", tick)
	}
}
