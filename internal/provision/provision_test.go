package provision

import (
	"math"
	"testing"
	"time"

	"cstrace/internal/netem"
)

func TestPaperBudget(t *testing.T) {
	b := PaperBudget()
	// Per active player: ≈24.2 pps in, ≈20 pps out, ≈48.9 kbs duplex.
	if b.InPPS < 23 || b.InPPS > 26 {
		t.Errorf("InPPS = %.2f", b.InPPS)
	}
	if b.OutPPS < 19 || b.OutPPS > 21 {
		t.Errorf("OutPPS = %.2f", b.OutPPS)
	}
	if tb := b.TotalBps(); tb < 47e3 || tb > 51e3 {
		t.Errorf("TotalBps = %.0f", tb)
	}
	// The headline: bandwidth per slot ≈ 40 kbs (modem saturation).
	kbs := b.TotalBps() * 18.05 / 22 / 1e3
	if kbs < 38 || kbs > 42 {
		t.Errorf("per-slot = %.1f kbs, want ≈40", kbs)
	}
}

func TestDemandLinear(t *testing.T) {
	b := PaperBudget()
	d1 := Demand(b, 1, 50*time.Millisecond)
	d22 := Demand(b, 22, 50*time.Millisecond)
	if math.Abs(d22.MeanBps/d1.MeanBps-22) > 1e-9 {
		t.Error("demand not linear in players")
	}
	if d22.TickBurst != 22 {
		t.Errorf("TickBurst = %d, want 22 (one snapshot per player)", d22.TickBurst)
	}
}

func TestAssessBarricadeOneServer(t *testing.T) {
	// The paper's exact scenario: ~20 active players behind the
	// Barricade. The mean load fits the 1250 pps engine, but the device
	// must be flagged infeasible: buffering the tick spike alone eats
	// more than a quarter of the latency budget — the paper's argument
	// for why buffering cannot save this device.
	d := Demand(PaperBudget(), 20, 50*time.Millisecond)
	a, err := Assess(Barricade(), d, 1, DefaultLatencyBudget)
	if err != nil {
		t.Fatal(err)
	}
	if a.Utilization >= 1 {
		t.Errorf("utilization %.2f: mean load should fit the engine", a.Utilization)
	}
	if a.Feasible {
		t.Error("Barricade must be infeasible for a busy server")
	}
	if a.LatencyFrac <= 0.25 {
		t.Errorf("LatencyFrac = %.3f, want > 0.25 (the paper's quarter)", a.LatencyFrac)
	}
	// Burst drain: 20 packets / 1250 pps = 16 ms.
	if a.BurstDrain < 15*time.Millisecond || a.BurstDrain > 17*time.Millisecond {
		t.Errorf("BurstDrain = %v, want ≈16 ms", a.BurstDrain)
	}
	// Inbound pile-up during the drain: ≈ 484 pps × 16 ms ≈ 7.7 packets.
	if a.InboundPileup < 5 || a.InboundPileup > 11 {
		t.Errorf("InboundPileup = %.1f", a.InboundPileup)
	}
}

func TestAssessMidRangeRouterFeasible(t *testing.T) {
	d := Demand(PaperBudget(), 20, 50*time.Millisecond)
	a, err := Assess(MidRangeRouter(), d, 1, DefaultLatencyBudget)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Feasible {
		t.Errorf("10 kpps router should host one server: %s", a.Reason)
	}
}

func TestAssessLossMonotoneInServers(t *testing.T) {
	d := Demand(PaperBudget(), 20, 50*time.Millisecond)
	dev := MidRangeRouter()
	prevIn, prevOut := -1.0, -1.0
	for n := 1; n <= 40; n++ {
		a, err := Assess(dev, d, n, DefaultLatencyBudget)
		if err != nil {
			t.Fatal(err)
		}
		if a.EstLossIn < prevIn || a.EstLossOut < prevOut {
			t.Fatalf("loss estimate decreased at n=%d", n)
		}
		prevIn, prevOut = a.EstLossIn, a.EstLossOut
	}
	// At 40 servers (≈35 kpps offered on a 10 kpps engine) losses must
	// be substantial.
	a, _ := Assess(dev, d, 40, DefaultLatencyBudget)
	if a.Utilization < 1 || a.EstLossIn < 0.5 {
		t.Errorf("40 servers: util %.2f loss %.2f, expected overload", a.Utilization, a.EstLossIn)
	}
}

func TestAssessValidation(t *testing.T) {
	d := Demand(PaperBudget(), 20, 50*time.Millisecond)
	if _, err := Assess(Barricade(), d, 0, 0); err == nil {
		t.Error("accepted zero servers")
	}
	if _, err := Assess(DeviceSpec{}, d, 1, 0); err == nil {
		t.Error("accepted zero-capacity device")
	}
}

func TestMaxServers(t *testing.T) {
	d := Demand(PaperBudget(), 20, 50*time.Millisecond)
	if n := MaxServers(Barricade(), d, DefaultLatencyBudget); n != 0 {
		t.Errorf("Barricade MaxServers = %d, want 0", n)
	}
	n10k := MaxServers(MidRangeRouter(), d, DefaultLatencyBudget)
	if n10k < 1 {
		t.Fatalf("mid-range router hosts %d servers, want ≥ 1", n10k)
	}
	// A 10× bigger device must host more servers (more capacity and
	// deeper queues).
	big := DeviceSpec{Name: "big", LookupPPS: 100000, QueueIn: 1024, QueueOut: 2048}
	nBig := MaxServers(big, d, DefaultLatencyBudget)
	if nBig <= n10k {
		t.Errorf("big router %d ≤ mid-range %d", nBig, n10k)
	}
}

func TestRequiredLookupPPSRoundTrip(t *testing.T) {
	// A device provisioned to the recommendation must assess feasible.
	d := Demand(PaperBudget(), 20, 50*time.Millisecond)
	for _, n := range []int{1, 4, 16} {
		need := RequiredLookupPPS(d, n, DefaultLatencyBudget, 0.25)
		dev := DeviceSpec{
			Name:      "provisioned",
			LookupPPS: need,
			QueueIn:   1 + int(d.MeanInPPS*float64(n)*need/need), // ≥ pile-up
			QueueOut:  d.TickBurst*n + 1,
		}
		// Generous queues; the binding constraints are capacity/latency.
		dev.QueueIn = 10000
		dev.QueueOut = 10000
		a, err := Assess(dev, d, n, DefaultLatencyBudget)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Feasible {
			t.Errorf("n=%d: provisioned device infeasible: %s", n, a.Reason)
		}
		if a.LatencyFrac > 0.2501 {
			t.Errorf("n=%d: latency frac %.4f above target", n, a.LatencyFrac)
		}
	}
}

func TestCheckLastMile(t *testing.T) {
	b := PaperBudget()
	modem := CheckLastMile(b, netem.Modem56k())
	if !modem.Saturated {
		t.Errorf("modem not saturated: down %.2f up %.2f", modem.DownUtil, modem.UpUtil)
	}
	if modem.SaturationRatio < 1 {
		t.Errorf("modem saturation ratio %.2f, want ≥ 1 (the paper's arithmetic)", modem.SaturationRatio)
	}
	if !modem.Fits {
		t.Error("the game is designed to remain playable on a modem")
	}
	lan := CheckLastMile(b, netem.LAN10M())
	if lan.Saturated || !lan.Fits {
		t.Errorf("LAN should be comfortable: %+v", lan)
	}
	dsl := CheckLastMile(b, netem.DSL())
	if dsl.Saturated {
		t.Errorf("DSL should not be saturated: ratio %.2f", dsl.SaturationRatio)
	}
	// Downstream demand ≈30 kbs into a 45 kbs modem, upstream ≈18.9 kbs
	// into 31.2 kbs: busy in both directions.
	if modem.DownUtil < 0.5 || modem.UpUtil < 0.5 {
		t.Errorf("modem utilizations too low: %+v", modem)
	}
}

func TestPlanFor(t *testing.T) {
	b := PaperBudget()
	p, err := PlanFor(b, 1000, 22, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if p.Servers != 46 { // ceil(1000/22)
		t.Errorf("servers = %d, want 46", p.Servers)
	}
	// 1000 players × ≈48.9 kbs ≈ 49 Mbs.
	if p.TotalBps < 45e6 || p.TotalBps > 53e6 {
		t.Errorf("TotalBps = %.0f", p.TotalBps)
	}
	if p.TotalMeanPPS < 40000 || p.TotalMeanPPS > 50000 {
		t.Errorf("TotalMeanPPS = %.0f", p.TotalMeanPPS)
	}
	if p.PeakPPS <= p.TotalMeanPPS {
		t.Error("peak must exceed mean under aligned bursts")
	}
	if p.MinLookupPPS <= 0 {
		t.Error("no capacity recommendation")
	}
	if _, err := PlanFor(b, 0, 22, 50*time.Millisecond); err == nil {
		t.Error("accepted zero players")
	}
}

func TestScaleStudyMonotone(t *testing.T) {
	// Sanity for the "Microsoft/Sony launch" extrapolation in §IV-A:
	// requirements must scale linearly with population.
	b := PaperBudget()
	p1, _ := PlanFor(b, 10000, 22, 50*time.Millisecond)
	p2, _ := PlanFor(b, 20000, 22, 50*time.Millisecond)
	if r := p2.TotalBps / p1.TotalBps; math.Abs(r-2) > 1e-9 {
		t.Errorf("bandwidth ratio = %f, want 2", r)
	}
	if p2.Servers < 2*p1.Servers-1 {
		t.Errorf("server count not ~linear: %d vs %d", p1.Servers, p2.Servers)
	}
}

func TestPlanPeakMatchesFig6Ratio(t *testing.T) {
	// One 22-slot server at the paper's occupancy: the 10 ms-window peak
	// must sit near Fig 6's ≈2400-2700 pps against the ≈800 pps mean.
	b := PaperBudget()
	p, err := PlanFor(b, 18, 22, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ratio := p.PeakPPS / p.TotalMeanPPS
	if ratio < 2 || ratio > 5 {
		t.Errorf("peak/mean = %.1f, want ≈3 (Fig 6)", ratio)
	}
}
