package gamesim

import (
	"math"
	"testing"
	"time"

	"cstrace/internal/trace"
	"cstrace/internal/units"
)

// The paper's published aggregates (Tables I-III) and the tolerance the
// calibrated generator must meet. Table I quantities are checked on a
// control-plane-only full-week run (cheap); traffic rates on a 24-hour
// windowed run, normalized per player to factor out arrival stochasticity.
const (
	paperAttempts    = 24004
	paperEstablished = 16030
	paperUniqueAtt   = 8207
	paperUniqueEst   = 5886
	paperMaps        = 339
	paperMeanPlayers = 18.05 // 360.99 out-pps / 20 snapshots per player-second

	paperInPPSPerPlayer  = 437.12 / paperMeanPlayers // 24.2
	paperOutPPSPerPlayer = 360.99 / paperMeanPlayers // 20.0
	paperMeanIn          = 39.72
	paperMeanOut         = 129.51
)

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero target", name)
	}
	rel := math.Abs(got-want) / want
	if rel > tol {
		t.Errorf("%s = %.2f, want %.2f (off by %.1f%%, tolerance %.0f%%)",
			name, got, want, rel*100, tol*100)
	} else {
		t.Logf("%s = %.2f (paper %.2f, off %.1f%%)", name, got, want, rel*100)
	}
}

func TestCalibrationTableI(t *testing.T) {
	if testing.Short() {
		t.Skip("full-week control-plane run")
	}
	st, err := Run(PaperConfig(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "attempts", float64(st.Attempts), paperAttempts, 0.12)
	within(t, "established", float64(st.Established), paperEstablished, 0.12)
	within(t, "refused", float64(st.Refused), paperAttempts-paperEstablished, 0.15)
	within(t, "unique attempting", float64(st.UniqueAttempting), paperUniqueAtt, 0.12)
	within(t, "unique establishing", float64(st.UniqueEstablishing), paperUniqueEst, 0.12)
	within(t, "maps played", float64(st.MapsPlayed), paperMaps, 0.02)
	within(t, "mean players", st.MeanPlayers(), paperMeanPlayers, 0.06)
	if st.MaxConcurrent != 22 {
		t.Errorf("a busy server must fill all 22 slots; max %d", st.MaxConcurrent)
	}
}

func TestCalibrationTrafficRates(t *testing.T) {
	if testing.Short() {
		t.Skip("24h traffic run")
	}
	cfg := PaperConfig(2)
	cfg.Duration = 24 * time.Hour
	cfg.Outages = nil

	var pktIn, pktOut, appIn, appOut int64
	st, err := Run(cfg, trace.HandlerFunc(func(r trace.Record) {
		if r.Dir == trace.In {
			pktIn++
			appIn += int64(r.App)
		} else {
			pktOut++
			appOut += int64(r.App)
		}
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	players := st.MeanPlayers()
	sec := cfg.Duration.Seconds()

	within(t, "in pps per player", float64(pktIn)/sec/players, paperInPPSPerPlayer, 0.05)
	within(t, "out pps per player", float64(pktOut)/sec/players, paperOutPPSPerPlayer, 0.05)
	within(t, "mean in payload", float64(appIn)/float64(pktIn), paperMeanIn, 0.03)
	within(t, "mean out payload", float64(appOut)/float64(pktOut), paperMeanOut, 0.05)

	// The headline observation: scaled to the paper's mean player count, the
	// server consumes ~40 kbs per slot — the last-mile modem saturation.
	wire := float64(appIn+appOut) + float64(pktIn+pktOut)*units.WireOverhead
	bwAtPaperLoad := wire * 8 / sec * (paperMeanPlayers / players)
	within(t, "per-slot kbs at paper load", bwAtPaperLoad/1e3/22, 40.1, 0.06)
}

func TestCalibrationEliteTail(t *testing.T) {
	if testing.Short() {
		t.Skip("2h traffic run")
	}
	// Fig 11: the overwhelming majority of sessions sit at or below modem
	// rates; a handful of "l337" high-rate clients exceed 56 kbs.
	cfg := PaperConfig(3)
	cfg.Duration = 2 * time.Hour
	cfg.Outages = nil

	type flow struct {
		first, last time.Duration
		wire        int64
	}
	flows := map[uint32]*flow{}
	_, err := Run(cfg, trace.HandlerFunc(func(r trace.Record) {
		if r.Client == 0 {
			return
		}
		f := flows[r.Client]
		if f == nil {
			f = &flow{first: r.T}
			flows[r.Client] = f
		}
		f.last = r.T
		f.wire += int64(r.Wire())
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	var total, below, above int
	for _, f := range flows {
		d := (f.last - f.first).Seconds()
		if d < 30 {
			continue
		}
		total++
		bps := float64(f.wire) * 8 / d
		if bps < 56e3 { // the paper's 56 kbps modem barrier
			below++
		} else {
			above++
		}
	}
	if total < 50 {
		t.Fatalf("too few qualifying sessions: %d", total)
	}
	fracBelow := float64(below) / float64(total)
	if fracBelow < 0.95 {
		t.Errorf("%.1f%% of sessions below 56 kbs, want >95%% (modem saturation)", fracBelow*100)
	}
	if above == 0 {
		t.Error("expected a handful of high-rate sessions above the modem barrier")
	}
	t.Logf("%d sessions: %.1f%% below 56 kbs, %d above", total, fracBelow*100, above)
}
