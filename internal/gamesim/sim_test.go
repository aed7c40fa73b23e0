package gamesim

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"cstrace/internal/dist"
	"cstrace/internal/trace"
)

// shortConfig returns a fast config for functional tests: a small server
// with quick maps and rounds.
func shortConfig(seed uint64, d time.Duration) Config {
	c := PaperConfig(seed)
	c.Duration = d
	c.Warmup = 0
	c.Outages = nil
	c.AttemptRate = 0.5 // fill the server fast
	c.DiurnalAmp = 0
	c.SessionMean = 300
	c.MapDuration = 5 * time.Minute
	c.MapChangePause = 10 * time.Second
	return c
}

// TestValidate runs one table over the rules. From "zero-byte logo
// packets" on, each rejected config is one Run used to accept and then hang
// on (a zero-byte logo packet, a gap that truncates to zero) or deliver out of
// time order (a burst longer than its tick); the accepted ones sit just
// inside a rule. The package's own configs must all stay valid.
func TestValidate(t *testing.T) {
	tick := busyConfig(1, 0, time.Second).TickInterval
	fits := tick / 21 // the longest spacing at which 22 packets end inside the tick
	for name, c := range map[string]struct {
		mut    func(*Config)
		reject bool
	}{
		"zero Duration":                  {func(c *Config) { c.Duration = 0 }, true},
		"zero Slots":                     {func(c *Config) { c.Slots = 0 }, true},
		"zero TickInterval":              {func(c *Config) { c.TickInterval = 0 }, true},
		"zero AttemptRate":               {func(c *Config) { c.AttemptRate = 0 }, true},
		"zero SessionMean":               {func(c *Config) { c.SessionMean = 0 }, true},
		"zero Population":                {func(c *Config) { c.Population = 0 }, true},
		"zero CmdRate":                   {func(c *Config) { c.CmdRate = 0 }, true},
		"zero SnapMax":                   {func(c *Config) { c.SnapMax = 0 }, true},
		"SnapMax past uint16":            {func(c *Config) { c.SnapMax = 70000 }, true},
		"zero MapDuration":               {func(c *Config) { c.MapDuration = 0 }, true},
		"no RetryDelay":                  {func(c *Config) { c.RetryDelay = nil }, true},
		"NaN command mean":               {func(c *Config) { c.InPayload.Mu = math.NaN() }, true},
		"infinite command spread":        {func(c *Config) { c.InPayload.Sigma = math.Inf(1) }, true},
		"infinite command ceiling":       {func(c *Config) { c.InPayload.High = math.Inf(1) }, true},
		"negative command spread":        {func(c *Config) { c.InPayload.Sigma = -1 }, true},
		"command band upside down":       {func(c *Config) { c.InPayload.Low, c.InPayload.High = 64, 28 }, true},
		"negative command floor":         {func(c *Config) { c.InPayload.Low = -1 }, true},
		"command ceiling past uint16":    {func(c *Config) { c.InPayload.High = 65536 }, true},
		"command band of one point":      {func(c *Config) { c.InPayload.Low, c.InPayload.High = 40, 40 }, false},
		"command band of all of uint16":  {func(c *Config) { c.InPayload.Low, c.InPayload.High = 0, 65535 }, false},
		"no command spread":              {func(c *Config) { c.InPayload.Sigma = 0 }, false},
		"outage before the trace":        {func(c *Config) { c.Outages = []Outage{{At: -time.Second, Duration: time.Second}} }, true},
		"outage past the trace":          {func(c *Config) { c.Outages = []Outage{{At: 0, Duration: 2 * PaperDuration}} }, true},
		"zero-byte logo packets":         {func(c *Config) { c.LogoPacket, c.LogoDownloadProb = 0, 1 }, true},
		"negative logo packets":          {func(c *Config) { c.LogoPacket = -1 }, true},
		"zero logo rate":                 {func(c *Config) { c.LogoRate = 0 }, true},
		"no logos, no logo knobs":        {func(c *Config) { c.LogoDownloadProb, c.LogoUploadProb, c.LogoPacket, c.LogoRate = 0, 0, 0, 0 }, false},
		"burst longer than its tick":     {func(c *Config) { c.BurstSpacing = 5 * time.Millisecond }, true},
		"burst 1 ns per gap too long":    {func(c *Config) { c.BurstSpacing = fits + 1 }, true},
		"burst just inside its tick":     {func(c *Config) { c.BurstSpacing = fits }, false},
		"burst of exactly one tick":      {func(c *Config) { c.Slots, c.BurstSpacing = 26, tick/25 }, true},
		"burst 1 ns per gap short of it": {func(c *Config) { c.Slots, c.BurstSpacing = 26, tick/25-1 }, false},
		"negative burst spacing":         {func(c *Config) { c.BurstSpacing = -time.Millisecond }, true},
		"long spacing, no burst":         {func(c *Config) { c.BurstSpacing, c.DesynchronizeTicks = 5*time.Millisecond, true }, false},
		"jitter of a whole gap":          {func(c *Config) { c.CmdJitter = 1 }, true},
		"negative jitter":                {func(c *Config) { c.CmdJitter = -0.1 }, true},
		"NaN jitter":                     {func(c *Config) { c.CmdJitter = math.NaN() }, true},
		"no jitter":                      {func(c *Config) { c.CmdJitter = 0 }, false},
		"elites without a command rate":  {func(c *Config) { c.EliteCmdRate = 0 }, true},
		"elites without a snapshot rate": {func(c *Config) { c.EliteSnapHz = -44 }, true},
		"no elites, no elite rates":      {func(c *Config) { c.EliteFrac, c.EliteCmdRate, c.EliteSnapHz = 0, 0, 0 }, false},
		"NaN command rate":               {func(c *Config) { c.CmdRate = math.NaN() }, true},
		"NaN attempt rate":               {func(c *Config) { c.AttemptRate = math.NaN() }, true},
		"NaN elite snapshot rate":        {func(c *Config) { c.EliteSnapHz = math.NaN() }, true},
		"commands 0 ns apart":            {func(c *Config) { c.CmdRate = 2e9 }, true},
		"elite snapshots 0 ns apart":     {func(c *Config) { c.EliteSnapHz = 2e9 }, true},
		"negative SnapMin":               {func(c *Config) { c.SnapMin = -1 }, true},
		"SnapMin above SnapMax":          {func(c *Config) { c.SnapMin = c.SnapMax + 1 }, true},
		"SnapMin at SnapMax":             {func(c *Config) { c.SnapMin = c.SnapMax }, false},
	} {
		cfg := busyConfig(1, 10*time.Minute, 20*time.Second)
		c.mut(&cfg)
		if err := cfg.Validate(); (err != nil) != c.reject {
			t.Errorf("%s: Validate = %v, want rejected %v", name, err, c.reject)
		}
	}
	valid := map[string]Config{
		"PaperConfig":         PaperConfig(1),
		"NATExperimentConfig": NATExperimentConfig(1),
		"busyConfig":          busyConfig(1, 10*time.Minute, 20*time.Second),
	}
	for i := 0; i < 8; i++ {
		valid[fmt.Sprintf("launch-day server %d", i)] = launchServer(11, i, 4*time.Minute)
	}
	for name, cfg := range valid {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Stats, int, uint64) {
		var n int
		var sum uint64
		h := trace.HandlerFunc(func(r trace.Record) {
			n++
			sum = sum*1099511628211 ^ uint64(r.T) ^ uint64(r.App)<<32 ^ uint64(r.Client)
		})
		st, err := Run(shortConfig(42, 10*time.Minute), h, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st, n, sum
	}
	s1, n1, h1 := run()
	s2, n2, h2 := run()
	if n1 != n2 || h1 != h2 {
		t.Errorf("same seed produced different traces: n=%d/%d hash=%x/%x", n1, n2, h1, h2)
	}
	if s1 != s2 {
		t.Errorf("same seed produced different stats:\n%+v\n%+v", s1, s2)
	}

	var n3 int
	st3, err := Run(shortConfig(43, 10*time.Minute), trace.HandlerFunc(func(trace.Record) { n3++ }), nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = st3
	if n3 == n1 {
		t.Log("different seeds produced same record count (possible but unlikely)")
	}
}

func TestBoundedDisorderAndRange(t *testing.T) {
	cfg := shortConfig(7, 8*time.Minute)
	var maxT, prev time.Duration
	var worst time.Duration
	_, err := Run(cfg, trace.HandlerFunc(func(r trace.Record) {
		if r.T < 0 || r.T >= cfg.Duration {
			t.Fatalf("record time %v outside [0, %v)", r.T, cfg.Duration)
		}
		if d := prev - r.T; d > worst {
			worst = d
		}
		prev = r.T
		if r.T > maxT {
			maxT = r.T
		}
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if worst > cfg.TickInterval {
		t.Errorf("stream disorder %v exceeds one tick (%v)", worst, cfg.TickInterval)
	}
	if maxT < cfg.Duration-2*time.Second {
		t.Errorf("traffic ends at %v, long before %v", maxT, cfg.Duration)
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	cfg := shortConfig(3, 15*time.Minute)
	cfg.AttemptRate = 2 // hammer the server
	maxSeen := 0
	st, err := Run(cfg, nil, func(ev SessionEvent) {
		if ev.Players > maxSeen {
			maxSeen = ev.Players
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxSeen > cfg.Slots {
		t.Errorf("player count reached %d, slots %d", maxSeen, cfg.Slots)
	}
	if st.MaxConcurrent != maxSeen {
		t.Errorf("MaxConcurrent=%d, events saw %d", st.MaxConcurrent, maxSeen)
	}
	if st.MaxConcurrent != cfg.Slots {
		t.Errorf("overloaded server should fill all %d slots, got %d", cfg.Slots, st.MaxConcurrent)
	}
	if st.Refused == 0 {
		t.Error("overloaded server should refuse connections")
	}
}

func TestAccountingIdentities(t *testing.T) {
	var in, out int64
	st, err := Run(shortConfig(11, 12*time.Minute), trace.HandlerFunc(func(r trace.Record) {
		if r.Dir == trace.In {
			in++
		} else {
			out++
		}
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Attempts != st.Established+st.Refused {
		t.Errorf("attempts %d != established %d + refused %d", st.Attempts, st.Established, st.Refused)
	}
	if st.PacketsIn != in || st.PacketsOut != out {
		t.Errorf("stats packets (%d,%d) != handler counts (%d,%d)", st.PacketsIn, st.PacketsOut, in, out)
	}
	if st.UniqueAttempting < st.UniqueEstablishing {
		t.Error("unique attempting must dominate unique establishing")
	}
	if st.Established > 0 && st.MeanSessionSec() <= 0 {
		t.Error("mean session must be positive")
	}
	if st.MeanPlayers() <= 0 || st.MeanPlayers() > float64(PaperConfig(1).Slots) {
		t.Errorf("mean players = %v", st.MeanPlayers())
	}
}

func TestTickPeriodicity(t *testing.T) {
	// The defining claim of the paper: outbound traffic is concentrated in
	// bursts at 50 ms boundaries, while inbound traffic is not.
	cfg := shortConfig(5, 5*time.Minute)
	var outAligned, outTotal, inAligned, inTotal float64
	_, err := Run(cfg, trace.HandlerFunc(func(r trace.Record) {
		phase := r.T % cfg.TickInterval
		aligned := phase < 2*time.Millisecond
		if r.Dir == trace.Out {
			outTotal++
			if aligned {
				outAligned++
			}
		} else {
			inTotal++
			if aligned {
				inAligned++
			}
		}
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if outTotal == 0 || inTotal == 0 {
		t.Fatal("no traffic generated")
	}
	if frac := outAligned / outTotal; frac < 0.9 {
		t.Errorf("only %.2f of outbound packets at tick boundaries, want >0.9", frac)
	}
	// Inbound should be roughly uniform over the tick: ~4% in a 2 ms slot.
	if frac := inAligned / inTotal; frac > 0.15 {
		t.Errorf("%.2f of inbound packets at tick boundaries; should be unsynchronized", frac)
	}
}

func TestDesyncAblationSpreadsBursts(t *testing.T) {
	sync := shortConfig(9, 3*time.Minute)
	desync := sync
	desync.DesynchronizeTicks = true

	peakToMean := func(cfg Config) float64 {
		bins := make([]float64, 0, 20000)
		_, err := Run(cfg, trace.HandlerFunc(func(r trace.Record) {
			if r.Dir != trace.Out {
				return
			}
			i := int(r.T / (10 * time.Millisecond))
			for len(bins) <= i {
				bins = append(bins, 0)
			}
			bins[i]++
		}), nil)
		if err != nil {
			t.Fatal(err)
		}
		var sum, peak float64
		for _, b := range bins {
			sum += b
			if b > peak {
				peak = b
			}
		}
		if sum == 0 {
			t.Fatal("no outbound traffic")
		}
		return peak / (sum / float64(len(bins)))
	}
	ps := peakToMean(sync)
	pd := peakToMean(desync)
	if ps < 2*pd {
		t.Errorf("synchronized ticks should be far burstier at 10ms: sync peak/mean %.1f, desync %.1f", ps, pd)
	}
}

func TestOutageSilencesTrafficAndDropsPlayers(t *testing.T) {
	cfg := shortConfig(13, 10*time.Minute)
	cfg.Outages = []Outage{{At: 4 * time.Minute, Duration: 15 * time.Second}}
	oStart, oEnd := cfg.Outages[0].At, cfg.Outages[0].At+cfg.Outages[0].Duration

	var inOutage int
	minAfter := 1 << 30
	_, err := Run(cfg, trace.HandlerFunc(func(r trace.Record) {
		if r.T >= oStart+cfg.TickInterval && r.T < oEnd {
			inOutage++
		}
	}), func(ev SessionEvent) {
		if ev.T >= oEnd && ev.T < oEnd+time.Second && ev.Players < minAfter {
			minAfter = ev.Players
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if inOutage > 0 {
		t.Errorf("%d packets during outage, want 0", inOutage)
	}
	if minAfter > 2 {
		t.Errorf("players right after outage bottom out at %d, want near 0 (mass disconnect)", minAfter)
	}
}

func TestMapChangeStopsSnapshots(t *testing.T) {
	cfg := shortConfig(17, 12*time.Minute)
	// First changeover: [5min, 5min+10s).
	pause0 := cfg.MapDuration
	pause1 := pause0 + cfg.MapChangePause
	var outInPause, inInPause, outBefore float64
	_, err := Run(cfg, trace.HandlerFunc(func(r trace.Record) {
		// Handshake replies (connection rejects) legitimately continue
		// during the changeover; the claim is about game snapshots.
		if r.Kind != trace.KindGame {
			return
		}
		switch {
		case r.T >= pause0+cfg.TickInterval && r.T < pause1:
			if r.Dir == trace.Out {
				outInPause++
			} else {
				inInPause++
			}
		case r.T >= pause0-30*time.Second && r.T < pause0:
			if r.Dir == trace.Out {
				outBefore++
			}
		}
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if outBefore == 0 {
		t.Fatal("no traffic before map change")
	}
	if outInPause > 0 {
		t.Errorf("server sent %v snapshots during changeover, want 0", outInPause)
	}
	if inInPause == 0 {
		t.Error("clients should keep trickling keepalives during changeover")
	}
}

func TestMapsPlayedCount(t *testing.T) {
	// 5 min maps + 10 s pause: maps start at 0, 5:10, 10:20, 15:30, 20:40,
	// 25:50 on the server's clock. A map in progress as recording starts is
	// one of the maps played; a changeover in progress is not.
	// Every 21-minute window below therefore plays five.
	for _, c := range []struct {
		name   string
		warmup time.Duration
	}{
		{"no warm-up", 0}, // 0 … 20:40
		{"recording starts mid-map", 2 * time.Minute},                 // the first map, 5:10 … 20:40
		{"recording starts mid-pause", 5*time.Minute + 5*time.Second}, // 5:10 … 25:50
		{"recording starts with a map", 5*time.Minute + 10*time.Second},
		{"recording starts just into a map", 5*time.Minute + 11*time.Second}, // the second map, 10:20 … 25:50
	} {
		cfg := shortConfig(19, 21*time.Minute)
		cfg.Warmup = c.warmup
		st, err := Run(cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.MapsPlayed != 5 {
			t.Errorf("%s: MapsPlayed = %d, want 5", c.name, st.MapsPlayed)
		}
	}
}

// TestControlPlaneOnlyRunIsCheapAndEquivalent pins what lazy warm-up relies
// on: the control-plane stream is consumed only by control-plane events, so every
// session-level statistic and the whole event sequence are the same whether
// or not a packet is ever planned — through a warm-up longer than a map
// cycle included.
func TestControlPlaneOnlyRunIsCheapAndEquivalent(t *testing.T) {
	for _, warmup := range []time.Duration{0, 6*time.Minute + 30*time.Second} {
		cfg := shortConfig(23, 10*time.Minute)
		cfg.Warmup = warmup
		cfg.Outages = []Outage{{At: 4 * time.Minute, Duration: 10 * time.Second}}
		var fullEv, ctrlEv []SessionEvent
		full, err := Run(cfg, trace.HandlerFunc(func(trace.Record) {}), func(ev SessionEvent) { fullEv = append(fullEv, ev) })
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := Run(cfg, nil, func(ev SessionEvent) { ctrlEv = append(ctrlEv, ev) })
		if err != nil {
			t.Fatal(err)
		}
		if full.PacketsIn == 0 || full.PacketsOut == 0 {
			t.Fatal("full run generated no traffic")
		}
		want := full // but for the packets a control-plane run never counts
		want.PacketsIn, want.PacketsOut, want.AppBytesIn, want.AppBytesOut = 0, 0, 0, 0
		if ctrl != want {
			t.Errorf("Warmup=%v: control-plane stats diverge:\nfull: %+v\nctrl: %+v", warmup, full, ctrl)
		}
		if len(ctrlEv) == 0 || !slices.Equal(fullEv, ctrlEv) {
			t.Errorf("Warmup=%v: event sequences differ (%d events with traffic, %d without)", warmup, len(fullEv), len(ctrlEv))
		}
	}
}

func TestEventOrderingAndBalance(t *testing.T) {
	var last time.Duration
	connects, disconnects := 0, 0
	st, err := Run(shortConfig(29, 10*time.Minute), nil, func(ev SessionEvent) {
		if ev.T < last {
			t.Fatalf("event time went backwards: %v after %v", ev.T, last)
		}
		last = ev.T
		switch ev.Type {
		case EventConnect:
			connects++
		case EventDisconnect:
			disconnects++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if connects != st.Established {
		t.Errorf("connect events %d != established %d", connects, st.Established)
	}
	if disconnects > connects {
		t.Errorf("disconnects %d > connects %d", disconnects, connects)
	}
}

func TestNATExperimentConfig(t *testing.T) {
	c := NATExperimentConfig(1)
	if c.Duration != 30*time.Minute {
		t.Errorf("duration = %v", c.Duration)
	}
	if len(c.Outages) != 0 {
		t.Error("NAT experiment should have no outages")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDownloadTrafficPresent(t *testing.T) {
	cfg := shortConfig(31, 10*time.Minute)
	cfg.LogoDownloadProb = 1 // force downloads
	var dlOut, big int
	_, err := Run(cfg, trace.HandlerFunc(func(r trace.Record) {
		if r.Kind == trace.KindDownload && r.Dir == trace.Out {
			dlOut++
			if int(r.App) == cfg.LogoPacket {
				big++
			}
		}
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if dlOut == 0 || big == 0 {
		t.Errorf("expected download packets (got %d, %d full-size)", dlOut, big)
	}
}

func TestZeroJitterStillRuns(t *testing.T) {
	cfg := shortConfig(37, time.Minute)
	cfg.CmdJitter = 0
	cfg.RoundDuration = dist.Constant{V: 120}
	if _, err := Run(cfg, trace.HandlerFunc(func(trace.Record) {}), nil); err != nil {
		t.Fatal(err)
	}
}
