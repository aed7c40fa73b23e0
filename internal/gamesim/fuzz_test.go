package gamesim

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"cstrace/internal/trace"
)

// genKnobs are the generator knobs FuzzGeneratorConfig mutates, in the
// fixed-size little-endian layout of its corpus entries. Each maps onto one
// Config field over a range that keeps a run short; the rest of the config
// is busyConfig's, or a launch-day server's.
type genKnobs struct {
	Seed       uint64
	Base       uint8 // 0: busyConfig; 1–8: launch-day server Base−1
	Desync     bool
	Slots      uint8
	TickUs     uint32 // TickInterval: max(TickUs mod 100 001, 500) µs
	BurstNs    int32
	ElitePct   uint8 // EliteFrac: ElitePct/255
	EliteCmd   int16 // EliteCmdRate, centi-Hz
	EliteSnap  int16 // EliteSnapHz, centi-Hz
	LogoDown   uint8 // LogoDownloadProb: LogoDown/255
	LogoUp     uint8 // LogoUploadProb: LogoUp/255
	LogoBytes  uint16
	LogoPacket int32
	LogoRate   int32  // bytes/s
	JitterMil  int16  // CmdJitter: JitterMil/1000
	SnapMin    int16  // SnapMax stays 420
	OutAtMs    uint16 // one outage at OutAtMs, if OutMs > 0
	OutMs      uint16
	WarmTicks  uint16 // Warmup: WarmTicks mod 40 000 ticks
	DurMs      uint16 // Duration: DurMs mod 30 001 ms
	// The command-size band, as offsets from the base config's InPayload,
	// so that zero (what an older, shorter corpus entry reads) keeps it.
	InMuDeci    int16 // Mu += InMuDeci/10
	InSigmaDeci int16 // Sigma += InSigmaDeci/10
	InLow       int16 // Low += InLow
	InHigh      int16 // High += InHigh
}

func (k genKnobs) bytes() []byte {
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, k)
	return b.Bytes()
}

func (k genKnobs) config() Config {
	c := busyConfig(k.Seed, 0, 0)
	if k.Base > 0 {
		c = launchServer(k.Seed, int(k.Base-1)%8, 0)
	}
	c.DesynchronizeTicks = k.Desync
	c.Slots = int(k.Slots)
	c.TickInterval = time.Duration(max(k.TickUs%100_001, 500)) * time.Microsecond
	c.BurstSpacing = time.Duration(k.BurstNs)
	c.EliteFrac = float64(k.ElitePct) / 255
	c.EliteCmdRate, c.EliteSnapHz = float64(k.EliteCmd)/100, float64(k.EliteSnap)/100
	c.LogoDownloadProb, c.LogoUploadProb = float64(k.LogoDown)/255, float64(k.LogoUp)/255
	c.LogoBytes, c.LogoPacket, c.LogoRate = int(k.LogoBytes), int(k.LogoPacket), float64(k.LogoRate)
	c.CmdJitter = float64(k.JitterMil) / 1000
	c.SnapMin = int(k.SnapMin)
	c.Outages = nil
	if k.OutMs > 0 {
		c.Outages = []Outage{{At: time.Duration(k.OutAtMs) * time.Millisecond, Duration: time.Duration(k.OutMs) * time.Millisecond}}
	}
	c.Warmup = time.Duration(k.WarmTicks%40_000) * c.TickInterval
	c.Duration = time.Duration(k.DurMs%30_001) * time.Millisecond
	c.InPayload.Mu += float64(k.InMuDeci) / 10
	c.InPayload.Sigma += float64(k.InSigmaDeci) / 10
	c.InPayload.Low += float64(k.InLow)
	c.InPayload.High += float64(k.InHigh)
	return c
}

// fuzzSink checks what a run delivers: the stream never goes back in time,
// each block lies inside one tick window, and it tallies what Stats must
// report.
type fuzzSink struct {
	t                    *testing.T
	tick, prev           time.Duration
	pIn, pOut, bIn, bOut int64
}

func (s *fuzzSink) Handle(r trace.Record) { s.HandleBatch([]trace.Record{r}) }

func (s *fuzzSink) HandleBatch(rs []trace.Record) {
	if first, last := rs[0].T, rs[len(rs)-1].T; first/s.tick != last/s.tick {
		s.t.Fatalf("a block runs from %v to %v, across a tick boundary (tick %v)", first, last, s.tick)
	}
	for _, r := range rs {
		if r.T < s.prev {
			s.t.Fatalf("record at %v after %v", r.T, s.prev)
		}
		s.prev = r.T
		if r.Dir == trace.In {
			s.pIn++
			s.bIn += int64(r.App)
		} else {
			s.pOut++
			s.bOut += int64(r.App)
		}
	}
}

// FuzzGeneratorConfig: a config Validate accepts runs to completion and
// delivers time-ordered blocks, each inside one tick, whose packet and byte
// totals are the ones Stats reports; a config it rejects makes Run return
// that error and deliver nothing.
func FuzzGeneratorConfig(f *testing.F) {
	busy := genKnobs{
		Seed: 11, Slots: 22, TickUs: 50_000, BurstNs: 15_000,
		ElitePct: 3, EliteCmd: 4400, EliteSnap: 4400,
		LogoDown: 56, LogoUp: 26, LogoBytes: 24 << 10, LogoPacket: 1100, LogoRate: 2500,
		JitterMil: 300, SnapMin: 12, WarmTicks: 6000, DurMs: 20_000,
	}
	seeds := []genKnobs{busy}
	add := func(mut func(*genKnobs)) {
		k := busy
		mut(&k)
		seeds = append(seeds, k)
	}
	for i := uint8(0); i < 8; i++ {
		add(func(k *genKnobs) {
			k.Base, k.Slots, k.WarmTicks = i+1, []uint8{22, 22, 32, 16}[i%4], 36_960
		})
	}
	add(func(k *genKnobs) { k.Base, k.Desync, k.WarmTicks = 1, true, 36_960 })
	add(func(k *genKnobs) { k.Desync, k.ElitePct = true, 25 })
	add(func(k *genKnobs) { k.OutAtMs, k.OutMs = 5000, 3000 })
	// Command bands: a narrow one (many redraws), one far above the mean
	// (every command runs out of tries and is clamped), no spread.
	add(func(k *genKnobs) { k.InLow, k.InHigh = 12, -23 })
	add(func(k *genKnobs) { k.InMuDeci = 3000 })
	add(func(k *genKnobs) { k.InSigmaDeci = -42 })
	// Configs Validate rejects: each one used to hang Run or break its order.
	add(func(k *genKnobs) { k.LogoPacket, k.LogoDown = 0, 255 })
	add(func(k *genKnobs) { k.LogoRate = 0 })
	add(func(k *genKnobs) { k.BurstNs = int32(5 * time.Millisecond) })
	add(func(k *genKnobs) { k.BurstNs = -int32(time.Millisecond) })
	add(func(k *genKnobs) { k.JitterMil = 1000 })
	add(func(k *genKnobs) { k.JitterMil = -1 })
	add(func(k *genKnobs) { k.EliteCmd = 0 })
	add(func(k *genKnobs) { k.EliteSnap = -1 })
	add(func(k *genKnobs) { k.SnapMin = 421 })
	add(func(k *genKnobs) { k.SnapMin = -1 })
	add(func(k *genKnobs) { k.InSigmaDeci = -43 })
	add(func(k *genKnobs) { k.InLow = 37 })
	add(func(k *genKnobs) { k.InLow = -29 })
	for _, k := range seeds {
		f.Add(k.bytes())
	}

	size := binary.Size(genKnobs{})
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := make([]byte, size) // short inputs read as zeros, long ones are cut
		copy(buf, data)
		var k genKnobs
		if err := binary.Read(bytes.NewReader(buf), binary.LittleEndian, &k); err != nil {
			t.Fatal(err)
		}
		cfg := k.config()
		sink := &fuzzSink{t: t, tick: cfg.TickInterval}
		st, err := Run(cfg, sink, nil)
		if verr := cfg.Validate(); verr != nil {
			if err == nil || err.Error() != verr.Error() {
				t.Fatalf("Validate rejects %+v (%v) but Run returned %v", k, verr, err)
			}
			if sink.pIn+sink.pOut != 0 {
				t.Fatalf("rejected config delivered %d records", sink.pIn+sink.pOut)
			}
			return
		}
		if err != nil {
			t.Fatalf("Validate accepts %+v but Run failed: %v", k, err)
		}
		got := [4]int64{st.PacketsIn, st.PacketsOut, st.AppBytesIn, st.AppBytesOut}
		if want := [4]int64{sink.pIn, sink.pOut, sink.bIn, sink.bOut}; got != want {
			t.Fatalf("Stats packets/bytes in/out %v, delivered %v", got, want)
		}
	})
}
