package gamesim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"time"

	"cstrace/internal/dist"
	"cstrace/internal/sched"
	"cstrace/internal/trace"
)

// streamHash folds one record into an order-sensitive stream hash.
func streamHash(sum uint64, r trace.Record) uint64 {
	return sum*1099511628211 ^ uint64(r.T) ^ uint64(r.App)<<32 ^ uint64(r.Client) ^ uint64(r.Kind)<<48 ^ uint64(r.Dir)<<52
}

// pinnedStreamSHA256 is the SHA-256 of pinnedConfig's stream (155 202
// records) read back from its v4 file, each record as 16 little-endian bytes
// (recordDigest). It pins what the generator draws, not how the writer stores
// it: a codec change leaves it alone, a change to the generator's draws moves
// it — once, deliberately, and CHANGES.md says so.
const pinnedStreamSHA256 = "f74aaddb234810baf080ab4227107da1fcbc1932d7e2fbceb8f84f1ca611b88b"

// recordDigest is the SHA-256 of rs, each record encoded as T u64 | Dir u8 |
// Kind u8 | Client u32 | App u16, little-endian — the layout metricstore's
// StreamHasher uses, which this package cannot import.
type recordDigest struct {
	h hash.Hash
	n int
}

func newRecordDigest() *recordDigest { return &recordDigest{h: sha256.New()} }

func (d *recordDigest) Handle(r trace.Record) { d.HandleBatch([]trace.Record{r}) }

func (d *recordDigest) HandleBatch(rs []trace.Record) {
	for _, r := range rs {
		var b [16]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(r.T))
		b[8], b[9] = byte(r.Dir), byte(r.Kind)
		binary.LittleEndian.PutUint32(b[10:], r.Client)
		binary.LittleEndian.PutUint16(b[14:], r.App)
		d.h.Write(b[:])
	}
	d.n += len(rs)
}

func (d *recordDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// pinnedConfig is a busy server with everything that shapes a window in
// play: a warm-up that crosses a map change, a map change and an outage
// inside the recorded window, and enough elites that some windows open with
// an unordered record.
func pinnedConfig() Config {
	c := busyConfig(21, 6*time.Minute, 4*time.Minute)
	c.MapDuration, c.MapChangePause = 3*time.Minute, 20*time.Second
	c.EliteFrac = 0.1
	c.Outages = []Outage{{At: time.Minute, Duration: 10 * time.Second}}
	return c
}

// pinnedDesyncSHA256 is pinnedStreamSHA256 for pinnedConfig with
// DesynchronizeTicks set (155 202 records): every snapshot then comes from a
// per-client schedule, so this leg pins the path the synchronized burst skips.
const pinnedDesyncSHA256 = "6c1462fb51ad09c7e6e163382d634532c7707bb469eef5c5d34b40b7c9fc84e7"

// TestPinnedStreamDigest asserts the decoded stream is record-for-record the
// pinned one, with ticks synchronized and desynchronized, and that
// Config.Workers — a field kept only for bench/ — is accepted and ignored at
// every value bench/ and old callers assign.
func TestPinnedStreamDigest(t *testing.T) {
	type leg struct {
		name string
		cfg  Config
		want string
	}
	var legs []leg
	for _, workers := range []int{0, 1, 4, sched.Auto} {
		cfg := pinnedConfig()
		cfg.Workers = workers
		legs = append(legs, leg{fmt.Sprintf("Workers=%d", workers), cfg, pinnedStreamSHA256})
	}
	desync := pinnedConfig()
	desync.DesynchronizeTicks = true
	legs = append(legs, leg{"DesynchronizeTicks", desync, pinnedDesyncSHA256})
	for _, l := range legs {
		if err := l.cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		var file bytes.Buffer
		w := trace.NewWriter(&file)
		w.Workers = 1
		if _, err := Run(l.cfg, w, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		d := newRecordDigest()
		if _, err := trace.NewReader(&file).ReadAll(d); err != nil {
			t.Fatal(err)
		}
		if got := d.sum(); got != l.want {
			t.Errorf("%s: %d records hash to %s, want %s", l.name, d.n, got, l.want)
		}
	}
}

// orderAndSpan checks the two delivery contracts downstream relies on: the
// stream never goes back in time, and each delivered block lies inside one
// tick window (the scenario merge sizes its buffers by that).
type orderAndSpan struct {
	t     *testing.T
	prev  time.Duration
	worst time.Duration
	n     int
}

func (o *orderAndSpan) Handle(r trace.Record) { o.HandleBatch([]trace.Record{r}) }

func (o *orderAndSpan) HandleBatch(rs []trace.Record) {
	for _, r := range rs {
		if r.T < o.prev {
			o.t.Fatalf("record at %v after %v", r.T, o.prev)
		}
		o.prev = r.T
	}
	o.worst = max(o.worst, rs[len(rs)-1].T-rs[0].T)
	o.n += len(rs)
}

// TestStreamStrictlyTimeOrdered pins the ordering contract: the generator's
// emitted stream is globally non-decreasing in time (each window is sorted
// before delivery and window ranges never overlap), so downstream consumers
// — the trace writer, the NAT queueing model, the order-sensitive collectors
// — need no SortBuffer; and blocks are per window.
func TestStreamStrictlyTimeOrdered(t *testing.T) {
	cfg := shortConfig(11, 6*time.Minute)
	sink := &orderAndSpan{t: t}
	if _, err := Run(cfg, sink, nil); err != nil {
		t.Fatal(err)
	}
	if sink.n == 0 {
		t.Fatal("no traffic generated")
	}
	if sink.worst >= cfg.TickInterval {
		t.Errorf("a delivered block spans %v, want < one tick (%v)", sink.worst, cfg.TickInterval)
	}
}

// TestSortPlanMatchesStableSort drives sortPlan with generated windows of
// every shape its run detection and its bucket sort distinguish and compares
// the records with sort.SliceStable on T. Client carries the emission index,
// so a tie released in the wrong order fails the comparison.
func TestSortPlanMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 18))
	const wide = time.Duration(1) << (64 - keyIdxBits) // first span the packed keys cannot hold

	// window builds n records: the first prefix of them in order, the rest
	// uniform over span; a small span makes ties, across the boundary too.
	window := func(n, prefix int, span time.Duration) []time.Duration {
		ts := make([]time.Duration, n)
		for i := range ts {
			ts[i] = time.Duration(rng.Int64N(int64(span)))
		}
		slices.Sort(ts[:prefix])
		return ts
	}
	reversed := func(n int) []time.Duration {
		ts := make([]time.Duration, n)
		for i := range ts {
			ts[i] = time.Duration(n-i) * time.Microsecond
		}
		return ts
	}
	// spanning is a window whose sorted part runs from 0 to exactly span: its
	// last record is the earliest, the one before it the latest.
	spanning := func(span time.Duration) []time.Duration {
		return append(window(30, 10, span), span, 0)
	}
	// sortAll is a window that sorts exactly n records: its first record is
	// its latest, so nothing stays in front of the sort.
	sortAll := func(n int) []time.Duration {
		return append([]time.Duration{50 * time.Millisecond}, window(n-1, 0, 50*time.Millisecond)...)
	}
	cases := map[string][]time.Duration{
		"empty":                     nil,
		"single record":             {5},
		"two in order":              {5, 5},
		"two inverted":              {6, 5},
		"fully ordered":             window(48, 48, 50*time.Millisecond),
		"no ordered prefix":         append([]time.Duration{time.Hour}, window(47, 0, 50*time.Millisecond)...),
		"reversed":                  reversed(40),
		"reversed, long":            reversed(3 * bucketMax),
		"all ties":                  make([]time.Duration, 30),
		"boundary tie":              {1, 2, 3, 3, 2, 3, 1, 3},
		"tail before the whole run": {10, 11, 12, 1, 2, 0},
		"tail after the whole run":  {1, 2, 3, 9, 8, 7},
		"wide tail (fallback)":      append(window(20, 20, time.Second), 2*wide, wide/2, 3, wide+wide/2),
		"wide run, narrow tail":     {0, 2 * wide, 3*wide + 5, 3*wide + 2, 3*wide + 9},
		// The bucket sort's edges: one bucket per nanosecond (shift 0), a
		// tail that all lands in bucket 0 of a 1 000-wide span (32 ns
		// buckets), ties either side of the 31|32 edge of 2-wide buckets,
		// spans on either side of a power of two, and the most records it
		// takes and one more (which the packed keys sort).
		"span under 32 ns":                append(window(40, 10, 20), 31, 0),
		"every tail record in one bucket": append([]time.Duration{5, 1000}, 31, 7, 0, 31, 7, 19, 0, 30, 1),
		"ties straddling a bucket edge":   {5, 63, 32, 31, 32, 31, 0, 31, 32, 32, 31},
		"span 2^5-1":                      spanning(1<<5 - 1),
		"span 2^5":                        spanning(1 << 5),
		"span 2^20-1":                     spanning(1<<20 - 1),
		"span 2^20":                       spanning(1 << 20),
		"span 2^40-1 (widest packed)":     spanning(wide - 1),
		"bucketMax records":               sortAll(bucketMax),
		"bucketMax+1 records":             sortAll(bucketMax + 1),
	}
	for i := 0; i < 300; i++ {
		n := 2 + rng.IntN(3*bucketMax)
		span := []time.Duration{8, 50 * time.Millisecond}[i%2] // tie-heavy, realistic
		cases[fmt.Sprintf("generated %d", i)] = window(n, rng.IntN(n+1), span)
	}

	var p tickPlan // one plan throughout: the sort scratch is reused, as in a run
	for name, ts := range cases {
		p.reset()
		want := make([]trace.Record, len(ts))
		for i, at := range ts {
			want[i] = trace.Record{T: at, Client: uint32(i), Dir: trace.Direction(i % 2), App: uint16(i)}
			p.append(at, want[i].Dir, want[i].Kind, want[i].Client, want[i].App)
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].T < want[b].T })
		sortPlan(&p)
		if len(p.recs) != len(want) {
			t.Fatalf("%s: %d records out, want %d", name, len(p.recs), len(want))
		}
		for i, w := range want {
			if p.recs[i] != w {
				t.Fatalf("%s: slot %d holds %+v, want %+v (times in: %v)", name, i, p.recs[i], w, ts)
			}
		}
	}
}

// TestRecordedWindowsAllocateNothing: once the server is full and the plan's
// buffers have grown to a window's size, planning, sorting, filling and
// delivering a recorded window allocates nothing — no RNG per tick, no plan
// per tick. The control plane is held still while counting (its events
// allocate: players, closures), so the count is the window path's alone.
func TestRecordedWindowsAllocateNothing(t *testing.T) {
	cfg := busyConfig(3, 0, time.Hour)
	var sink countSink
	s, err := newSim(cfg, &sink, nil)
	if err != nil {
		t.Fatal(err)
	}
	dt := cfg.TickInterval
	var at time.Duration
	window := func() {
		s.window = at
		s.plan.reset()
		s.buildWindow(at, at+dt)
		s.fillWindow(uint64(at / dt))
		at += dt
	}
	for at < 3*time.Minute {
		s.runUntil(at)
		window()
	}
	if len(s.players) < cfg.Slots/2 {
		t.Fatalf("only %d players after three minutes: not a busy server", len(s.players))
	}
	before := sink.n
	if allocs := testing.AllocsPerRun(2000, window); allocs != 0 {
		t.Errorf("a recorded window allocates %v objects, want 0", allocs)
	}
	if sink.n == before {
		t.Fatal("the counted windows delivered no records")
	}
}

// fillOracle is the fill stage as it was written before the draws were
// inlined: a switch per record, each command drawn by a 64-try truncated
// normal loop, each snapshot clamped, the tallies split by direction.
func fillOracle(cfg *Config, p *tickPlan, g *dist.PCG, st *Stats) {
	muOrd := cfg.SnapBase + cfg.SnapPerPlayer*float64(p.n)*p.act
	lo, hi := float64(cfg.SnapMin), float64(cfg.SnapMax)
	in := cfg.InPayload
	command := func() float64 {
		for i := 0; i < 64; i++ {
			if v := in.Mu + in.Sigma*g.Norm(); v >= in.Low && v <= in.High {
				return v
			}
		}
		v := in.Mu + in.Sigma*g.Norm()
		if v < in.Low {
			return in.Low
		}
		if v > in.High {
			return in.High
		}
		return v
	}
	for i := range p.recs {
		r := &p.recs[i]
		switch {
		case r.Kind != trace.KindGame:
		case r.Dir == trace.In:
			r.App = uint16(command())
		default:
			mu := muOrd
			if r.App == eliteMark {
				mu = muOrd * 0.6
			}
			v := mu + cfg.SnapSigma*g.Norm()
			if v < lo {
				v = lo
			}
			if v > hi {
				v = hi
			}
			r.App = uint16(v)
		}
		if r.Dir == trace.In {
			st.PacketsIn++
			st.AppBytesIn += int64(r.App)
		} else {
			st.PacketsOut++
			st.AppBytesOut += int64(r.App)
		}
	}
}

// TestFillSizesMatchesOracle: fillSizes sizes every window exactly as
// fillOracle does — the same sizes, the same totals, and the generator left
// at the same point — on busy and launch-day servers, with the desync
// ablation and many elites, and with command and snapshot bands that send
// many draws down the rare path: narrow, far from the mean, no spread.
func TestFillSizesMatchesOracle(t *testing.T) {
	cfgs := map[string]Config{
		"busy":       busyConfig(4, 0, time.Minute),
		"launch day": launchServer(11, 2, time.Minute),
	}
	mod := func(name string, f func(*Config)) {
		c := busyConfig(5, 0, time.Minute)
		f(&c)
		cfgs[name] = c
	}
	mod("desync, many elites", func(c *Config) { c.DesynchronizeTicks, c.EliteFrac = true, 0.3 })
	mod("narrow command band", func(c *Config) { c.InPayload.Low, c.InPayload.High = 44, 45 })
	mod("command band far above", func(c *Config) { c.InPayload.Low, c.InPayload.High = 90, 95 })
	mod("no command spread", func(c *Config) { c.InPayload.Sigma = 0 })
	mod("narrow snapshot band", func(c *Config) { c.SnapMin, c.SnapMax = 100, 120 })
	for name, cfg := range cfgs {
		s, err := newSim(cfg, &countSink{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got, want Stats
		var windows, recs int
		dt := cfg.TickInterval
		for at := cfg.Warmup; at < cfg.Warmup+cfg.Duration; at += dt {
			s.planWindow(at, at+dt)
			sortPlan(&s.plan)
			ref := tickPlan{n: s.plan.n, act: s.plan.act, recs: slices.Clone(s.plan.recs)}
			var g, h dist.PCG
			s.sizes.Seed(&g, uint64(at/dt))
			s.sizes.Seed(&h, uint64(at/dt))
			fillSizes(&s.cfg, &s.plan, &g, &got)
			fillOracle(&s.cfg, &ref, &h, &want)
			if !slices.Equal(s.plan.recs, ref.recs) {
				t.Fatalf("%s, window at %v: sizes differ from the oracle's", name, at)
			}
			if g != h {
				t.Fatalf("%s, window at %v: the fill drew a different number of words", name, at)
			}
			windows++
			recs += len(ref.recs)
		}
		if got != want {
			t.Fatalf("%s: totals %+v, oracle %+v", name, got, want)
		}
		if recs < 1000 {
			t.Fatalf("%s: %d records in %d windows: too little traffic to compare", name, recs, windows)
		}
	}
}
