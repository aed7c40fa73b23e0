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

// TestPinnedStreamDigest asserts the decoded stream is record-for-record the
// pinned one, and that Config.Workers — a field kept only for bench/ — is
// accepted and ignored at every value bench/ and old callers assign.
func TestPinnedStreamDigest(t *testing.T) {
	for _, workers := range []int{0, 1, 4, sched.Auto} {
		cfg := pinnedConfig()
		cfg.Workers = workers
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		var file bytes.Buffer
		w := trace.NewWriter(&file)
		w.Workers = 1
		if _, err := Run(cfg, w, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		d := newRecordDigest()
		if _, err := trace.NewReader(&file).ReadAll(d); err != nil {
			t.Fatal(err)
		}
		if got := d.sum(); got != pinnedStreamSHA256 {
			t.Errorf("Workers=%d: %d records hash to %s, want %s", workers, d.n, got, pinnedStreamSHA256)
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
// every shape its run detection distinguishes and compares records and tags
// with sort.SliceStable on T. Client carries the emission index, so a tie
// released in the wrong order fails the comparison.
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
	cases := map[string][]time.Duration{
		"empty":                     nil,
		"single record":             {5},
		"two in order":              {5, 5},
		"two inverted":              {6, 5},
		"fully ordered":             window(48, 48, 50*time.Millisecond),
		"no ordered prefix":         append([]time.Duration{time.Hour}, window(47, 0, 50*time.Millisecond)...),
		"reversed":                  reversed(40),
		"reversed, long":            reversed(3 * insertionMax),
		"all ties":                  make([]time.Duration, 30),
		"boundary tie":              {1, 2, 3, 3, 2, 3, 1, 3},
		"tail before the whole run": {10, 11, 12, 1, 2, 0},
		"tail after the whole run":  {1, 2, 3, 9, 8, 7},
		"wide tail (fallback)":      append(window(20, 20, time.Second), 2*wide, wide/2, 3, wide+wide/2),
		"wide run, narrow tail":     {0, 2 * wide, 3*wide + 5, 3*wide + 2, 3*wide + 9},
	}
	for i := 0; i < 300; i++ {
		n := 2 + rng.IntN(3*insertionMax)
		span := []time.Duration{8, 50 * time.Millisecond}[i%2] // tie-heavy, realistic
		cases[fmt.Sprintf("generated %d", i)] = window(n, rng.IntN(n+1), span)
	}

	var p tickPlan // one plan throughout: the sort scratch is reused, as in a run
	type tagged struct {
		r   trace.Record
		tag uint8
	}
	for name, ts := range cases {
		p.reset()
		want := make([]tagged, len(ts))
		for i, at := range ts {
			r := trace.Record{T: at, Client: uint32(i), Dir: trace.Direction(i % 2), App: uint16(i)}
			p.append(r, uint8(i%4))
			want[i] = tagged{r, uint8(i % 4)}
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].r.T < want[b].r.T })
		sortPlan(&p)
		if len(p.recs) != len(want) || len(p.tags) != len(want) {
			t.Fatalf("%s: %d records and %d tags out, want %d", name, len(p.recs), len(p.tags), len(want))
		}
		for i, w := range want {
			if p.recs[i] != w.r || p.tags[i] != w.tag {
				t.Fatalf("%s: slot %d holds %+v tag %d, want %+v tag %d (times in: %v)", name, i, p.recs[i], p.tags[i], w.r, w.tag, ts)
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
		s.kernel.RunUntil(at)
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
