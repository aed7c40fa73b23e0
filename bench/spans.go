package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. A boundary crossed once
// per block (a sink's HandleBatch) would make millions of spans, so those
// are folded: one span per rep from the first call's start to the last
// call's end, with Calls and BusyNS holding how many calls it stands for and
// the time spent inside them.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = no parent
	Leg     string `json:"leg"`
	Rep     int    `json:"rep"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Calls   int64  `json:"calls,omitempty"`
	BusyNS  int64  `json:"busy_ns,omitempty"`
	Records int64  `json:"records,omitempty"`
}

// cover is the time the span accounts for: the busy time of a folded span,
// the whole interval of a plain one.
func (s span) cover() int64 {
	if s.Calls > 0 {
		return s.BusyNS
	}
	return s.EndNS - s.StartNS
}

// tracer keeps spans and counts in memory until the run ends.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]int64)}
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

func (t *tracer) count(name string, n int64) {
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// legTrace scopes span creation to one rep of one leg of the traced run. A
// nil *legTrace is tracing switched off: its methods do the work and record
// nothing, so a job whose boundaries are a handful of coarse calls can be one
// function for both the measured reps and the traced run.
type legTrace struct {
	t   *tracer
	leg string
	rep int
}

// begin opens a span and returns its id.
func (lt *legTrace) begin(name string, parent int) int {
	if lt == nil {
		return 0
	}
	return lt.add(name, parent, time.Now(), time.Time{})
}

// add records a span; a zero end leaves it open for end to close.
func (lt *legTrace) add(name string, parent int, start, end time.Time) int {
	if lt == nil {
		return 0
	}
	t := lt.t
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := span{Name: name, ID: len(t.spans) + 1, Parent: parent, Leg: lt.leg, Rep: lt.rep, StartNS: t.since(start)}
	if !end.IsZero() {
		sp.EndNS = t.since(end)
	}
	t.spans = append(t.spans, sp)
	return sp.ID
}

func (lt *legTrace) end(id int) {
	if lt == nil {
		return
	}
	now := time.Now()
	t := lt.t
	t.mu.Lock()
	t.spans[id-1].EndNS = t.since(now)
	t.mu.Unlock()
}

// do times fn as one span.
func (lt *legTrace) do(name string, parent int, fn func()) {
	id := lt.begin(name, parent)
	fn()
	lt.end(id)
}

// boundary accumulates one folded span. Its callers are serialized by the
// layer above (one delivery goroutine, or the reader's turn chain), so the
// fields need no lock; close publishes them once the producer has returned.
type boundary struct {
	lt          *legTrace
	name        string
	parent      int
	calls       int64
	records     int64
	busy        time.Duration
	first, last time.Time
	batches     int64 // calls that arrived as HandleBatch / Handle
	blocks      int64 // … as IngestBlock
	columns     int64 // … as IngestColumns
}

func (lt *legTrace) boundary(name string, parent int) *boundary {
	return &boundary{lt: lt, name: name, parent: parent}
}

func (b *boundary) enter() time.Time {
	now := time.Now()
	if b.calls == 0 {
		b.first = now
	}
	return now
}

func (b *boundary) exit(t0 time.Time, records int) {
	now := time.Now()
	b.busy += now.Sub(t0)
	b.calls++
	b.records += int64(records)
	b.last = now
}

// close records the folded span and the delivery-path counts.
func (b *boundary) close() {
	if b.calls == 0 {
		return
	}
	t := b.lt.t
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: b.name, ID: len(t.spans) + 1, Parent: b.parent, Leg: b.lt.leg, Rep: b.lt.rep,
		StartNS: t.since(b.first), EndNS: t.since(b.last),
		Calls: b.calls, BusyNS: int64(b.busy), Records: b.records,
	})
	t.mu.Unlock()
	t.count(b.name+".handle_batch", b.batches)
	t.count(b.name+".ingest_block", b.blocks)
	t.count(b.name+".ingest_columns", b.columns)
	t.count(b.name+".records", b.records)
}

// selfTime is one span's cover minus what its children cover.
type selfTime struct {
	Name   string `json:"name"`
	Leg    string `json:"leg"`
	Rep    int    `json:"rep"`
	TimeNS int64  `json:"time_ns"`
	SelfNS int64  `json:"self_ns"`
}

func (t *tracer) selfTimes() []selfTime {
	children := make(map[int]int64)
	for _, s := range t.spans {
		children[s.Parent] += s.cover()
	}
	out := make([]selfTime, len(t.spans))
	for i, s := range t.spans {
		out[i] = selfTime{Name: s.Name, Leg: s.Leg, Rep: s.Rep, TimeNS: s.cover(), SelfNS: s.cover() - children[s.ID]}
	}
	return out
}

// perRep returns, for every rep of leg, the summed cover (or self time) of
// the spans called name, in seconds. Absent spans give nil.
func perRep(times []selfTime, name, leg string, self bool) []float64 {
	sums := make(map[int]int64)
	for _, st := range times {
		if st.Name != name || st.Leg != leg {
			continue
		}
		if self {
			sums[st.Rep] += st.SelfNS
		} else {
			sums[st.Rep] += st.TimeNS
		}
	}
	var out []float64
	for rep := 0; rep < len(sums); rep++ {
		out = append(out, float64(sums[rep])/1e9)
	}
	return out
}

// traceFile is the shape of out/trace-<workload>.json.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	Spans    []span           `json:"spans"`
	Self     []selfTime       `json:"self"`
	Counts   map[string]int64 `json:"counts"`
	Probes   []probe          `json:"probes"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
