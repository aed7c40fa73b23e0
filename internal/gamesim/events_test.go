package gamesim

import (
	"slices"
	"sort"
	"testing"
	"time"
)

// drain fires every event due at or before limit and returns them in
// firing order; fire, if set, runs on each as it fires.
func drain(q *eventQueue, limit time.Duration, fire func(event)) []event {
	var got []event
	for {
		e, ok := q.next(limit)
		if !ok {
			return got
		}
		got = append(got, e)
		if fire != nil {
			fire(e)
		}
	}
}

func clients(es []event) []uint32 {
	out := make([]uint32, len(es))
	for i, e := range es {
		out[i] = e.client
	}
	return out
}

func TestEventQueueOrdering(t *testing.T) {
	var q eventQueue
	for _, c := range []uint32{3, 1, 2} {
		q.at(time.Duration(c)*time.Second, event{client: c})
	}
	if got := clients(drain(&q, 3*time.Second, nil)); !slices.Equal(got, []uint32{1, 2, 3}) {
		t.Errorf("order = %v", got)
	}
	if q.now != 3*time.Second {
		t.Errorf("now = %v", q.now)
	}
}

func TestEventQueueTiesBySequence(t *testing.T) {
	var q eventQueue
	for _, c := range []uint32{7, 5, 9} {
		q.at(time.Second, event{client: c})
	}
	if got := clients(drain(&q, time.Second, nil)); !slices.Equal(got, []uint32{7, 5, 9}) {
		t.Errorf("tie order = %v (must be scheduling order)", got)
	}
}

func TestEventQueueNestedScheduling(t *testing.T) {
	var q eventQueue
	q.after(time.Second, event{client: 1})
	var fired []time.Duration
	drain(&q, time.Minute, func(e event) {
		fired = append(fired, e.at)
		if e.client == 1 {
			q.after(2*time.Second, event{client: 2})
		}
	})
	if !slices.Equal(fired, []time.Duration{time.Second, 3 * time.Second}) {
		t.Errorf("fired = %v", fired)
	}
}

func TestEventQueuePastClamps(t *testing.T) {
	var q eventQueue
	q.at(5*time.Second, event{client: 1})
	got := drain(&q, time.Minute, func(e event) {
		if e.client == 1 {
			q.at(time.Second, event{client: 2}) // in the past
		}
	})
	if len(got) != 2 || got[1].at != 5*time.Second {
		t.Errorf("past event fired at %v, want clamped to 5s", got)
	}
}

func TestEventQueueRunUntil(t *testing.T) {
	var q eventQueue
	for c := uint32(1); c <= 5; c++ {
		q.at(time.Duration(c)*time.Second, event{client: c})
	}
	if got := drain(&q, 3*time.Second, nil); len(got) != 3 {
		t.Errorf("fired %v, want 3 events", clients(got))
	}
	if q.now != 3*time.Second || len(q.heap) != 2 {
		t.Errorf("now = %v, pending %d", q.now, len(q.heap))
	}
	if got := drain(&q, 10*time.Second, nil); len(got) != 2 {
		t.Errorf("fired %v, want the last 2", clients(got))
	}
	// The clock advances to the limit even with nothing to do.
	if q.now != 10*time.Second {
		t.Errorf("now = %v, want 10s", q.now)
	}
}

func TestEventQueueRunUntilEventExactlyAtLimit(t *testing.T) {
	var q eventQueue
	q.at(2*time.Second, event{client: 1})
	if got := drain(&q, 2*time.Second, nil); len(got) != 1 {
		t.Errorf("fired %v, want the event at the limit (inclusive)", clients(got))
	}
}

func TestEventQueueNextFalseWhenEmpty(t *testing.T) {
	var q eventQueue
	if _, ok := q.next(time.Minute); ok || q.now != time.Minute {
		t.Errorf("empty queue: next = %v, now = %v", ok, q.now)
	}
}

// TestEventQueueStress schedules 10 000 events in a scrambled order with
// four-way ties and checks the firing order against a stable sort.
func TestEventQueueStress(t *testing.T) {
	const n = 10000
	var q eventQueue
	want := make([]event, n)
	for i := range want {
		want[i] = event{at: time.Duration((i*7919)%n/4) * time.Millisecond, client: uint32(i)}
		q.at(want[i].at, want[i])
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	got := drain(&q, time.Hour, nil)
	if !slices.Equal(clients(got), clients(want)) {
		t.Fatal("firing order differs from a stable sort by time")
	}
	for i := range got {
		if got[i].at != want[i].at {
			t.Fatalf("event %d fired at %v, want %v", i, got[i].at, want[i].at)
		}
	}
}
