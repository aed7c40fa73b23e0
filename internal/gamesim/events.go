package gamesim

import "time"

// eventKind names what the control plane does when an event fires.
type eventKind uint8

const (
	evStartRecording eventKind = iota // the warm-up ends
	evOutageStart                     // the server goes dark for d
	evOutageEnd                       // connectivity returns
	evArrival                         // a fresh-arrival candidate
	evAttempt                         // client retries or reconnects
	evDeparture                       // p's session ends
	evMapEnd                          // the map changeover begins
	evMapResume                       // the next map starts
)

// event is one scheduled control-plane action and its payload.
type event struct {
	at     time.Duration
	seq    uint64 // scheduling order: breaks ties in at
	kind   eventKind
	client uint32
	p      *player
	d      time.Duration
}

func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// eventQueue is the control plane's future-event list: a binary min-heap
// on (at, seq) under a clock that never moves backwards. Ties fire in the
// order they were scheduled, so a run is reproducible for a given seed.
type eventQueue struct {
	now  time.Duration
	seq  uint64
	heap []event
}

// at schedules e at time t. A time in the past fires at the current time
// instead.
func (q *eventQueue) at(t time.Duration, e event) {
	e.at, e.seq = max(t, q.now), q.seq
	q.seq++
	h := append(q.heap, e)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !h[i].before(&h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
	q.heap = h
}

// after schedules e d after the current time.
func (q *eventQueue) after(d time.Duration, e event) { q.at(q.now+d, e) }

// next removes the first event if it is due at or before limit and moves
// the clock to it. Otherwise it reports false and leaves the clock at
// limit (if it was earlier), so repeated calls make progress.
func (q *eventQueue) next(limit time.Duration) (event, bool) {
	h := q.heap
	if len(h) == 0 || h[0].at > limit {
		q.now = max(q.now, limit)
		return event{}, false
	}
	e := h[0]
	last := len(h) - 1
	h[0], h[last] = h[last], event{}
	h = h[:last]
	for i := 0; ; {
		least, l := i, 2*i+1
		if l < len(h) && h[l].before(&h[least]) {
			least = l
		}
		if r := l + 1; r < len(h) && h[r].before(&h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	q.heap = h
	q.now = e.at
	return e, true
}
