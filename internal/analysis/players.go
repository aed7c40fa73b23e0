package analysis

import (
	"time"

	"cstrace/internal/gamesim"
)

// PlayerSeries builds the paper's Fig 3: the per-minute count of players
// seen on the server. A player counts toward every minute their session
// overlaps, so the series can exceed the slot count when players come and
// go within one interval — exactly the artifact the paper notes.
type PlayerSeries struct {
	counts  []float64 // distinct players seen per minute
	current int       // active right now
	minute  int
}

// NewPlayerSeries creates the collector.
func NewPlayerSeries() *PlayerSeries { return &PlayerSeries{} }

// Observe consumes one session event; feed every event in time order.
func (p *PlayerSeries) Observe(ev gamesim.SessionEvent) {
	min := int(ev.T / time.Minute)
	p.extendTo(min)
	switch ev.Type {
	case gamesim.EventConnect:
		p.current++
		// A new arrival adds one distinct player to this minute.
		p.counts[min]++
	case gamesim.EventDisconnect:
		p.current--
	}
}

// extendTo materializes minutes up to and including min, seeding each new
// minute with the players already connected as it begins.
func (p *PlayerSeries) extendTo(min int) {
	for len(p.counts) <= min {
		p.counts = append(p.counts, float64(p.current))
	}
}

// Finish pads the series through the end of the trace.
func (p *PlayerSeries) Finish(duration time.Duration) {
	p.extendTo(int((duration - 1) / time.Minute))
}

// Counts returns the per-minute distinct-player series.
func (p *PlayerSeries) Counts() []float64 { return p.counts }
