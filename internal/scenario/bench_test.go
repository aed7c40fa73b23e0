package scenario

import (
	"slices"
	"sync"
	"testing"
	"time"

	"cstrace/internal/gamesim"
	"cstrace/internal/trace"
)

// launchServer is one server of launchTicks: its start offset and the
// generator's per-tick blocks, in the server's local clock.
type launchServer struct {
	offset time.Duration
	ticks  [][]trace.Record
}

// tickRecorder keeps a copy of every block the generator emits.
type tickRecorder struct{ ticks [][]trace.Record }

func (r *tickRecorder) Handle(rec trace.Record) { r.HandleBatch([]trace.Record{rec}) }
func (r *tickRecorder) HandleBatch(rs []trace.Record) {
	r.ticks = append(r.ticks, slices.Clone(rs))
}

// launchTicks is two minutes of an 8-server launch-day fleet (the root
// package's LaunchDay shape), captured once per server as the generator
// emits it.
var launchTicks = sync.OnceValues(func() ([]launchServer, error) {
	servers, err := Spec{
		Seed:          11,
		Servers:       8,
		Duration:      2 * time.Minute,
		SlotMix:       []int{22, 22, 32, 16},
		DiurnalSpread: 6 * time.Hour,
		SpikeMult:     6,
		SpikeDecay:    8 * time.Minute,
		RateScale:     5,
	}.Build()
	if err != nil {
		return nil, err
	}
	out := make([]launchServer, len(servers))
	for i, sp := range servers {
		var rec tickRecorder
		if _, err := gamesim.Run(sp.Game, &rec, nil); err != nil {
			return nil, err
		}
		out[i] = launchServer{offset: sp.StartOffset, ticks: rec.ticks}
	}
	return out, nil
})

// handoff passes one server's captured ticks through the production
// serverSink, flushes it and closes ch.
func handoff(ls launchServer, ch chan *fleetBlock) {
	ss := &serverSink{out: ch, offset: ls.offset}
	for _, tick := range ls.ticks {
		ss.HandleBatch(tick)
	}
	ss.flush()
	close(ch)
}

// launchCapture is launchTicks exactly as the merge receives it: the
// hand-off blocks the production serverSink packs, time-shifted and cut.
var launchCapture = sync.OnceValues(func() ([][]*fleetBlock, error) {
	servers, err := launchTicks()
	if err != nil {
		return nil, err
	}
	streams := make([][]*fleetBlock, len(servers))
	for i, ls := range servers {
		ch := make(chan *fleetBlock, streamDepth)
		go handoff(ls, ch)
		for blk := range ch {
			streams[i] = append(streams[i], cloneBlock(blk))
		}
	}
	return streams, nil
})

// cloneBlock is a copy of b the merge may consume and recycle.
func cloneBlock(b *fleetBlock) *fleetBlock {
	return &fleetBlock{recs: slices.Clone(b.recs), minT: b.minT, cuts: slices.Clone(b.cuts)}
}

// countSink is the merge's null sink: it counts the records it is lent.
type countSink struct{ n int64 }

func (c *countSink) Handle(trace.Record)           { c.n++ }
func (c *countSink) HandleBatch(rs []trace.Record) { c.n += int64(len(rs)) }

// BenchmarkMerge times the fleet merge alone: the loser tree over the eight
// captured server streams into a null sink, ns per merged record. Each pass
// refills fresh channels with copies of the streams, whole and closed,
// with the timer stopped, so no generator or sender runs beside the merge.
func BenchmarkMerge(b *testing.B) {
	streams, err := launchCapture()
	if err != nil {
		b.Fatal(err)
	}
	var records int64
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		chans := make([]chan *fleetBlock, len(streams))
		for i, s := range streams {
			chans[i] = make(chan *fleetBlock, len(s))
			for _, blk := range s {
				chans[i] <- cloneBlock(blk)
			}
			close(chans[i])
		}
		var sink countSink
		b.StartTimer()
		if err := mergeStreams(chans, &sink); err != nil {
			b.Fatal(err)
		}
		records += sink.n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/rec")
}

// BenchmarkHandoff times the merge with its hand-off: eight sender
// goroutines replay the captured per-tick generator blocks through
// serverSink (copy, offset, pack, send) while the tree merges them into a
// null sink, ns per merged record. Against BenchmarkMerge the difference is
// the senders' copy plus the channel sends, wake-ups and pool round trips
// a fleet run pays per hand-off.
func BenchmarkHandoff(b *testing.B) {
	servers, err := launchTicks()
	if err != nil {
		b.Fatal(err)
	}
	var records int64
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		chans := make([]chan *fleetBlock, len(servers))
		for i, ls := range servers {
			chans[i] = make(chan *fleetBlock, streamDepth)
			go handoff(ls, chans[i])
		}
		var sink countSink
		if err := mergeStreams(chans, &sink); err != nil {
			b.Fatal(err)
		}
		records += sink.n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/rec")
}
