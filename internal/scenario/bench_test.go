package scenario

import (
	"slices"
	"sync"
	"testing"
	"time"

	"cstrace/internal/gamesim"
	"cstrace/internal/trace"
)

// launchCapture is two minutes of an 8-server launch-day fleet (the root
// package's LaunchDay shape), captured once per server exactly as the merge
// receives it: the generator's blocks, time-shifted and tagged by the
// production serverSink.
var launchCapture = sync.OnceValues(func() ([][]*fleetBlock, error) {
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
	streams := make([][]*fleetBlock, len(servers))
	for i, sp := range servers {
		ch := make(chan *fleetBlock, streamDepth)
		errc := make(chan error, 1)
		go func() {
			_, err := gamesim.Run(sp.Game, &serverSink{out: ch, offset: sp.StartOffset}, nil)
			close(ch)
			errc <- err
		}()
		for blk := range ch {
			streams[i] = append(streams[i], blk)
		}
		if err := <-errc; err != nil {
			return nil, err
		}
	}
	return streams, nil
})

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
				chans[i] <- &fleetBlock{recs: slices.Clone(blk.recs), minT: blk.minT}
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
