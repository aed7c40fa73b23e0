package gamesim

import (
	"testing"
	"time"

	"cstrace/internal/trace"
)

// The generator's layers, timed where they live. All three run serial
// (Workers 0) into a counting batch sink, so ns/rec is the generator alone.

type countSink struct{ n int }

func (c *countSink) Handle(trace.Record)           { c.n++ }
func (c *countSink) HandleBatch(rs []trace.Record) { c.n += len(rs) }

// busyConfig is PaperConfig at five times the arrival rate: the server is
// full within minutes, as in cstrace.Quick and the bench/ workloads.
func busyConfig(seed uint64, warmup, d time.Duration) Config {
	c := PaperConfig(seed)
	c.Outages = nil
	c.AttemptRate *= 5
	c.Warmup, c.Duration = warmup, d
	return c
}

// BenchmarkWarmup times the paper's one-map-cycle warm-up in front of a
// single recorded tick: the control plane to the recording point plus one
// catch-up of the survivors.
func BenchmarkWarmup(b *testing.B) {
	var survivors int
	for i := 0; i < b.N; i++ {
		cfg := busyConfig(uint64(i+1), 30*time.Minute+48*time.Second, 50*time.Millisecond)
		st, err := Run(cfg, &countSink{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		survivors += st.MaxConcurrent
	}
	b.ReportMetric(float64(survivors)/float64(b.N), "survivors")
}

// BenchmarkWindow times recorded windows alone: no warm-up, ten minutes of a
// server that fills in the first two.
func BenchmarkWindow(b *testing.B) {
	benchRecorded(b, func(i int) Config { return busyConfig(uint64(i+1), 0, 10*time.Minute) })
}

// BenchmarkFleetServer is the in-package twin of bench/'s
// gamesim.fleet.alone.cpu_ns_per_rec: one launch-day server, the full
// warm-up in front of four recorded minutes.
func BenchmarkFleetServer(b *testing.B) {
	benchRecorded(b, func(i int) Config { return launchServer(11, i%8, 4*time.Minute) })
}

func benchRecorded(b *testing.B, cfg func(i int) Config) {
	var sink countSink
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg(i), &sink, nil); err != nil {
			b.Fatal(err)
		}
	}
	if sink.n == 0 {
		b.Fatal("no traffic generated")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sink.n), "ns/rec")
}
