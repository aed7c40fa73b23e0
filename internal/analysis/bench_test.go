package analysis

import (
	"sync"
	"testing"
	"time"

	"cstrace/internal/gamesim"
	"cstrace/internal/trace"
)

// The suite's layers, timed where they live, over ten busy minutes of
// gamesim output. BenchmarkUnit/<unit> sweeps the stream, cut into BlockSize
// column blocks (the shape a v4 segment decodes to), through one of the five
// shard units; BenchmarkSuite sweeps it through all five, so the unit rows
// add up to it, and BenchmarkSummarySuite sweeps it through the metrics
// store's four collectors. BenchmarkTranspose is the AppendFrom every
// record-fed path pays before the sweeps, and BenchmarkSlim is a fleet
// server's slim suite fed the generator's own blocks.
//
// The clock unit carries the four interval windows. The 1 s × 18 000 and
// 30 min × 200 windows span 5 h and 100 h, so on any shorter trace they
// never latch done, but they cost one addition per 10 ms bin, not one per
// record; the 10 ms window (bench/'s analysis.sweep.window10ms probe) is
// done two seconds in.

// busyCapture is ten busy minutes of a full server, captured once.
var busyCapture = sync.OnceValues(func() (*benchStream, error) {
	c := gamesim.PaperConfig(11)
	c.Outages = nil
	c.AttemptRate *= 5
	c.Warmup, c.Duration = 10*time.Minute, 10*time.Minute
	var bs benchStream
	_, err := gamesim.Run(c, &bs, nil)
	for start := 0; start < len(bs.recs); start += trace.BlockSize {
		cb := new(trace.ColumnBlock)
		cb.AppendFrom(bs.recs[start:min(start+trace.BlockSize, len(bs.recs))])
		bs.cols = append(bs.cols, cb)
	}
	return &bs, err
})

// benchStream holds a captured stream three ways: the records, where the
// generator's blocks end in them, and BlockSize column blocks.
type benchStream struct {
	recs []trace.Record
	ends []int
	cols []*trace.ColumnBlock
}

func (s *benchStream) Handle(r trace.Record) { s.HandleBatch([]trace.Record{r}) }

func (s *benchStream) HandleBatch(rs []trace.Record) {
	s.recs = append(s.recs, rs...)
	s.ends = append(s.ends, len(s.recs))
}

// eachBlock hands the generator's blocks to f in order.
func (s *benchStream) eachBlock(f func([]trace.Record)) {
	start := 0
	for _, end := range s.ends {
		f(s.recs[start:end])
		start = end
	}
}

func benchInput(b *testing.B) (*benchStream, SuiteConfig) {
	bs, err := busyCapture()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	return bs, DefaultSuiteConfig(10 * time.Minute)
}

// perRec reports the timed loop's cost per record of the stream.
func perRec(b *testing.B, bs *benchStream) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bs.recs)), "ns/rec")
}

func mustSuite(b *testing.B, sc SuiteConfig) *Suite {
	s, err := NewSuite(sc)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkUnit sweeps the column blocks through one shard unit of a fresh
// suite per pass. The fresh-suite benchmarks loop on b.N: b.Loop does not
// reach a time-based -benchtime when the timer stops inside it.
func BenchmarkUnit(b *testing.B) {
	bs, sc := benchInput(b)
	for u, unit := range mustSuite(b, sc).sweeps {
		b.Run(unit.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				b.StopTimer()
				sweep := mustSuite(b, sc).sweeps[u].sweep
				b.StartTimer()
				for _, cb := range bs.cols {
					sweep(cb)
				}
			}
			perRec(b, bs)
		})
	}
}

// BenchmarkSuite sweeps the column blocks through every unit of a fresh
// suite per pass.
func BenchmarkSuite(b *testing.B) {
	bs, sc := benchInput(b)
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		s := mustSuite(b, sc)
		b.StartTimer()
		for _, cb := range bs.cols {
			s.sweep(cb)
		}
	}
	perRec(b, bs)
}

// BenchmarkSummarySuite sweeps the column blocks through a fresh
// SummarySuite per pass: the four collectors the metrics store keeps, where
// BenchmarkSuite runs all of them.
func BenchmarkSummarySuite(b *testing.B) {
	bs, _ := benchInput(b)
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		s := NewSummarySuite()
		b.StartTimer()
		for _, cb := range bs.cols {
			s.HandleColumns(cb)
		}
	}
	perRec(b, bs)
}

// BenchmarkTranspose transposes the generator's blocks into one reused
// column block, as Suite.HandleBatch does.
func BenchmarkTranspose(b *testing.B) {
	bs, _ := benchInput(b)
	var cb trace.ColumnBlock
	for b.Loop() {
		bs.eachBlock(func(rs []trace.Record) { refill(&cb, rs) })
	}
	perRec(b, bs)
}

// BenchmarkSlim feeds the generator's blocks to a fresh slim suite per
// pass: transpose, counters and minute series.
func BenchmarkSlim(b *testing.B) {
	bs, _ := benchInput(b)
	for b.Loop() {
		s := NewSlimSuite(10 * time.Minute)
		bs.eachBlock(s.HandleBatch)
	}
	perRec(b, bs)
}

// BenchmarkRollingWindow sweeps the column blocks through a fresh
// one-minute RollingWindow per pass, as the daemon's rebase lends it each
// decoded block: the counts and the SHA-256 of 16 bytes per record.
func BenchmarkRollingWindow(b *testing.B) {
	bs, _ := benchInput(b)
	b.ResetTimer()
	for range b.N {
		rw := NewRollingWindow(time.Minute, nil)
		for _, cb := range bs.cols {
			rw.HandleColumns(cb)
		}
		rw.Close()
	}
	perRec(b, bs)
}
