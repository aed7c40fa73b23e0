package trace_test

import (
	"bytes"
	"io"
	"slices"
	"sync"
	"testing"
	"time"

	"cstrace/internal/gamesim"
	"cstrace/internal/trace"
)

// The writer's and the reader's layers, timed where they live, over twenty
// busy minutes of gamesim output delivered in the generator's own blocks.
// BenchmarkWriter is the default writer, all on the caller's goroutine
// (Workers 1); BenchmarkWriterEncode is the same with CompressOff (encode,
// stripe, frame); BenchmarkDeflateColumn codes the same segments' runs one
// column at a time as the default writer does, so encode plus the three
// coded columns is about the writer. Mirrored on the read side:
// BenchmarkReader scans the default writer's file into a null sink,
// BenchmarkReaderDecode the CompressOff file (read, decode, deliver), and
// BenchmarkInflateColumn inflates the default file's stored runs one column
// at a time, so decode plus the three inflated columns is about the reader.

// busyBlocks is twenty busy minutes of a full server, captured once.
var busyBlocks = sync.OnceValues(func() (*blockCapture, error) {
	c := gamesim.PaperConfig(11)
	c.Outages = nil
	c.AttemptRate *= 5
	c.Warmup, c.Duration = 10*time.Minute, 20*time.Minute
	var bc blockCapture
	_, err := gamesim.Run(c, &bc, nil)
	return &bc, err
})

type blockCapture struct {
	blocks [][]trace.Record
	n      int
}

func (c *blockCapture) Handle(r trace.Record) { c.HandleBatch([]trace.Record{r}) }

func (c *blockCapture) HandleBatch(rs []trace.Record) {
	c.blocks = append(c.blocks, slices.Clone(rs))
	c.n += len(rs)
}

type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// writeBusy writes the captured stream to dst at level.
func writeBusy(b testing.TB, bc *blockCapture, level int, dst io.Writer) {
	w := trace.NewWriter(dst)
	w.CompressLevel, w.Workers = level, 1
	for _, blk := range bc.blocks {
		w.HandleBatch(blk)
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
}

func benchWriter(b *testing.B, level int) {
	bc, err := busyBlocks()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cw countWriter
	for i := 0; i < b.N; i++ {
		cw.n = 0
		writeBusy(b, bc, level, &cw)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.n), "ns/rec")
	b.ReportMetric(float64(cw.n)/float64(bc.n), "B/rec")
}

// BenchmarkWriter is the default v4 writer.
func BenchmarkWriter(b *testing.B) { benchWriter(b, 0) }

// BenchmarkWriterEncode is the v4 writer with nothing to compress.
func BenchmarkWriterEncode(b *testing.B) { benchWriter(b, trace.CompressOff) }

// BenchmarkDeflateColumn codes each column's run of every segment the
// default writer cuts, with that column's coder; B/rec is what the column
// stores. The deltas run is stored literally and has no entry.
func BenchmarkDeflateColumn(b *testing.B) {
	bc, err := busyBlocks()
	if err != nil {
		b.Fatal(err)
	}
	var file bytes.Buffer
	writeBusy(b, bc, trace.CompressOff, &file)
	segs, err := trace.ColumnRuns(file.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	for c, name := range (trace.ColumnStats{}).ColumnNames() {
		if c == 0 {
			continue
		}
		b.Run(name, func(b *testing.B) {
			var rc trace.RunCoder
			var stored int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stored = 0
				for _, runs := range segs {
					s, err := rc.StoreRun(c, runs[c], trace.ColumnarCompressLevel)
					if err != nil {
						b.Fatal(err)
					}
					stored += s
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.n), "ns/rec")
			b.ReportMetric(float64(stored)/float64(bc.n), "B/rec")
		})
	}
}

// nullSink takes records and does nothing with them.
type nullSink struct{}

func (nullSink) Handle(trace.Record)        {}
func (nullSink) HandleBatch([]trace.Record) {}

// nullColumns takes v4 segments as columns and recycles them.
type nullColumns struct{ nullSink }

func (nullColumns) IngestBlock(blk *trace.Block)        { trace.FreeBlock(blk) }
func (nullColumns) IngestColumns(cb *trace.ColumnBlock) { trace.FreeColumnBlock(cb) }

func benchReader(b *testing.B, level int, sink trace.Handler) {
	bc, err := busyBlocks()
	if err != nil {
		b.Fatal(err)
	}
	var file bytes.Buffer
	writeBusy(b, bc, level, &file)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := trace.NewReader(bytes.NewReader(file.Bytes())).ReadAllSharded(sink, 1)
		if err != nil || n != int64(bc.n) {
			b.Fatalf("read %d of %d records: %v", n, bc.n, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.n), "ns/rec")
}

// BenchmarkReader is one whole-file read of the default v4 file through its
// index, at one worker: the engine's floor of two decode goroutines.
func BenchmarkReader(b *testing.B) { benchReader(b, 0, nullSink{}) }

// BenchmarkReaderDecode is BenchmarkReader with nothing to inflate.
func BenchmarkReaderDecode(b *testing.B) { benchReader(b, trace.CompressOff, nullSink{}) }

// BenchmarkReaderColumns is the same read into a sink that takes columns:
// BenchmarkReader without the interleave into Records.
func BenchmarkReaderColumns(b *testing.B) { benchReader(b, 0, nullColumns{}) }

// BenchmarkInflateColumn reconstructs each column's run of every compressed
// segment the default writer stores, as the reader does: inflated when
// coded, copied when stored literal. The deltas run is always literal and
// has no entry.
func BenchmarkInflateColumn(b *testing.B) {
	bc, err := busyBlocks()
	if err != nil {
		b.Fatal(err)
	}
	var file bytes.Buffer
	writeBusy(b, bc, 0, &file)
	segs, err := trace.StoredColumnRuns(file.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	for c, name := range (trace.ColumnStats{}).ColumnNames() {
		if c == 0 {
			continue
		}
		b.Run(name, func(b *testing.B) {
			var ri trace.RunInflater
			var dst []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, runs := range segs {
					run := runs[c]
					dst = slices.Grow(dst[:0], run.RawLen)[:run.RawLen]
					if !run.Coded() {
						copy(dst, run.Stored)
					} else if _, err := ri.Inflate(dst, run.Stored); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.n), "ns/rec")
		})
	}
}
