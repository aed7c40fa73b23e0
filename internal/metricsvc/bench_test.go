package metricsvc_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cstrace/internal/gamesim"
	"cstrace/internal/metricstore"
	"cstrace/internal/metricsvc"
	"cstrace/internal/sched"
	"cstrace/internal/trace"
)

// busyTraces caches busyTrace's files by seed.
var busyTraces sync.Map // uint64 → func() ([]byte, error)

// busyTrace is a v4 file of ten busy minutes of a full server, encoded once
// per seed.
func busyTrace(seed uint64) ([]byte, error) {
	f, _ := busyTraces.LoadOrStore(seed, sync.OnceValues(func() ([]byte, error) {
		c := gamesim.PaperConfig(seed)
		c.Outages = nil
		c.AttemptRate *= 5
		c.Warmup, c.Duration = 10*time.Minute, 10*time.Minute
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		if _, err := gamesim.Run(c, w, nil); err != nil {
			return nil, err
		}
		err := w.Flush()
		return buf.Bytes(), err
	}))
	return f.(func() ([]byte, error))()
}

// BenchmarkEngineIngest is the daemon's per-file job at its default
// parallelism (auto): one v4 spool file into a fresh store through a fresh
// engine — hash, read, the per-file suite, the rebase into the cumulative
// suite and the one-minute window, the appends and the service row.
func BenchmarkEngineIngest(b *testing.B) {
	file, err := busyTrace(11)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	path := filepath.Join(dir, "busy"+metricsvc.TraceSuffix)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		b.Fatal(err)
	}
	storePath := filepath.Join(dir, "m.csms")
	b.ReportAllocs()
	b.ResetTimer()
	var records int64
	for range b.N {
		st, err := metricstore.Open(storePath)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := metricsvc.New(metricsvc.Config{
			Store: st, Window: time.Minute, Parallelism: sched.Auto, Now: fixedClock(),
		})
		if err != nil {
			b.Fatal(err)
		}
		run, added, err := eng.IngestFile(path)
		if err != nil || !added {
			b.Fatalf("IngestFile: added %v, %v", added, err)
		}
		if _, err := eng.Close(); err != nil {
			b.Fatal(err)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		records += run.Records
		b.StopTimer()
		if err := os.Remove(storePath); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/rec")
}

// BenchmarkEngineSweep is the daemon's sweep over a spool of four distinct
// busy files (seeds 11–14) into a fresh store through a fresh engine: on
// top of BenchmarkEngineIngest's per-file job, each file after the first is
// hashed while the one before it is read.
func BenchmarkEngineSweep(b *testing.B) {
	spool := b.TempDir()
	for i, seed := range []uint64{11, 12, 13, 14} {
		file, err := busyTrace(seed)
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(spool, fmt.Sprintf("f%d%s", i, metricsvc.TraceSuffix)), file, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	storePath := filepath.Join(b.TempDir(), "m.csms")
	b.ReportAllocs()
	b.ResetTimer()
	var records int64
	for range b.N {
		st, err := metricstore.Open(storePath)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := metricsvc.New(metricsvc.Config{
			Store: st, Spool: spool, Window: time.Minute, Parallelism: sched.Auto, Now: fixedClock(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if n, err := eng.Sweep(); err != nil || n != 4 {
			b.Fatalf("Sweep = %d, %v; want 4, nil", n, err)
		}
		svc, err := eng.Close()
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		records += svc.Records
		b.StopTimer()
		if err := os.Remove(storePath); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/rec")
}
