package metricsvc_test

import (
	"bytes"
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

// busyTrace is a v4 file of ten busy minutes of a full server, encoded once.
var busyTrace = sync.OnceValues(func() ([]byte, error) {
	c := gamesim.PaperConfig(11)
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
})

// BenchmarkEngineIngest is the daemon's per-file job at its default
// parallelism (auto): one v4 spool file into a fresh store through a fresh
// engine — hash, read, the per-file suite, the rebase into the cumulative
// suite and the one-minute window, the appends and the service row.
func BenchmarkEngineIngest(b *testing.B) {
	file, err := busyTrace()
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
