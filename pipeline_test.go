package cstrace

import (
	"bytes"
	"testing"
	"time"

	"cstrace/internal/analysis"
)

// TestReproduceParallelismByteIdentical is the determinism contract of the
// block/sharded pipeline: for the same seed, the rendered report is
// byte-for-byte identical whether the suite runs single-threaded or sharded
// across workers.
func TestReproduceParallelismByteIdentical(t *testing.T) {
	base := Quick(1)
	base.Game.Duration = 5 * time.Minute
	base.Game.Warmup = 5 * time.Minute
	base.Suite = analysis.DefaultSuiteConfig(base.Game.Duration)

	var want []byte
	for _, parallel := range []int{0, 2, 3} {
		cfg := base
		cfg.Parallelism = parallel
		res, err := Reproduce(cfg)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallel, err)
		}
		var buf bytes.Buffer
		if err := res.WriteReport(&buf); err != nil {
			t.Fatalf("parallelism %d: report: %v", parallel, err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Errorf("report with Parallelism=%d differs from single-threaded report", parallel)
		}
	}
}
