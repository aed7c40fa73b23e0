package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"cstrace/internal/analysis"
	"cstrace/internal/gamesim"
	"cstrace/internal/loadtest"
	"cstrace/internal/metricstore"
	"cstrace/internal/metricsvc"
	"cstrace/internal/sched"
	"cstrace/internal/trace"
)

// probe is one layer run alone against a null neighbour. Per-record probes
// fill the ns fields; the others carry a value in their own unit.
type probe struct {
	Name    string  `json:"name"`
	WallNS  float64 `json:"wall_ns_per_rec,omitempty"`
	CPUNS   float64 `json:"cpu_ns_per_rec,omitempty"`
	Value   float64 `json:"value,omitempty"`
	Unit    string  `json:"unit,omitempty"`
	Records int64   `json:"records,omitempty"`
	N       int     `json:"n"`
}

// prober runs probes a fixed number of times and keeps the medians.
type prober struct {
	reps  int
	done  map[string]probe
	order []string
}

func newProber(reps int) *prober { return &prober{reps: reps, done: make(map[string]probe)} }

func (p *prober) add(pr probe) {
	if _, dup := p.done[pr.Name]; !dup {
		p.order = append(p.order, pr.Name)
	}
	p.done[pr.Name] = pr
}

func (p *prober) list() []probe {
	out := make([]probe, len(p.order))
	for i, name := range p.order {
		out[i] = p.done[name]
	}
	return out
}

// perRecord times fn, which reports how many records it processed, in wall
// and process-CPU nanoseconds per record.
func (p *prober) perRecord(name string, fn func() (int64, error)) error {
	var wall, cpu []float64
	var n int64
	for range p.reps {
		c0, t0 := cpuSeconds(), time.Now()
		got, err := fn()
		d, c := time.Since(t0), cpuSeconds()-c0
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		if got == 0 {
			return fmt.Errorf("probe %s: processed no records", name)
		}
		n = got
		wall = append(wall, float64(d)/float64(got))
		cpu = append(cpu, c*1e9/float64(got))
	}
	p.add(probe{Name: name, WallNS: median(wall), CPUNS: median(cpu), Records: n, N: len(wall)})
	return nil
}

// timed records the median wall time of fn in milliseconds.
func (p *prober) timed(name string, fn func() error) error {
	var ms []float64
	for range p.reps {
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	p.add(probe{Name: name, Value: median(ms), Unit: "ms", N: len(ms)})
	return nil
}

// rate records bytes per wall second of fn, in MB/s.
func (p *prober) rate(name string, bytes int64, fn func() error) error {
	if err := p.timed(name, fn); err != nil {
		return err
	}
	pr := p.done[name]
	pr.Value, pr.Unit = float64(bytes)/1e6/(pr.Value/1e3), "MB/s"
	p.add(pr)
	return nil
}

// cpu looks a per-record probe's CPU ns up; an absent probe reads 0.
func (p *prober) cpu(name string) float64 { return p.done[name].CPUNS }

// ---- gamesim ----

func gamesimProbes(p *prober, g gamesim.Config) error {
	run := func(workers int) func() (int64, error) {
		return func() (int64, error) {
			g.Workers = workers
			st, err := gamesim.Run(g, nullBatch{}, nil)
			return st.PacketsIn + st.PacketsOut, err
		}
	}
	return errors.Join(
		p.perRecord("gamesim.alone", run(1)),
		p.perRecord("gamesim.alone.auto", run(sched.Auto)),
	)
}

// ---- analysis ----

// analysisProbes sweeps the sample through the suite as the workload
// configures it, through its sharded and slim forms, and through each
// collector alone.
func analysisProbes(p *prober, smp *sample, cfg analysis.SuiteConfig) error {
	n := int64(len(smp.recs))
	span := smp.recs[len(smp.recs)-1].T
	replay := func(h trace.BatchHandler) (int64, error) {
		smp.replay(h)
		return n, nil
	}
	errs := []error{
		p.perRecord("analysis.suite.alone", func() (int64, error) {
			s, err := analysis.NewSuite(cfg)
			if err != nil {
				return 0, err
			}
			defer s.Close()
			return replay(s)
		}),
		p.perRecord("analysis.shard.alone", func() (int64, error) {
			s, err := analysis.NewSuite(cfg)
			if err != nil {
				return 0, err
			}
			sink, closeSink := s.Sink(sched.Auto)
			defer closeSink()
			return replay(sink.(trace.BatchHandler))
		}),
		p.perRecord("analysis.slim.alone", func() (int64, error) {
			s := analysis.NewSlimSuite(span)
			defer s.Close()
			return replay(s)
		}),
	}

	levels := analysis.DefaultSuiteConfig(span).VarTimeLevels
	collectors := map[string]func() (trace.BatchHandler, error){
		"counters":     func() (trace.BatchHandler, error) { return new(analysis.Counters), nil },
		"sizedist":     func() (trace.BatchHandler, error) { return analysis.NewSizeDist(1500), nil },
		"minutes":      func() (trace.BatchHandler, error) { return analysis.NewMinuteSeries(), nil },
		"window10ms":   func() (trace.BatchHandler, error) { return analysis.NewIntervalWindow(10*time.Millisecond, 200), nil },
		"interarrival": func() (trace.BatchHandler, error) { return analysis.NewInterarrival(), nil },
		"kinds":        func() (trace.BatchHandler, error) { return analysis.NewKindBreakdown(), nil },
		"periodicity": func() (trace.BatchHandler, error) {
			return analysis.NewPeriodicity(trace.Out, 10*time.Millisecond, 30), nil
		},
		"flows":   func() (trace.BatchHandler, error) { return analysis.NewFlowBandwidth(), nil },
		"vartime": func() (trace.BatchHandler, error) { return analysis.NewVarTime(10*time.Millisecond, levels) },
	}
	for _, name := range sweeps {
		errs = append(errs, p.perRecord("analysis.sweep."+name, func() (int64, error) {
			c, err := collectors[name]()
			if err != nil {
				return 0, err
			}
			return replay(c)
		}))
	}

	cols := smp.columns()
	sweepCols := func(handle func(*trace.ColumnBlock)) (int64, error) {
		for _, cb := range cols {
			handle(cb)
		}
		return n, nil
	}
	errs = append(errs,
		p.perRecord("analysis.sweep.sizedist.cols", func() (int64, error) {
			return sweepCols(analysis.NewSizeDist(1500).HandleColumns)
		}),
		p.perRecord("analysis.sweep.interarrival.cols", func() (int64, error) {
			return sweepCols(analysis.NewInterarrival().HandleColumns)
		}),
	)
	return errors.Join(errs...)
}

// ---- trace.Writer ----

// writerProbes writes the sample with one stage of the writer switched on
// at a time. A disordered sample (the fleet's merged stream) is sorted
// first for the strict-order probes; the SortWindow probe takes it as it
// came.
func writerProbes(env *runEnv, p *prober, smp *sample, disordered bool) error {
	n := int64(len(smp.recs))
	ordered := smp
	if disordered {
		ordered = &sample{recs: append([]trace.Record(nil), smp.recs...), ends: smp.ends}
		sort.SliceStable(ordered.recs, func(i, j int) bool { return ordered.recs[i].T < ordered.recs[j].T })
	}
	write := func(src *sample, tune func(*trace.Writer)) func() (int64, error) {
		return func() (int64, error) {
			w := trace.NewWriter(io.Discard)
			tune(w)
			src.replay(w)
			return n, w.Flush()
		}
	}
	errs := []error{
		p.perRecord("trace.writer.encode", write(ordered, func(w *trace.Writer) { w.CompressLevel = trace.CompressOff; w.Workers = 1 })),
		p.perRecord("trace.writer.default", write(ordered, func(w *trace.Writer) { w.Workers = 1 })),
		p.perRecord("trace.writer.workers", write(ordered, func(w *trace.Writer) { w.Workers = sched.Auto })),
		// The live capture's settings: 2 KiB segments and a four-tick
		// reorder window, sealed into memory (no Sync to call).
		p.perRecord("trace.writer.capture", func() (int64, error) {
			c := loadtest.NewCapture(io.Discard, fleetSortWindow/4)
			smp.replay(c)
			return n, c.Flush()
		}),
	}
	if disordered {
		errs = append(errs, p.perRecord("trace.writer.sortwindow",
			write(smp, func(w *trace.Writer) { w.SortWindow = fleetSortWindow; w.Workers = 1 })))
	}
	errs = append(errs, fsyncProbe(env, p, ordered))
	return errors.Join(errs...)
}

// fsyncProbe seals small segments into a real file with SyncEvery 1 and
// times each Sync the writer issues.
func fsyncProbe(env *runEnv, p *prober, smp *sample) error {
	f, err := os.Create(env.path("fsync.cst"))
	if err != nil {
		return err
	}
	defer f.Close()
	tf := &timedFile{f: f}
	w := trace.NewWriter(tf)
	w.SyncEvery = 1
	w.SegmentPayload = 16 << 10
	w.HandleBatch(smp.recs[:min(len(smp.recs), 200_000)])
	if err := w.Flush(); err != nil {
		return fmt.Errorf("probe trace.writer.fsync: %w", err)
	}
	ms := make([]float64, len(tf.syncs))
	for i, d := range tf.syncs {
		ms[i] = float64(d) / 1e6
	}
	p.add(probe{Name: "trace.writer.fsync_ms_p50", Value: quantile(ms, 0.5), Unit: "ms", N: len(ms)})
	p.add(probe{Name: "trace.writer.fsync_ms_p90", Value: quantile(ms, 0.9), Unit: "ms", N: len(ms)})
	return nil
}

// ---- trace.Reader ----

// encodeSample seals the (ordered) sample with the writer ctor makes.
func encodeSample(smp *sample, ctor func(*bytes.Buffer) *trace.Writer) ([]byte, error) {
	var buf bytes.Buffer
	w := ctor(&buf)
	smp.replay(w)
	err := w.Flush()
	return buf.Bytes(), err
}

// readerProbes reads the sample back from a sealed v4 file on disk along
// each delivery path, and from v2/v3 encodings of it in memory.
func readerProbes(env *runEnv, p *prober, smp *sample) error {
	path := env.path("sample.cst")
	v4, err := encodeSample(smp, func(b *bytes.Buffer) *trace.Writer { return trace.NewWriter(b) })
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, v4, 0o644); err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	size := int64(len(v4))

	// read runs one read path over the file from the top.
	read := func(do func(*trace.Reader) (int64, error)) func() (int64, error) {
		return func() (int64, error) {
			if _, err := f.Seek(0, 0); err != nil {
				return 0, err
			}
			return do(trace.NewReader(f))
		}
	}
	decodeAuto := func(rd *trace.Reader) (int64, error) {
		lease := sched.Default().Acquire(sched.Default().Total())
		defer lease.Release()
		return rd.ReadAllSharded(&nullColumns{}, lease.Workers())
	}
	span := smp.recs[len(smp.recs)-1].T
	errs := []error{
		p.timed("trace.reader.index_ms", func() error { _, err := trace.ReadIndex(f, size); return err }),
		// ReadAllSharded hands columns (or whole blocks) over only with two
		// or more decode workers; with one it takes the prefetch scan.
		p.perRecord("trace.reader.decode.cols", read(func(rd *trace.Reader) (int64, error) { return rd.ReadAllSharded(&nullColumns{}, 2) })),
		p.perRecord("trace.reader.decode.recs", read(func(rd *trace.Reader) (int64, error) { return rd.ReadAllSharded(nullBlocks{}, 2) })),
		p.perRecord("trace.reader.decode.auto", read(decodeAuto)),
		p.perRecord("trace.reader.prefetch", read(func(rd *trace.Reader) (int64, error) { return rd.ReadAllPrefetch(nullBatch{}) })),
		p.timed("trace.reader.range_ms", func() error {
			if _, err := f.Seek(0, 0); err != nil {
				return err
			}
			_, err := trace.NewReader(f).ReadRange(span/3, 2*span/3, nullBatch{})
			return err
		}),
		p.rate("trace.recover.sealed.mb_s", size, func() error { _, _, err := trace.Recover(f, size); return err }),
	}

	for _, old := range []struct {
		name string
		ctor func(*bytes.Buffer) *trace.Writer
	}{
		{"trace.reader.v2", func(b *bytes.Buffer) *trace.Writer { return trace.NewWriterV2(b) }},
		{"trace.reader.v3", func(b *bytes.Buffer) *trace.Writer { return trace.NewWriterV3(b) }},
	} {
		enc, err := encodeSample(smp, old.ctor)
		if err != nil {
			return err
		}
		errs = append(errs, p.perRecord(old.name, func() (int64, error) {
			return trace.NewReader(bytes.NewReader(enc)).ReadAllPrefetch(nullBatch{})
		}))
	}

	torn := env.path("sample-torn.cst")
	if err := os.WriteFile(torn, v4, 0o644); err != nil {
		return err
	}
	if err := tearFile(torn); err != nil {
		return err
	}
	tf, err := os.Open(torn)
	if err != nil {
		return err
	}
	defer tf.Close()
	st, err := tf.Stat()
	if err != nil {
		return err
	}
	errs = append(errs, p.rate("trace.recover.torn.mb_s", st.Size(), func() error { _, _, err := trace.Recover(tf, st.Size()); return err }))
	return errors.Join(errs...)
}

// ---- metricstore / metricsvc ----

func storeProbes(env *runEnv, p *prober) error {
	file := spoolFile(env, 0)
	fi, err := os.Stat(file)
	if err != nil {
		return err
	}
	fresh := func(name string) (*metricstore.Store, error) {
		path := env.path(name)
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		return metricstore.Open(path)
	}

	errs := []error{
		// The store the serial twin filled in set-up.
		p.timed("metricstore.open_ms", func() error {
			st, err := metricstore.Open(env.path("store-serial.csms"))
			if err != nil {
				return err
			}
			return st.Close()
		}),
		p.rate("metricstore.hash.mb_s", fi.Size(), func() error { _, _, err := metricstore.HashFile(file); return err }),
	}

	// 200 small rows, one fsynced append each.
	st, err := fresh("probe-append.csms")
	if err != nil {
		return err
	}
	var appendMS []float64
	for i := range 200 {
		t0 := time.Now()
		_, _, err := st.Ingest(&metricstore.Run{Hash: fmt.Sprintf("%064x", i+1), Kind: metricstore.KindWindow, Source: "probe", IngestedAt: fixedClock})
		if err != nil {
			st.Close()
			return fmt.Errorf("probe metricstore.append: %w", err)
		}
		appendMS = append(appendMS, float64(time.Since(t0))/1e6)
	}
	if err := st.Close(); err != nil {
		return err
	}
	p.add(probe{Name: "metricstore.append_ms_p50", Value: quantile(appendMS, 0.5), Unit: "ms", N: len(appendMS)})
	p.add(probe{Name: "metricstore.append_ms_p90", Value: quantile(appendMS, 0.9), Unit: "ms", N: len(appendMS)})

	// One file through the store's own path (no Extra, zero-copy hand-off
	// allowed), then again to hit the dedupe; then through the daemon's
	// tee path. The difference of the two is the cost of the tee.
	var held *metricstore.Store
	errs = append(errs,
		p.perRecord("metricstore.ingest_file", func() (int64, error) {
			if held != nil {
				held.Close()
			}
			if held, err = fresh("probe-ingest.csms"); err != nil {
				return 0, err
			}
			run, _, err := metricstore.IngestTraceFile(held, file, metricstore.IngestOptions{Parallelism: sched.Auto, Now: fixedClock})
			if err != nil {
				return 0, err
			}
			return run.Records, nil
		}))
	if held != nil {
		defer held.Close()
		errs = append(errs, p.timed("metricstore.dedupe_ms", func() error {
			_, added, err := metricstore.IngestTraceFile(held, file, metricstore.IngestOptions{Parallelism: sched.Auto, Now: fixedClock})
			if err == nil && added {
				err = errors.New("re-ingest of a held file added a row")
			}
			return err
		}))
	}
	errs = append(errs, p.perRecord("metricsvc.ingest_file", func() (int64, error) {
		st, err := fresh("probe-svc.csms")
		if err != nil {
			return 0, err
		}
		defer st.Close()
		eng, err := metricsvc.New(svcConfig(env, st, auto))
		if err != nil {
			return 0, err
		}
		run, _, err := eng.IngestFile(file)
		if err != nil {
			return 0, err
		}
		_, err = eng.Close()
		return run.Records, err
	}))
	return errors.Join(errs...)
}
