package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"cstrace"
	"cstrace/internal/analysis"
	"cstrace/internal/gamesim"
	"cstrace/internal/metricstore"
	"cstrace/internal/metricsvc"
	"cstrace/internal/sched"
	"cstrace/internal/trace"
)

// knobs is one setting of every worker knob at once: the CLI default
// ("auto", resolved against the process-wide budget) or the all-serial twin.
type knobs struct {
	name    string
	workers int
}

var (
	auto   = knobs{"auto", sched.Auto}
	serial = knobs{"serial", 1}
)

// sizes fixes how much work one rep of a workload is. Two results files are
// only comparable when these match.
type sizes struct {
	Duration time.Duration `json:"duration_ns"`       // trace time one rep covers
	Servers  int           `json:"servers,omitempty"` // fleet size
	Files    int           `json:"files,omitempty"`   // intact spool files (one torn file rides along)
	Sample   time.Duration `json:"sample_ns"`         // trace time of the isolation probes' sample
}

// runEnv is what a workload's functions share: where files go, which seed
// builds the inputs, and how big the job is.
type runEnv struct {
	dir  string
	seed uint64
	sz   sizes
}

func (e *runEnv) path(name string) string { return filepath.Join(e.dir, name) }

// jobResult is what one rep hands back for checking and accounting.
type jobResult struct {
	records    int64     // the job's own count of records processed
	outBytes   int64     // bytes of output: report, trace file or store
	digest     string    // identifies the output; equal across reps, legs and the serial twin
	ops        int       // operations attempted (1 per rep; 1 per file on ingest)
	opMS       []float64 // wall ms per operation, when the job has more than one
	sharded    bool      // the job ran a suite; the two fields below are its shard's
	rebalances int
	maxDepth   float64 // highest mean channel depth among the suite's groups
	counts     map[string]float64
	// verify runs after the clock stops: digests of files and the replay
	// check are correctness work, not the job.
	verify func(*jobResult) error
}

func shardStats(r *jobResult, depths []analysis.GroupDepth, rebs []analysis.Rebalance) {
	r.sharded = true
	r.rebalances = len(rebs)
	for _, d := range depths {
		r.maxDepth = max(r.maxDepth, d.MeanDepth())
	}
}

// workload is one named job of the benchmark.
type workload struct {
	name, why string
	// size scales the reference sizes; 1 is the committed benchmark.
	size func(scale float64) sizes
	// setup builds the inputs under env.dir. It may run several times.
	setup func(env *runEnv) error
	// job runs one rep through the root package's entry points, as the CLI
	// would with every knob at k.
	job func(env *runEnv, k knobs) (jobResult, error)
	// traced runs the same job recomposed from the same public calls, with
	// a timing sink at each layer boundary.
	traced func(env *runEnv, k knobs, lt *legTrace) (jobResult, error)
	// probes times each layer the job uses alone, on a bounded sample.
	probes func(env *runEnv, p *prober) error
	// attribution names the probes whose CPU per record should add up to
	// the serial leg's.
	attribution []string
}

func scaled(d time.Duration, scale float64, floor time.Duration) time.Duration {
	return max(time.Duration(float64(d)*scale).Truncate(time.Minute), floor)
}

var workloads = []workload{
	{
		name: "reproduce",
		why:  "generate and analyze in one process, no trace I/O: gamesim and analysis do all the work, so a codec change must not move it",
		size: func(s float64) sizes {
			return sizes{Duration: scaled(100*time.Minute, s, 2*time.Minute), Sample: scaled(20*time.Minute, s, time.Minute)}
		},
		setup:       noSetup,
		job:         reproduceJob,
		traced:      reproduceTraced,
		probes:      reproduceProbes,
		attribution: []string{"gamesim.alone", "analysis.suite.alone"},
	},
	{
		name: "persist",
		why:  "generate straight into a v4 trace file: bulk in-order use of trace.Writer (encode, stripe, deflate, write); analysis does nothing",
		size: func(s float64) sizes {
			return sizes{Duration: scaled(60*time.Minute, s, 2*time.Minute), Sample: scaled(20*time.Minute, s, time.Minute)}
		},
		setup:       noSetup,
		job:         persistJob,
		traced:      persistTraced,
		probes:      persistProbes,
		attribution: []string{"gamesim.alone", "trace.writer.default"},
	},
	{
		name: "analyze",
		why:  "read one big page-cache-warm v4 file into the full suite: trace.Reader (read, inflate, decode, deliver) and analysis; gamesim does nothing",
		size: func(s float64) sizes {
			return sizes{Duration: scaled(150*time.Minute, s, 2*time.Minute), Sample: scaled(20*time.Minute, s, time.Minute)}
		},
		setup:       analyzeSetup,
		job:         analyzeJob,
		traced:      analyzeTraced,
		probes:      analyzeProbes,
		attribution: []string{"trace.reader.prefetch", "analysis.suite.alone"},
	},
	{
		name: "fleet",
		why:  "8-server launch-day scenario with slim per-server suites, merged and written through a 200 ms SortWindow: scenario merge, the budget split, and the writer's reorder path",
		size: func(s float64) sizes {
			return sizes{Duration: scaled(4*time.Minute, s, time.Minute), Servers: 8, Sample: scaled(2*time.Minute, s, time.Minute)}
		},
		setup:       noSetup,
		job:         fleetJob,
		traced:      fleetTraced,
		probes:      fleetProbes,
		attribution: []string{"gamesim.fleet.alone", "analysis.suite.alone", "analysis.slim.alone", "trace.writer.sortwindow"},
	},
	{
		name: "ingest",
		why:  "daemon sweep of a spool of small v4 files plus one torn file into a fresh store: per-file reader start-up, SHA-256 pass, the Extra tee path, fsynced appends and windows",
		size: func(s float64) sizes {
			return sizes{Duration: scaled(10*time.Minute, s, 3*time.Minute), Files: max(2, int(8*s)), Sample: scaled(10*time.Minute, s, 3*time.Minute)}
		},
		setup:       ingestSetup,
		job:         ingestJob,
		traced:      runIngest,
		probes:      ingestProbes,
		attribution: []string{"metricsvc.ingest_file"},
	},
}

func noSetup(*runEnv) error { return nil }

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// paperGame is the paper's server for d of trace time with no outages and
// the fill stage at k, at the busy-server load cstrace.Quick uses (arrivals
// ×5, no diurnal swing): the slots stay full, so every seed makes a stream of
// the same size and shape and a run on another seed is the same job.
func paperGame(seed uint64, d time.Duration, k knobs) gamesim.Config {
	g := gamesim.PaperConfig(seed)
	g.Duration = d
	g.Outages = nil
	g.AttemptRate *= 5
	g.DiurnalAmp = 0
	g.Workers = k.workers
	return g
}

// writeTrace generates g into a sealed default v4 file at path.
func writeTrace(path string, g gamesim.Config, k knobs) (records int64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := trace.NewWriter(f)
	w.Workers = k.workers
	if _, err := gamesim.Run(g, w, nil); err != nil {
		return 0, err
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	return w.Count(), f.Close()
}

// fileOutput fills r from the file a job wrote and leaves its digest to
// verify.
func fileOutput(r *jobResult, path string) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.outBytes = st.Size()
	prefix := r.digest
	r.verify = func(r *jobResult) error {
		d, _, err := metricstore.HashFile(path)
		r.digest = prefix + d
		return err
	}
	return nil
}

// ---- reproduce ----

func reproduceConfig(env *runEnv, k knobs) cstrace.Config {
	g := paperGame(env.seed, env.sz.Duration, k)
	return cstrace.Config{Game: g, Suite: analysis.DefaultSuiteConfig(g.Duration), Parallelism: k.workers}
}

func reproduceJob(env *runEnv, k knobs) (jobResult, error) {
	res, err := cstrace.Reproduce(reproduceConfig(env, k))
	if err != nil {
		return jobResult{}, err
	}
	out := newDigestWriter()
	if err := res.WriteReport(out); err != nil {
		return jobResult{}, err
	}
	r := jobResult{records: res.TableII.TotalPackets, outBytes: out.n, digest: out.sum(), ops: 1}
	shardStats(&r, res.GroupDepths, res.Rebalances)
	return r, nil
}

// reproduceTraced is cstrace.Reproduce taken apart: the same suite, sink
// and generator calls, with the clock read at each hand-over.
func reproduceTraced(env *runEnv, k knobs, lt *legTrace) (jobResult, error) {
	cfg := reproduceConfig(env, k)
	cfg.Suite.SortedInput = true
	root := lt.begin("job", 0)
	defer lt.end(root)
	suite, err := analysis.NewSuite(cfg.Suite)
	if err != nil {
		return jobResult{}, err
	}
	sink, closeSink := suite.Sink(cfg.Parallelism)
	gen := lt.begin("gamesim.run", root)
	b := lt.boundary("analysis.sink", gen)
	st, err := gamesim.Run(cfg.Game, timedSink(sink, b), suite.Observe)
	b.close()
	lt.end(gen)
	lt.do("analysis.drain", root, closeSink)
	if err != nil {
		return jobResult{}, err
	}
	res := &cstrace.Results{
		Config: cfg, Stats: st, Suite: suite,
		TableI:   analysis.TableIFromStats(st),
		TableII:  suite.Count.TableII(cfg.Game.Duration),
		TableIII: suite.Count.TableIII(),
		Regions: analysis.Regions(suite.VT.Points(), cfg.Suite.VarTimeBase,
			cfg.Game.TickInterval, cfg.Game.MapDuration+cfg.Game.MapChangePause),
	}
	out := newDigestWriter()
	lt.do("report.write", root, func() { err = res.WriteReport(out) })
	if err != nil {
		return jobResult{}, err
	}
	r := jobResult{records: res.TableII.TotalPackets, outBytes: out.n, digest: out.sum(), ops: 1}
	if sh, ok := sink.(*analysis.ShardedSuite); ok {
		shardStats(&r, sh.Depths(), sh.Rebalances())
	}
	return r, nil
}

func reproduceProbes(env *runEnv, p *prober) error {
	g := paperGame(env.seed, env.sz.Sample, serial)
	smp := &sample{}
	if _, err := gamesim.Run(g, smp, nil); err != nil {
		return err
	}
	cfg := analysis.DefaultSuiteConfig(env.sz.Sample)
	cfg.SortedInput = true
	return errors.Join(gamesimProbes(p, g), analysisProbes(p, smp, cfg))
}

// ---- persist ----

func persistJob(env *runEnv, k knobs) (jobResult, error) {
	path := env.path("persist.cst")
	n, err := writeTrace(path, paperGame(env.seed, env.sz.Duration, k), k)
	if err != nil {
		return jobResult{}, err
	}
	r := jobResult{records: n, ops: 1}
	err = fileOutput(&r, path)
	return r, err
}

func persistTraced(env *runEnv, k knobs, lt *legTrace) (jobResult, error) {
	path := env.path("persist.cst")
	root := lt.begin("job", 0)
	defer lt.end(root)
	f, err := os.Create(path)
	if err != nil {
		return jobResult{}, err
	}
	defer f.Close()
	tf := &timedFile{f: f}
	w := trace.NewWriter(tf)
	w.Workers = k.workers
	gen := lt.begin("gamesim.run", root)
	b := lt.boundary("trace.writer.sink", gen)
	_, err = gamesim.Run(paperGame(env.seed, env.sz.Duration, k), timedSink(w, b), nil)
	b.close()
	lt.end(gen)
	if err != nil {
		return jobResult{}, err
	}
	lt.do("trace.writer.flush", root, func() { err = w.Flush() })
	if err != nil {
		return jobResult{}, err
	}
	if err := f.Close(); err != nil {
		return jobResult{}, err
	}
	r := jobResult{records: w.Count(), ops: 1, counts: writerCounts(lt, path, tf)}
	err = fileOutput(&r, path)
	return r, err
}

// writerCounts reads the segment count back from the sealed file's index.
func writerCounts(lt *legTrace, path string, tf *timedFile) map[string]float64 {
	lt.t.count("trace.writer.writes", tf.writes)
	c := map[string]float64{"trace.writer.bytes": float64(tf.bytes)}
	if f, err := os.Open(path); err == nil {
		defer f.Close()
		if ix, err := trace.ReadIndex(f, tf.bytes); err == nil {
			c["trace.writer.segments"] = float64(len(ix.Segments))
		}
	}
	return c
}

func persistProbes(env *runEnv, p *prober) error {
	g := paperGame(env.seed, env.sz.Sample, serial)
	smp := &sample{}
	if _, err := gamesim.Run(g, smp, nil); err != nil {
		return err
	}
	return errors.Join(gamesimProbes(p, g), writerProbes(env, p, smp, false))
}

// ---- analyze ----

func analyzeSetup(env *runEnv) error {
	_, err := writeTrace(env.path("analyze.cst"), paperGame(env.seed, env.sz.Duration, auto), auto)
	return err
}

func analyzeJob(env *runEnv, k knobs) (jobResult, error) {
	f, err := os.Open(env.path("analyze.cst"))
	if err != nil {
		return jobResult{}, err
	}
	defer f.Close()
	a, err := cstrace.AnalyzeTrace(f, k.workers)
	if err != nil {
		return jobResult{}, err
	}
	out := newDigestWriter()
	if err := a.WriteReport(out); err != nil {
		return jobResult{}, err
	}
	r := jobResult{records: a.Records, outBytes: out.n, digest: out.sum(), ops: 1}
	shardStats(&r, a.GroupDepths, a.Rebalances)
	return r, nil
}

// analyzeTraced is cstrace.AnalyzeTrace taken apart, budget leases included.
func analyzeTraced(env *runEnv, k knobs, lt *legTrace) (jobResult, error) {
	f, err := os.Open(env.path("analyze.cst"))
	if err != nil {
		return jobResult{}, err
	}
	defer f.Close()
	root := lt.begin("job", 0)
	defer lt.end(root)
	suite, err := analysis.NewSuite(analysis.SuiteConfig{SortedInput: true})
	if err != nil {
		return jobResult{}, err
	}
	rd := trace.NewReader(f)
	sink, closeSink := suite.Sink(k.workers)
	decodePar := k.workers
	if k.workers == sched.Auto {
		lease := sched.Default().Acquire(sched.Default().Total())
		decodePar = lease.Workers()
		defer lease.Release()
	}
	read := lt.begin("trace.reader.read", root)
	b := lt.boundary("analysis.sink", read)
	n, err := rd.ReadAllSharded(timedSink(sink, b), decodePar)
	b.close()
	lt.end(read)
	lt.do("analysis.drain", root, closeSink)
	if err != nil {
		return jobResult{}, err
	}
	a := &cstrace.TraceAnalysis{
		Records: n, Version: rd.Version(), Warning: rd.Warning(), Suite: suite,
		TableII:  suite.Count.TableII(0),
		TableIII: suite.Count.TableIII(),
		Regions: analysis.Regions(suite.VT.Points(), 10*time.Millisecond,
			50*time.Millisecond, 30*time.Minute+48*time.Second),
	}
	out := newDigestWriter()
	lt.do("report.write", root, func() { err = a.WriteReport(out) })
	if err != nil {
		return jobResult{}, err
	}
	r := jobResult{records: n, outBytes: out.n, digest: out.sum(), ops: 1}
	if sh, ok := sink.(*analysis.ShardedSuite); ok {
		shardStats(&r, sh.Depths(), sh.Rebalances())
	}
	return r, nil
}

func analyzeProbes(env *runEnv, p *prober) error {
	smp, err := sampleOfFile(env.path("analyze.cst"), env.sz.Sample)
	if err != nil {
		return err
	}
	return errors.Join(readerProbes(env, p, smp), analysisProbes(p, smp, analysis.SuiteConfig{SortedInput: true}))
}

// sampleOfFile reads the first d of trace time from a trace file.
func sampleOfFile(path string, d time.Duration) (*sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	smp := &sample{}
	_, err = trace.NewReader(f).ReadRange(0, d, smp)
	return smp, err
}

// ---- fleet ----

const fleetSortWindow = 200 * time.Millisecond

func fleetConfig(env *runEnv, d time.Duration, k knobs) cstrace.ScenarioConfig {
	cfg := cstrace.LaunchDay(env.seed, env.sz.Servers)
	cfg.Spec.Duration = d
	cfg.Parallelism = k.workers
	cfg.GenWorkers = k.workers
	cfg.PerServer = cstrace.PerServerSlim
	return cfg
}

// fleetWriter is the writer `cstrace -mode scenario -out` sets up: the merged
// stream is disordered by up to a tick, and the writer restores strict order
// inside its own SortWindow.
func fleetWriter(dst io.Writer, k knobs) *trace.Writer {
	w := trace.NewWriter(dst)
	w.SortWindow = fleetSortWindow
	w.Workers = k.workers
	return w
}

// fleetJob is `cstrace -mode scenario -perslim -out`.
func fleetJob(env *runEnv, k knobs) (jobResult, error) {
	path := env.path("fleet.cst")
	f, err := os.Create(path)
	if err != nil {
		return jobResult{}, err
	}
	defer f.Close()
	w := fleetWriter(f, k)
	cfg := fleetConfig(env, env.sz.Duration, k)
	cfg.Extra = w
	res, err := cstrace.RunScenario(cfg)
	if err != nil {
		return jobResult{}, err
	}
	if err := w.Flush(); err != nil {
		return jobResult{}, err
	}
	out := newDigestWriter()
	if err := writeFleetReport(out, res); err != nil {
		return jobResult{}, err
	}
	if err := f.Close(); err != nil {
		return jobResult{}, err
	}
	return fleetResult(path, w, out, res, nil)
}

// fleetTraced is the same calls with the writer behind a timing sink and
// its file behind a timedFile; the generators, merge and suites are inside
// RunScenario and show up as what is left of scenario.run.
func fleetTraced(env *runEnv, k knobs, lt *legTrace) (jobResult, error) {
	path := env.path("fleet.cst")
	f, err := os.Create(path)
	if err != nil {
		return jobResult{}, err
	}
	defer f.Close()
	tf := &timedFile{f: f}
	w := fleetWriter(tf, k)
	cfg := fleetConfig(env, env.sz.Duration, k)

	root := lt.begin("job", 0)
	defer lt.end(root)
	run := lt.begin("scenario.run", root)
	b := lt.boundary("trace.writer.sink", run)
	cfg.Extra = timedSink(w, b)
	res, err := cstrace.RunScenario(cfg)
	b.close()
	lt.end(run)
	if err != nil {
		return jobResult{}, err
	}
	lt.do("trace.writer.flush", root, func() { err = w.Flush() })
	if err != nil {
		return jobResult{}, err
	}
	out := newDigestWriter()
	lt.do("report.write", root, func() { err = writeFleetReport(out, res) })
	if err != nil {
		return jobResult{}, err
	}
	if err := f.Close(); err != nil {
		return jobResult{}, err
	}
	return fleetResult(path, w, out, res, writerCounts(lt, path, tf))
}

func fleetResult(path string, w *trace.Writer, out *digestWriter, res *cstrace.ScenarioResults, counts map[string]float64) (jobResult, error) {
	r := jobResult{records: w.Count(), digest: out.sum(), ops: 1, counts: counts}
	shardStats(&r, res.Aggregate.GroupDepths, res.Aggregate.Rebalances)
	err := fileOutput(&r, path)
	return r, err
}

// writeFleetReport renders what -perslim prints: the fleet report and one
// line per server from its slim suite.
func writeFleetReport(out *digestWriter, res *cstrace.ScenarioResults) error {
	if err := res.WriteReport(out); err != nil {
		return err
	}
	for _, s := range res.Servers {
		t2 := s.Slim.TableII()
		fmt.Fprintf(out, "%s %d %.1f\n", s.Name, t2.TotalPackets, t2.MeanBW.Kbs())
	}
	return nil
}

func fleetProbes(env *runEnv, p *prober) error {
	cfg := fleetConfig(env, env.sz.Sample, serial)
	smp := &sample{}
	cfg.Extra = smp
	if _, err := cstrace.RunScenario(cfg); err != nil {
		return err
	}
	servers, err := cfg.Spec.Build()
	if err != nil {
		return err
	}
	// The fleet's generators, one by one: what the merge has to beat.
	err = p.perRecord("gamesim.fleet.alone", func() (int64, error) {
		var n int64
		for _, sp := range servers {
			g := sp.Game
			g.Workers = 1
			st, err := gamesim.Run(g, nullBatch{}, nil)
			if err != nil {
				return 0, err
			}
			n += st.PacketsIn + st.PacketsOut
		}
		return n, nil
	})
	// The aggregate suite sees the merge's bounded disorder, so it keeps its
	// sorting stage; the slim suites and the writer probes see it too.
	return errors.Join(err,
		analysisProbes(p, smp, analysis.DefaultSuiteConfig(env.sz.Sample)),
		writerProbes(env, p, smp, true))
}

// ---- ingest ----

var fixedClock = time.Date(2002, 4, 11, 8, 55, 4, 0, time.UTC)

const tornName = "zz-torn" + metricsvc.TraceSuffix

func spoolFile(env *runEnv, i int) string {
	return filepath.Join(env.path("spool"), fmt.Sprintf("f%02d%s", i, metricsvc.TraceSuffix))
}

// ingestSetup builds the spool: Files intact traces from seeds seed+1… and
// one more cut in the middle of a segment, as a crashed capture leaves it.
func ingestSetup(env *runEnv) error {
	if err := os.MkdirAll(env.path("spool"), 0o755); err != nil {
		return err
	}
	for i := range env.sz.Files {
		if _, err := writeTrace(spoolFile(env, i), paperGame(env.seed+1+uint64(i), env.sz.Duration, auto), auto); err != nil {
			return err
		}
	}
	torn := filepath.Join(env.path("spool"), tornName)
	if _, err := writeTrace(torn, paperGame(env.seed+1+uint64(env.sz.Files), env.sz.Duration, auto), auto); err != nil {
		return err
	}
	return tearFile(torn)
}

// tearFile truncates a sealed trace halfway through the payload of its
// middle segment.
func tearFile(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	ix, err := trace.ReadIndex(f, st.Size())
	if err != nil {
		return err
	}
	if len(ix.Segments) < 2 {
		return fmt.Errorf("%s: %d segments, too few to tear", path, len(ix.Segments))
	}
	// Offset is the frame marker; header plus payload is longer than half
	// the payload, so this lands inside the frame.
	seg := ix.Segments[len(ix.Segments)/2]
	cut := seg.Offset + int64(seg.PayloadLen)/2
	return f.Truncate(cut)
}

// svcConfig is the daemon over the workload's spool with one-minute windows,
// a fixed clock (rows must hash the same on every rep) and its reports off.
func svcConfig(env *runEnv, st *metricstore.Store, k knobs) metricsvc.Config {
	return metricsvc.Config{
		Store: st, Spool: env.path("spool"), Parallelism: k.workers,
		Window: time.Minute, ReportEvery: -1,
		Now: func() time.Time { return fixedClock },
	}
}

// runIngest is the daemon's life in one call: open a fresh store, sweep the
// spool, close. Its layer boundaries are those few calls, so the measured job
// (lt nil) and the traced one are the same code.
func runIngest(env *runEnv, k knobs, lt *legTrace) (jobResult, error) {
	storePath := env.path("store-" + k.name + ".csms")
	if err := os.Remove(storePath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return jobResult{}, err
	}
	root := lt.begin("job", 0)
	defer lt.end(root)

	var st *metricstore.Store
	var err error
	lt.do("metricstore.open", root, func() { st, err = metricstore.Open(storePath) })
	if err != nil {
		return jobResult{}, err
	}
	defer st.Close()

	// Engine.Sweep ingests file by file and reports each through Logf; the
	// gaps between those calls are the per-file ingest times.
	var fileMS []float64
	var last time.Time
	var sweep int
	cfg := svcConfig(env, st, k)
	cfg.Logf = func(string, ...any) {
		now := time.Now()
		fileMS = append(fileMS, float64(now.Sub(last))/1e6)
		lt.add("metricsvc.ingest_file", sweep, last, now)
		last = now
	}
	eng, err := metricsvc.New(cfg)
	if err != nil {
		return jobResult{}, err
	}
	sweep = lt.begin("metricsvc.sweep", root)
	last = time.Now()
	added, err := eng.Sweep()
	lt.end(sweep)
	if err != nil {
		return jobResult{}, err
	}
	lt.do("metricsvc.close", root, func() { _, err = eng.Close() })
	if err != nil {
		return jobResult{}, err
	}

	files := env.sz.Files + 1
	r := jobResult{ops: files, opMS: fileMS, counts: map[string]float64{
		"metricstore.rows":  float64(st.Len()),
		"metricsvc.windows": float64(eng.Windows()),
	}}
	var tornRun *metricstore.Run
	for _, run := range st.Runs() {
		if run.Kind == metricstore.KindTrace {
			r.records += run.Records
			if filepath.Base(run.Source) == tornName {
				tornRun = run
			}
		}
	}
	want := files + int(eng.Windows()) + 1
	switch {
	case added != files:
		err = fmt.Errorf("sweep ingested %d files, want %d", added, files)
	case st.Len() != want:
		err = fmt.Errorf("store holds %d rows, want files+windows+1 = %d", st.Len(), want)
	case tornRun == nil || tornRun.Records == 0 || tornRun.Warning == "":
		err = fmt.Errorf("torn file did not ingest a salvaged prefix: %+v", tornRun)
	}
	if err != nil {
		return jobResult{}, err
	}
	if err := st.Close(); err != nil {
		return jobResult{}, err
	}
	if err := fileOutput(&r, storePath); err != nil {
		return jobResult{}, err
	}
	digest := r.verify
	r.verify = func(r *jobResult) error {
		if err := digest(r); err != nil {
			return err
		}
		return replayAddsNothing(env, k, storePath, r.outBytes)
	}
	return r, nil
}

// replayAddsNothing sweeps the same spool into the same store with a fresh
// engine: every file, window and the service row must dedupe.
func replayAddsNothing(env *runEnv, k knobs, storePath string, size int64) error {
	st, err := metricstore.Open(storePath)
	if err != nil {
		return err
	}
	defer st.Close()
	rows := st.Len()
	eng, err := metricsvc.New(svcConfig(env, st, k))
	if err != nil {
		return err
	}
	added, err := eng.Sweep()
	if err != nil {
		return err
	}
	if _, err := eng.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(storePath)
	if err != nil {
		return err
	}
	if added != 0 || st.Len() != rows || fi.Size() != size {
		return fmt.Errorf("replay added %d files, %d rows, %d bytes; want none", added, st.Len()-rows, fi.Size()-size)
	}
	return nil
}

func ingestJob(env *runEnv, k knobs) (jobResult, error) { return runIngest(env, k, nil) }

func ingestProbes(env *runEnv, p *prober) error {
	smp, err := sampleOfFile(spoolFile(env, 0), env.sz.Sample)
	if err != nil {
		return err
	}
	return errors.Join(storeProbes(env, p), readerProbes(env, p, smp),
		analysisProbes(p, smp, analysis.SuiteConfig{SortedInput: true}))
}
