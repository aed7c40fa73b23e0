package cstrace

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"cstrace/internal/analysis"
	"cstrace/internal/gamesim"
	"cstrace/internal/nat"
	"cstrace/internal/netem"
	"cstrace/internal/population"
	"cstrace/internal/provision"
	"cstrace/internal/routecache"
	"cstrace/internal/trace"
	"cstrace/internal/webtraffic"
)

// The benchmarks regenerate every table and figure of the paper on scaled
// (10-minute) windows of the calibrated workload, reporting the headline
// quantity of each experiment as a custom metric so `go test -bench` output
// doubles as a compact reproduction check. The full-scale numbers live in
// EXPERIMENTS.md and come from `cstrace -mode week`.

const benchWindow = 10 * time.Minute

func benchGame(seed uint64) gamesim.Config {
	cfg := gamesim.PaperConfig(seed)
	cfg.Duration = benchWindow
	cfg.Warmup = 10 * time.Minute
	cfg.Outages = nil
	cfg.AttemptRate *= 5 // keep the short window at busy-server load
	cfg.DiurnalAmp = 0
	return cfg
}

// benchSuiteConfig is the paper suite sized to the bench window, with the
// sorting stage skipped: every bench feeds a time-ordered stream (the
// generator emits sorted windows; trace files store sorted records).
func benchSuiteConfig(d time.Duration) analysis.SuiteConfig {
	sc := analysis.DefaultSuiteConfig(d)
	sc.SortedInput = true
	return sc
}

// run executes the window into a fresh suite.
func runSuite(b *testing.B, seed uint64) (*analysis.Suite, gamesim.Stats) {
	b.Helper()
	suite, err := analysis.NewSuite(benchSuiteConfig(benchWindow))
	if err != nil {
		b.Fatal(err)
	}
	st, err := gamesim.Run(benchGame(seed), suite, suite.Observe)
	if err != nil {
		b.Fatal(err)
	}
	suite.Close()
	return suite, st
}

func BenchmarkTableI_TraceSummary(b *testing.B) {
	// Table I quantities come from the control plane; run the full week
	// per iteration (cheap without traffic).
	var st gamesim.Stats
	var err error
	for i := 0; i < b.N; i++ {
		st, err = gamesim.Run(gamesim.PaperConfig(uint64(i+1)), nil, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.Established), "established")
	b.ReportMetric(float64(st.Attempts), "attempted")
	b.ReportMetric(st.MeanPlayers(), "mean-players")
}

func BenchmarkTableII_NetworkUsage(b *testing.B) {
	var t2 analysis.TableII
	for i := 0; i < b.N; i++ {
		suite, _ := runSuite(b, uint64(i+1))
		t2 = suite.Count.TableII(benchWindow)
	}
	b.ReportMetric(float64(t2.MeanPPS), "pps")
	b.ReportMetric(t2.MeanBW.Kbs(), "kbs")
}

func BenchmarkTableIII_ApplicationInfo(b *testing.B) {
	var t3 analysis.TableIII
	for i := 0; i < b.N; i++ {
		suite, _ := runSuite(b, uint64(i+1))
		t3 = suite.Count.TableIII()
	}
	b.ReportMetric(t3.MeanIn, "mean-in-B")
	b.ReportMetric(t3.MeanOut, "mean-out-B")
}

func BenchmarkFig1_MinuteBandwidth(b *testing.B) {
	var kbs []float64
	for i := 0; i < b.N; i++ {
		suite, _ := runSuite(b, uint64(i+1))
		kbs = suite.Minutes.KbsTotal()
	}
	b.ReportMetric(meanOf(kbs), "mean-kbs")
}

func BenchmarkFig2_MinutePacketLoad(b *testing.B) {
	var pps []float64
	for i := 0; i < b.N; i++ {
		suite, _ := runSuite(b, uint64(i+1))
		pps = suite.Minutes.PPSTotal()
	}
	b.ReportMetric(meanOf(pps), "mean-pps")
}

func BenchmarkFig3_Players(b *testing.B) {
	var players []float64
	for i := 0; i < b.N; i++ {
		suite, _ := runSuite(b, uint64(i+1))
		players = suite.Players.Counts()
	}
	b.ReportMetric(meanOf(players), "mean-players")
}

func BenchmarkFig4_InOutSeries(b *testing.B) {
	var inBW, outBW float64
	for i := 0; i < b.N; i++ {
		suite, _ := runSuite(b, uint64(i+1))
		inBW = meanOf(suite.Minutes.KbsIn())
		outBW = meanOf(suite.Minutes.KbsOut())
	}
	b.ReportMetric(inBW, "in-kbs")
	b.ReportMetric(outBW, "out-kbs")
}

func BenchmarkFig5_VarianceTime(b *testing.B) {
	var re analysis.RegionEstimates
	for i := 0; i < b.N; i++ {
		suite, _ := runSuite(b, uint64(i+1))
		re = analysis.Regions(suite.VT.Points(), 10*time.Millisecond,
			50*time.Millisecond, 30*time.Minute)
	}
	b.ReportMetric(re.SubTick.H, "H-subtick")
	b.ReportMetric(re.Plateau.H, "H-plateau")
}

func benchWindowSeries(b *testing.B, interval time.Duration, series func(*analysis.IntervalWindow) []float64, metric string) {
	b.Helper()
	var v []float64
	for i := 0; i < b.N; i++ {
		suite, _ := runSuite(b, uint64(i+1))
		w := suite.Window(interval)
		if w == nil {
			b.Fatalf("missing %v window", interval)
		}
		v = series(w)
	}
	b.ReportMetric(peakOf(v), metric)
}

func BenchmarkFig6_Load10ms(b *testing.B) {
	benchWindowSeries(b, 10*time.Millisecond, (*analysis.IntervalWindow).TotalPPS, "peak-pps")
}

func BenchmarkFig7_InOut10ms(b *testing.B) {
	var inPeak, outPeak float64
	for i := 0; i < b.N; i++ {
		suite, _ := runSuite(b, uint64(i+1))
		w := suite.Window(10 * time.Millisecond)
		inPeak = peakOf(w.InPPS())
		outPeak = peakOf(w.OutPPS())
	}
	b.ReportMetric(inPeak, "in-peak-pps")
	b.ReportMetric(outPeak, "out-peak-pps")
}

func BenchmarkFig8_Load50ms(b *testing.B) {
	benchWindowSeries(b, 50*time.Millisecond, (*analysis.IntervalWindow).TotalPPS, "peak-pps")
}

func BenchmarkFig9_Load1s(b *testing.B) {
	benchWindowSeries(b, time.Second, (*analysis.IntervalWindow).TotalPPS, "peak-pps")
}

func BenchmarkFig10_Load30min(b *testing.B) {
	// The 30-minute figure needs the full week to be meaningful; at bench
	// scale it verifies the collector plumbing.
	benchWindowSeries(b, 30*time.Minute, (*analysis.IntervalWindow).TotalPPS, "peak-pps")
}

func BenchmarkFig11_ClientBandwidthHist(b *testing.B) {
	var below float64
	for i := 0; i < b.N; i++ {
		suite, _ := runSuite(b, uint64(i+1))
		below = suite.Flows.FractionBelow(30*time.Second, 56e3)
	}
	b.ReportMetric(below, "frac-below-56kbs")
}

func BenchmarkFig12_SizePDF(b *testing.B) {
	var inMean, outMean float64
	for i := 0; i < b.N; i++ {
		suite, _ := runSuite(b, uint64(i+1))
		inMean = suite.Sizes.In.Mean()
		outMean = suite.Sizes.Out.Mean()
	}
	b.ReportMetric(inMean, "in-mean-B")
	b.ReportMetric(outMean, "out-mean-B")
}

func BenchmarkFig13_SizeCDF(b *testing.B) {
	var inBelow60 float64
	for i := 0; i < b.N; i++ {
		suite, _ := runSuite(b, uint64(i+1))
		inBelow60 = suite.Sizes.In.FractionBelow(60)
	}
	b.ReportMetric(inBelow60, "in-frac-below-60B")
}

func natWindow(seed uint64) gamesim.Config {
	cfg := gamesim.NATExperimentConfig(seed)
	cfg.Duration = benchWindow
	return cfg
}

func BenchmarkTableIV_NATExperiment(b *testing.B) {
	var res nat.ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = nat.RunExperiment(natWindow(uint64(i+1)), nat.DefaultConfig(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Counts.LossIn()*100, "loss-in-%")
	b.ReportMetric(res.Counts.LossOut()*100, "loss-out-%")
}

func BenchmarkFig14_NATIncoming(b *testing.B) {
	var res nat.ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = nat.RunExperiment(natWindow(uint64(i+1)), nat.DefaultConfig(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(meanOf(res.ClientsToNAT), "offered-pps")
	b.ReportMetric(meanOf(res.NATToServer), "delivered-pps")
}

func BenchmarkFig15_NATOutgoing(b *testing.B) {
	var res nat.ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = nat.RunExperiment(natWindow(uint64(i+1)), nat.DefaultConfig(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(meanOf(res.ServerToNAT), "offered-pps")
	b.ReportMetric(meanOf(res.NATToClients), "delivered-pps")
}

// --- ablation benches (DESIGN.md §5) ---

// BenchmarkAblation_SyncTicks vs _DesyncTicks: the paper attributes the
// 10 ms-scale burstiness entirely to the synchronized broadcast.
func BenchmarkAblation_SyncTicks(b *testing.B)   { ablationTicks(b, false) }
func BenchmarkAblation_DesyncTicks(b *testing.B) { ablationTicks(b, true) }

func ablationTicks(b *testing.B, desync bool) {
	var peak float64
	for i := 0; i < b.N; i++ {
		cfg := benchGame(uint64(i + 1))
		cfg.DesynchronizeTicks = desync
		w := analysis.NewIntervalWindow(10*time.Millisecond, 200)
		if _, err := gamesim.Run(cfg, w, nil); err != nil {
			b.Fatal(err)
		}
		peak = peakOf(w.OutPPS()) / (meanOf(w.OutPPS()) + 1)
	}
	b.ReportMetric(peak, "out-peak-to-mean")
}

// BenchmarkAblation_NoMapRotation: removing the 30-minute rotation flattens
// the 50ms-30min variance plateau.
func BenchmarkAblation_NoMapRotation(b *testing.B) {
	var re analysis.RegionEstimates
	for i := 0; i < b.N; i++ {
		cfg := benchGame(uint64(i + 1))
		cfg.MapDuration = 1000 * time.Hour // never rotates within the window
		suite, err := analysis.NewSuite(analysis.DefaultSuiteConfig(benchWindow))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := gamesim.Run(cfg, suite, nil); err != nil {
			b.Fatal(err)
		}
		suite.Close()
		re = analysis.Regions(suite.VT.Points(), 10*time.Millisecond,
			50*time.Millisecond, 30*time.Minute)
	}
	b.ReportMetric(re.Plateau.H, "H-plateau")
}

// BenchmarkAblation_NATQueueDepth sweeps the buffer the paper argues cannot
// help: deeper queues trade loss for delay.
func BenchmarkAblation_NATQueueDepth(b *testing.B) {
	var lossShallow, lossDeep, delayDeep float64
	for i := 0; i < b.N; i++ {
		cfg := natWindow(uint64(i + 1))
		shallow := nat.DefaultConfig(uint64(i + 1))
		deep := shallow
		deep.QueueIn *= 8
		deep.QueueOut *= 8
		rs, err := nat.RunExperiment(cfg, shallow)
		if err != nil {
			b.Fatal(err)
		}
		rd, err := nat.RunExperiment(cfg, deep)
		if err != nil {
			b.Fatal(err)
		}
		lossShallow = rs.Counts.LossIn()
		lossDeep = rd.Counts.LossIn()
		delayDeep = rd.MaxDelayIn * 1e3
	}
	b.ReportMetric(lossShallow*100, "shallow-loss-%")
	b.ReportMetric(lossDeep*100, "deep-loss-%")
	b.ReportMetric(delayDeep, "deep-max-delay-ms")
}

// BenchmarkRouteCache_* compare replacement policies on the mixed workload
// (§IV-B).
func BenchmarkRouteCache_LRU(b *testing.B)      { routeCacheBench(b, routecache.PolicyLRU) }
func BenchmarkRouteCache_LFU(b *testing.B)      { routeCacheBench(b, routecache.PolicyLFU) }
func BenchmarkRouteCache_SizePref(b *testing.B) { routeCacheBench(b, routecache.PolicySizePref) }
func BenchmarkRouteCache_FreqPref(b *testing.B) { routeCacheBench(b, routecache.PolicyFreqPref) }
func BenchmarkRouteCache_None(b *testing.B)     { routeCacheBench(b, routecache.PolicyNone) }

func routeCacheBench(b *testing.B, pol routecache.Policy) {
	fib := routecache.BuildFIB(20000, 1)
	game := routecache.GameWorkload(100000, 22, 0.0005, 2)
	web := routecache.WebWorkload(100000, 50000, 3)
	mixed := routecache.Mix(game, web, 0.5, 4)
	b.ResetTimer()
	var m routecache.Metrics
	for i := 0; i < b.N; i++ {
		c, err := routecache.NewCache(routecache.DefaultCacheConfig(pol, 64), fib)
		if err != nil {
			b.Fatal(err)
		}
		m = routecache.Run(c, mixed)
	}
	b.ReportMetric(m.HitRatio()*100, "hit-%")
	b.ReportMetric(m.MeanCost(), "cost/pkt")
}

// --- pipeline benches: per-record vs block vs sharded dispatch ---
//
// The three BenchmarkPipeline* functions feed the identical pre-generated
// Quick(1) record stream into a fresh full analysis suite, varying only the
// delivery path. The headline metric is Mrec/s; the batch path's win is
// pure dispatch/locality engineering, since the collector math is shared.

var (
	pipeOnce sync.Once
	pipeRecs []trace.Record
)

// pipelineRecords generates the Quick(1) workload once and caches it.
func pipelineRecords(b *testing.B) []trace.Record {
	b.Helper()
	pipeOnce.Do(func() {
		var c trace.Collect
		if _, err := gamesim.Run(Quick(1).Game, &c, nil); err != nil {
			panic(err)
		}
		pipeRecs = c.Records
	})
	return pipeRecs
}

func benchPipeline(b *testing.B, feed func(*analysis.Suite, []trace.Record)) {
	recs := pipelineRecords(b)
	sc := benchSuiteConfig(Quick(1).Game.Duration)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		suite, err := analysis.NewSuite(sc)
		if err != nil {
			b.Fatal(err)
		}
		feed(suite, recs)
	}
	b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrec/s")
}

// BenchmarkPipelinePerRecord is the legacy path: one trace.Handler virtual
// call per record into the suite.
func BenchmarkPipelinePerRecord(b *testing.B) {
	benchPipeline(b, func(s *analysis.Suite, recs []trace.Record) {
		var h trace.Handler = trace.HandlerFunc(s.Handle)
		for _, r := range recs {
			h.Handle(r)
		}
		s.Close()
	})
}

// BenchmarkPipelineBatched delivers the same stream in BlockSize slabs.
func BenchmarkPipelineBatched(b *testing.B) {
	benchPipeline(b, func(s *analysis.Suite, recs []trace.Record) {
		for i := 0; i < len(recs); i += trace.BlockSize {
			end := i + trace.BlockSize
			if end > len(recs) {
				end = len(recs)
			}
			s.HandleBatch(recs[i:end])
		}
		s.Close()
	})
}

// BenchmarkPipelineSharded fans the slabs out to collector-group workers.
// It only beats the batched path when ≥2 cores are available; on one core
// it measures the channel overhead floor.
func BenchmarkPipelineSharded(b *testing.B) {
	benchPipeline(b, func(s *analysis.Suite, recs []trace.Record) {
		sh := analysis.Shard(s, runtime.GOMAXPROCS(0))
		for i := 0; i < len(recs); i += trace.BlockSize {
			end := i + trace.BlockSize
			if end > len(recs) {
				end = len(recs)
			}
			sh.HandleBatch(recs[i:end])
		}
		sh.Close()
	})
}

// --- analyze benches: the -mode analyze read path, v1 through v4 ---
//
// The BenchmarkAnalyze* functions re-analyze the identical Quick(1) stream
// persisted in all four trace formats. V1 is the legacy serial baseline
// (per-record bufio decode + single-threaded suite); V2 decodes
// segment-at-a-time out of in-memory slabs; V3 additionally inflates the
// per-segment flate compression; V4 stores field-striped column runs,
// inflated one segment ahead of the decode on the serial path. The
// Parallel variants fan segment decode across worker goroutines and shard
// the collector groups, all through the direct decode-to-shard delivery
// (Reader.ReadAllSharded) that -mode analyze -parallel runs — V2Parallel
// with a statically sharded sink; on v4 the decoded columns ride along
// and single-column collectors sweep them flat. On a single-core host the
// parallel variants measure the coordination floor; the fan-out adds its
// speedup only with real cores. Every bench also reports the on-disk
// bytes/record of its input — the storage half of the provisioning budget.

var (
	analyzeOnce  sync.Once
	analyzeRawV1 []byte
	analyzeRawV2 []byte
	analyzeRawV3 []byte
	analyzeRawV4 []byte
)

func analyzeTraceRaw(b *testing.B) (v1, v2, v3, v4 []byte) {
	b.Helper()
	analyzeOnce.Do(func() {
		recs := pipelineRecords(b)
		var v1buf, v2buf, v3buf, v4buf bytes.Buffer
		w1, w2 := trace.NewWriterV1(&v1buf), trace.NewWriterV2(&v2buf)
		w3, w4 := trace.NewWriterV3(&v3buf), trace.NewWriter(&v4buf)
		sorter := trace.NewSortBuffer(2*Quick(1).Game.TickInterval, trace.Tee(w1, w2, w3, w4))
		for i := 0; i < len(recs); i += trace.BlockSize {
			end := i + trace.BlockSize
			if end > len(recs) {
				end = len(recs)
			}
			sorter.HandleBatch(recs[i:end])
		}
		sorter.Flush()
		for _, w := range []*trace.Writer{w1, w2, w3, w4} {
			if err := w.Flush(); err != nil {
				panic(err)
			}
		}
		analyzeRawV1, analyzeRawV2 = v1buf.Bytes(), v2buf.Bytes()
		analyzeRawV3, analyzeRawV4 = v3buf.Bytes(), v4buf.Bytes()
	})
	return analyzeRawV1, analyzeRawV2, analyzeRawV3, analyzeRawV4
}

func benchAnalyze(b *testing.B, rawLen int, run func(*analysis.Suite) (int64, error)) {
	sc := benchSuiteConfig(Quick(1).Game.Duration)
	b.ResetTimer()
	var n int64
	for i := 0; i < b.N; i++ {
		suite, err := analysis.NewSuite(sc)
		if err != nil {
			b.Fatal(err)
		}
		if n, err = run(suite); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrec/s")
	if n > 0 {
		b.ReportMetric(float64(rawLen)/float64(n), "B/rec")
	}
}

// BenchmarkAnalyzeV1 is the serial ReadAll baseline over the legacy format.
func BenchmarkAnalyzeV1(b *testing.B) {
	raw, _, _, _ := analyzeTraceRaw(b)
	benchAnalyze(b, len(raw), func(s *analysis.Suite) (int64, error) {
		n, err := trace.NewReader(bytes.NewReader(raw)).ReadAll(s)
		s.Close()
		return n, err
	})
}

// BenchmarkAnalyzeV2 is the serial v2 scan: slab decode, one goroutine
// ahead, single-threaded suite.
func BenchmarkAnalyzeV2(b *testing.B) {
	_, raw, _, _ := analyzeTraceRaw(b)
	benchAnalyze(b, len(raw), func(s *analysis.Suite) (int64, error) {
		n, err := trace.NewReader(bytes.NewReader(raw)).ReadAllPrefetch(s)
		s.Close()
		return n, err
	})
}

// BenchmarkAnalyzeV3 is the serial v3 scan: slab decode plus per-segment
// flate inflation, one goroutine ahead, single-threaded suite.
func BenchmarkAnalyzeV3(b *testing.B) {
	_, _, raw, _ := analyzeTraceRaw(b)
	benchAnalyze(b, len(raw), func(s *analysis.Suite) (int64, error) {
		n, err := trace.NewReader(bytes.NewReader(raw)).ReadAllPrefetch(s)
		s.Close()
		return n, err
	})
}

// BenchmarkAnalyzeV2Parallel is the parallel path on the uncompressed
// indexed format: segment decode on 4 workers delivering straight into
// statically sharded collector groups. (It keeps the name the committed
// baselines gate on; before the read paths were unified it measured a
// separate reassembly-dispatch path.)
func BenchmarkAnalyzeV2Parallel(b *testing.B) {
	_, raw, _, _ := analyzeTraceRaw(b)
	benchAnalyze(b, len(raw), func(s *analysis.Suite) (int64, error) {
		sink, closeSink := s.Sink(4)
		n, err := trace.NewReader(bytes.NewReader(raw)).ReadAllSharded(sink, 4)
		closeSink()
		return n, err
	})
}

// BenchmarkAnalyzeV3Parallel is the full -mode analyze -parallel 4 path:
// indexed segment decode + inflation on 4 workers delivering their blocks
// straight into the sharded suite's per-group channels (ReadAllSharded) —
// no re-batch copy, no dispatch goroutine.
func BenchmarkAnalyzeV3Parallel(b *testing.B) {
	_, _, raw, _ := analyzeTraceRaw(b)
	benchAnalyze(b, len(raw), func(s *analysis.Suite) (int64, error) {
		sink, closeSink := s.Sink(4)
		n, err := trace.NewReader(bytes.NewReader(raw)).ReadAllSharded(sink, 4)
		closeSink()
		return n, err
	})
}

// BenchmarkAnalyzeV4 is the serial v4 scan: a prefetch goroutine inflates
// column runs one segment ahead while the decode stripes them into blocks,
// single-threaded suite.
func BenchmarkAnalyzeV4(b *testing.B) {
	_, _, _, raw := analyzeTraceRaw(b)
	benchAnalyze(b, len(raw), func(s *analysis.Suite) (int64, error) {
		n, err := trace.NewReader(bytes.NewReader(raw)).ReadAllPrefetch(s)
		s.Close()
		return n, err
	})
}

// BenchmarkAnalyzeV4Parallel is -mode analyze -parallel 4 over a columnar
// trace: segment inflate + column decode on 4 workers, decoded columns
// delivered to the sharded suite alongside the record blocks so the
// single-column collectors sweep flat arrays.
func BenchmarkAnalyzeV4Parallel(b *testing.B) {
	_, _, _, raw := analyzeTraceRaw(b)
	benchAnalyze(b, len(raw), func(s *analysis.Suite) (int64, error) {
		sink, closeSink := s.Sink(4)
		n, err := trace.NewReader(bytes.NewReader(raw)).ReadAllSharded(sink, 4)
		closeSink()
		return n, err
	})
}

// benchWrite measures Writer throughput at default compression: the same
// pre-generated stream encoded to a v4 file, serial or with the deflate
// worker pool (byte-identical output either way).
func benchWrite(b *testing.B, workers int) {
	b.Helper()
	recs := pipelineRecords(b)
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		w.Workers = workers
		for j := 0; j < len(recs); j += trace.BlockSize {
			end := j + trace.BlockSize
			if end > len(recs) {
				end = len(recs)
			}
			w.HandleBatch(recs[j:end])
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		total = buf.Len()
	}
	b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrec/s")
	b.ReportMetric(float64(total)/float64(len(recs)), "B/rec")
}

// BenchmarkWriteV4 is the synchronous encode+deflate path;
// BenchmarkWriteV4Workers moves deflate onto a 4-worker pool, leaving only
// column appends and segment sealing on the caller's goroutine.
func BenchmarkWriteV4(b *testing.B)        { benchWrite(b, 1) }
func BenchmarkWriteV4Workers(b *testing.B) { benchWrite(b, 4) }

// BenchmarkScenario measures fleet-scale throughput: 4 servers generated
// concurrently, k-way merged, and analyzed by a sharded aggregate suite —
// the whole -mode scenario path. The headline metric is merged Mrec/s.
func BenchmarkScenario(b *testing.B) {
	var n int64
	var perSlot float64
	for i := 0; i < b.N; i++ {
		res, err := RunScenario(ScenarioConfig{
			Spec: Scenario{
				Seed:      uint64(i + 1),
				Servers:   4,
				Duration:  benchWindow,
				Warmup:    5 * time.Minute,
				SlotMix:   []int{22, 32, 16},
				SpikeMult: 6,
				RateScale: 5,
			},
			Parallelism: runtime.GOMAXPROCS(0),
		})
		if err != nil {
			b.Fatal(err)
		}
		n += res.Aggregate.TableII.TotalPackets
		perSlot = res.PerSlotKbs()
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds()/1e6, "Mrec/s")
	b.ReportMetric(perSlot, "kbs/slot")
}

// BenchmarkScenarioAuto is BenchmarkScenario with every worker knob on
// AutoWorkers: the self-tuning path — budget-split fills, adaptive shard,
// tournament merge — over the identical workload. CI gates its Mrec/s
// against the hand-tuned BenchmarkScenario baseline (benchjson -alias), so
// "auto matches or beats hand-tuned" is a checked invariant, not a hope.
func BenchmarkScenarioAuto(b *testing.B) {
	var n int64
	var perSlot float64
	for i := 0; i < b.N; i++ {
		res, err := RunScenario(ScenarioConfig{
			Spec: Scenario{
				Seed:      uint64(i + 1),
				Servers:   4,
				Duration:  benchWindow,
				Warmup:    5 * time.Minute,
				SlotMix:   []int{22, 32, 16},
				SpikeMult: 6,
				RateScale: 5,
			},
			Parallelism: AutoWorkers,
			GenWorkers:  AutoWorkers,
		})
		if err != nil {
			b.Fatal(err)
		}
		n += res.Aggregate.TableII.TotalPackets
		perSlot = res.PerSlotKbs()
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds()/1e6, "Mrec/s")
	b.ReportMetric(perSlot, "kbs/slot")
}

// BenchmarkGeneratorThroughput measures raw generation speed through a
// per-record handler: how fast the half-billion-packet week can be
// regenerated by a legacy consumer.
func BenchmarkGeneratorThroughput(b *testing.B) {
	var n int64
	for i := 0; i < b.N; i++ {
		cfg := benchGame(uint64(i + 1))
		count := trace.HandlerFunc(func(trace.Record) { n++ })
		if _, err := gamesim.Run(cfg, count, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds()/1e6, "Mrec/s")
}

// nullSink consumes blocks for free: generation benches measure the
// generator, not the consumer.
type nullSink struct{}

func (nullSink) Handle(trace.Record)        {}
func (nullSink) HandleBatch([]trace.Record) {}

// benchGenerate measures the batch-native generation path at a given fill
// worker count. Records reach the handler as per-window blocks.
func benchGenerate(b *testing.B, workers int) {
	b.Helper()
	var n int64
	for i := 0; i < b.N; i++ {
		cfg := benchGame(uint64(i + 1))
		cfg.Workers = workers
		st, err := gamesim.Run(cfg, nullSink{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		n += st.PacketsIn + st.PacketsOut
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds()/1e6, "Mrec/s")
}

// BenchmarkGenerate is the serial fill path; BenchmarkGenerateParallel
// fills tick windows on GOMAXPROCS worker goroutines (byte-identical
// stream; the speedup needs real cores).
func BenchmarkGenerate(b *testing.B)         { benchGenerate(b, 1) }
func BenchmarkGenerateParallel(b *testing.B) { benchGenerate(b, runtime.GOMAXPROCS(0)) }

// benchEndToEnd measures the full gen→analyze path — Reproduce with the
// given generator fill workers and collector-group shards. This is the
// number the provisioning question rides on: how fast a paper-scale
// workload can be produced and characterized.
func benchEndToEnd(b *testing.B, genWorkers, parallel int) {
	b.Helper()
	var n int64
	for i := 0; i < b.N; i++ {
		cfg := Config{Game: benchGame(uint64(i + 1)), Suite: analysis.DefaultSuiteConfig(benchWindow)}
		cfg.Game.Workers = genWorkers
		cfg.Parallelism = parallel
		res, err := Reproduce(cfg)
		if err != nil {
			b.Fatal(err)
		}
		n += res.TableII.TotalPackets
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds()/1e6, "Mrec/s")
}

// BenchmarkEndToEndSerial is one goroutine end to end;
// BenchmarkEndToEndParallel runs generator fill workers and sharded
// collector groups at GOMAXPROCS each (reports byte-identical to serial).
func BenchmarkEndToEndSerial(b *testing.B) { benchEndToEnd(b, 1, 1) }
func BenchmarkEndToEndParallel(b *testing.B) {
	benchEndToEnd(b, runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0))
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func peakOf(xs []float64) float64 {
	var p float64
	for _, x := range xs {
		if x > p {
			p = x
		}
	}
	return p
}

// --- Extension benches: the systems built beyond the paper's figures. ---

// BenchmarkExtension_WebNATComparison is the §IV-A head-to-head: a web/TCP
// workload of comparable bit rate through the same forwarding device that
// loses >1% of the game's packets. The metrics show the mechanism: several
// times fewer lookups per megabit, near-zero loss.
func BenchmarkExtension_WebNATComparison(b *testing.B) {
	var res webtraffic.NATResult
	var err error
	for i := 0; i < b.N; i++ {
		cfg := webtraffic.DefaultConfig(uint64(i + 1))
		cfg.Duration = benchWindow
		res, err = webtraffic.RunNAT(cfg, nat.DefaultConfig(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.LossIn()*100, "web-loss-in-%")
	b.ReportMetric(res.LossOut()*100, "web-loss-out-%")
	b.ReportMetric(res.Stats.MeanWirePacket(), "mean-wire-B")
	b.ReportMetric(res.Stats.PPSPerMbps(), "pps-per-Mbps")
}

// BenchmarkExtension_WebGenerator measures raw web-workload generation.
func BenchmarkExtension_WebGenerator(b *testing.B) {
	var packets int64
	for i := 0; i < b.N; i++ {
		cfg := webtraffic.DefaultConfig(uint64(i + 1))
		cfg.Duration = benchWindow
		st, err := webtraffic.Generate(cfg, trace.HandlerFunc(func(trace.Record) {}))
		if err != nil {
			b.Fatal(err)
		}
		packets = st.Packets()
	}
	b.ReportMetric(float64(packets), "packets")
}

// BenchmarkExtension_PopulationSelfSimilarity reproduces the §IV-B caveat:
// heavy-tailed sessions push the aggregate population's Hurst parameter far
// above the exponential baseline.
func BenchmarkExtension_PopulationSelfSimilarity(b *testing.B) {
	var res population.SelfSimilarityResult
	var err error
	for i := 0; i < b.N; i++ {
		cfg := population.Config{
			Seed:        uint64(i + 7),
			Duration:    96 * time.Hour,
			Warmup:      4 * time.Hour,
			Resolution:  30 * time.Second,
			ArrivalRate: 0.4,
		}
		res, err = population.SelfSimilarityExperiment(cfg, 1.4, 300)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Heavy.H, "H-heavy")
	b.ReportMetric(res.Exp.H, "H-exp")
	b.ReportMetric(res.TheoryH, "H-theory")
}

// BenchmarkExtension_LastMileSaturation replays a fixed per-player flow
// through the modem profile: the ordinary config survives, the "l337"
// config loses heavily — the Fig 11 tail explained mechanically.
func BenchmarkExtension_LastMileSaturation(b *testing.B) {
	mkFlow := func(app uint16, gap time.Duration, n int) []trace.Record {
		recs := make([]trace.Record, n)
		for i := range recs {
			recs[i] = trace.Record{T: time.Duration(i) * gap, Dir: trace.Out, App: app}
		}
		return recs
	}
	ordinary := mkFlow(130, 60*time.Millisecond, 5000)
	elite := mkFlow(250, 20*time.Millisecond, 5000)
	b.ResetTimer()
	var lossOrdinary, lossElite float64
	for i := 0; i < b.N; i++ {
		for _, tc := range []struct {
			flow []trace.Record
			out  *float64
		}{{ordinary, &lossOrdinary}, {elite, &lossElite}} {
			lm, err := netem.New(netem.Modem56k(), uint64(i+1), trace.HandlerFunc(func(trace.Record) {}))
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range tc.flow {
				lm.Handle(r)
			}
			*tc.out = lm.Down().LossRate()
		}
	}
	b.ReportMetric(lossOrdinary*100, "ordinary-loss-%")
	b.ReportMetric(lossElite*100, "l337-loss-%")
}

// BenchmarkExtension_ProvisioningPlan exercises the analytic planner at the
// "Microsoft/Sony launch" scale the paper gestures at.
func BenchmarkExtension_ProvisioningPlan(b *testing.B) {
	budget := provision.PaperBudget()
	var plan provision.Plan
	var barricade, midrange int
	var err error
	for i := 0; i < b.N; i++ {
		plan, err = provision.PlanFor(budget, 100000, 22, 50*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		d := provision.Demand(budget, 20, 50*time.Millisecond)
		barricade = provision.MaxServers(provision.Barricade(), d, provision.DefaultLatencyBudget)
		midrange = provision.MaxServers(provision.MidRangeRouter(), d, provision.DefaultLatencyBudget)
	}
	b.ReportMetric(float64(plan.Servers), "servers-for-100k")
	b.ReportMetric(plan.TotalBps/1e6, "Mbps-for-100k")
	b.ReportMetric(float64(barricade), "max-servers-barricade")
	b.ReportMetric(float64(midrange), "max-servers-midrange")
}

// BenchmarkExtension_TickRecovery detects the 50 ms broadcast period from
// the generated outbound stream via autocorrelation — the quantitative form
// of the paper's Fig 6 observation.
func BenchmarkExtension_TickRecovery(b *testing.B) {
	var tick time.Duration
	var corr float64
	for i := 0; i < b.N; i++ {
		p := analysis.NewPeriodicity(trace.Out, 10*time.Millisecond, 30)
		cfg := benchGame(uint64(i + 1))
		cfg.Duration = 2 * time.Minute
		if _, err := gamesim.Run(cfg, p, nil); err != nil {
			b.Fatal(err)
		}
		p.Flush()
		tick, corr = p.Tick()
	}
	b.ReportMetric(float64(tick)/float64(time.Millisecond), "tick-ms")
	b.ReportMetric(corr, "corr")
}

// BenchmarkExtension_PCAPNGRoundTrip measures the pcapng write+read path on
// a window of generated traffic.
func BenchmarkExtension_PCAPNGRoundTrip(b *testing.B) {
	var collect trace.Collect
	cfg := benchGame(1)
	cfg.Duration = time.Minute
	if _, err := gamesim.Run(cfg, &collect, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var n int64
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := trace.NewPCAPNGWriter(&buf, time.Unix(1018515304, 0))
		for _, r := range collect.Records {
			if err := w.Write(r); err != nil {
				b.Fatal(err)
			}
		}
		var err error
		n, _, err = trace.ReadPCAPNG(&buf, trace.DefaultServerAddr, trace.DefaultServerPort, trace.HandlerFunc(func(trace.Record) {}))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(collect.Records)) * 16)
	b.ReportMetric(float64(n), "packets")
}

// BenchmarkAblation_NATSyncLoss / _NATDesyncLoss tie ablation 1 to the §IV-A
// result: the same offered rate through the same device loses an order of
// magnitude less when the broadcast is desynchronized — the burst structure,
// not the packet rate, is what overruns the forwarding engine.
func BenchmarkAblation_NATSyncLoss(b *testing.B)   { ablationNATLoss(b, false) }
func BenchmarkAblation_NATDesyncLoss(b *testing.B) { ablationNATLoss(b, true) }

func ablationNATLoss(b *testing.B, desync bool) {
	var res nat.ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		cfg := gamesim.NATExperimentConfig(uint64(i + 1))
		cfg.Duration = benchWindow
		cfg.DesynchronizeTicks = desync
		res, err = nat.RunExperiment(cfg, nat.DefaultConfig(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Counts.LossIn()*100, "loss-in-%")
	b.ReportMetric(res.Counts.LossOut()*100, "loss-out-%")
}
