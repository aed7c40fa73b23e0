// Command cstrace is the reproduction harness: it regenerates the paper's
// tables and figures from the calibrated workload model.
//
// Modes:
//
//	cstrace -mode week  -seed 1            full-week reproduction (Tables I-III, Figs 1-13)
//	cstrace -mode quick -seed 1            30-minute smoke reproduction
//	cstrace -mode nat   -seed 1            NAT experiment (Table IV, Figs 14-15)
//	cstrace -mode gen   -out trace.cst     generate a binary trace file (v4 columnar compressed;
//	                                       -format 3|2|1 for the older versions, -compress to
//	                                       tune/disable flate)
//	cstrace -mode analyze -in trace.cst    analyze a trace (-parallel N: segment decode + sharded suite)
//	cstrace -mode index -in trace.cst      inspect a trace's segment index without decoding it
//	cstrace -mode salvage -in torn.cst     recover a crashed capture: scan and validate the
//	                                       segment frames, report the intact prefix, and
//	                                       (-out fixed.cst) rewrite it as a sealed v4 trace
//	cstrace -mode pcap  -out trace.pcap    export a (short) trace as pcap or pcapng
//	cstrace -mode web   -seed 1            web/TCP baseline through the NAT device
//	cstrace -mode aggregate -seed 1        population self-similarity study
//	cstrace -mode provision                capacity planning from the paper's budget
//	cstrace -mode scenario -servers 8      multi-server fleet: merged aggregate analysis
//	                                       (-out fleet.cst persists the merged trace as v4;
//	                                       -store metrics.csms records the run)
//	cstrace -mode ingest -store m.csms a.cst b.cst
//	                                       analyze trace files into the metrics store
//	                                       (content-addressed: re-ingest is a no-op)
//	cstrace -mode list  -store m.csms      list stored runs (-json for machines)
//	cstrace -mode show  -store m.csms -run 1a2b3c
//	                                       print one run's full metrics
//	cstrace -mode trend -store m.csms -metric p95kbs -last 20
//	                                       metric trajectory across stored runs
//	                                       (-metric help lists the registry)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"cstrace"
	"cstrace/internal/analysis"
	"cstrace/internal/gamesim"
	"cstrace/internal/metricstore"
	"cstrace/internal/nat"
	"cstrace/internal/population"
	"cstrace/internal/provision"
	"cstrace/internal/report"
	"cstrace/internal/sched"
	"cstrace/internal/trace"
	"cstrace/internal/webtraffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cstrace: ")

	var (
		mode        = flag.String("mode", "quick", "week | quick | nat | gen | analyze | index | salvage | pcap | web | aggregate | provision | scenario | ingest | list | show | trend")
		seed        = flag.Uint64("seed", 1, "simulation seed")
		duration    = flag.Duration("duration", 0, "override trace duration (gen/quick/pcap/web/scenario)")
		inFile      = flag.String("in", "", "input trace file (analyze/index)")
		outFile     = flag.String("out", "", "output file (gen/pcap/scenario; .pcapng selects pcapng)")
		format      = flag.Int("format", 4, "trace format version to write (gen): 4 = columnar compressed, 3 = compressed+indexed, 2 = indexed, 1 = legacy")
		compress    = flag.Int("compress", 0, "v3/v4 segment compression (gen): 0 = default flate level, 1-9 = explicit level, -1 = store uncompressed")
		players     = flag.Int("players", 100000, "target concurrent players (provision)")
		parallelStr = flag.String("parallel", "auto", "worker goroutines: collector shards and segment decode (week/quick/analyze/scenario/ingest), trace-writer compression (gen/scenario -out); 1 = single-threaded, \"auto\" = self-tuned from the worker budget; results identical")
		servers     = flag.Int("servers", 8, "fleet size (scenario)")
		stagger     = flag.Duration("stagger", 0, "per-server launch stagger (scenario)")
		spike       = flag.Float64("spike", 6, "launch-day arrival surge multiplier (scenario; <=1 disables)")
		perServer   = flag.Bool("perserver", false, "print the per-server breakdown with full per-box suites (scenario)")
		perSlim     = flag.Bool("perslim", false, "like -perserver but with the slim per-box collector set (counters + minute series); scales to hundreds of servers")
		depths      = flag.Bool("depths", false, "print each collector group's units and channel-depth stats after a sharded run (week/quick/analyze/scenario)")
		from        = flag.Duration("from", 0, "analyze only records at or after this offset (analyze)")
		to          = flag.Duration("to", 0, "analyze only records before this offset (analyze; 0 = end of trace)")
		storePath   = flag.String("store", "", "metrics store file (ingest/list/show/trend; scenario: also record the run)")
		runID       = flag.String("run", "", "run ID or content-hash prefix (show)")
		metric      = flag.String("metric", "meankbs", "trend metric; \"help\" lists the registry (trend)")
		last        = flag.Int("last", 20, "keep the last N runs (trend; <=0 keeps all)")
		kinds       = flag.String("kinds", "", "comma-separated run-kind filter, e.g. scenario (trend)")
		label       = flag.String("label", "", "operator tag recorded on new runs (ingest/scenario)")
		jsonOut     = flag.Bool("json", false, "machine-readable output (list/show/trend)")
	)
	flag.Parse()

	parallel, err := sched.ParseWorkers(*parallelStr)
	if err != nil {
		log.Fatalf("-parallel: %v", err)
	}

	start := time.Now()
	switch *mode {
	case "week":
		err = runReproduce(cstrace.Full(*seed), *duration, parallel, *depths)
	case "quick":
		err = runReproduce(cstrace.Quick(*seed), *duration, parallel, *depths)
	case "nat":
		err = runNAT(*seed)
	case "gen":
		err = runGen(*seed, *duration, *outFile, *format, *compress, parallel)
	case "analyze":
		err = runAnalyze(*inFile, parallel, *from, *to, *depths)
	case "index":
		err = runIndex(*inFile)
	case "salvage":
		err = runSalvage(*inFile, *outFile, parallel)
	case "pcap":
		err = runPcap(*seed, *duration, *outFile)
	case "web":
		err = runWeb(*seed, *duration)
	case "aggregate":
		err = runAggregate(*seed)
	case "provision":
		err = runProvision(*players)
	case "scenario":
		perMode := cstrace.PerServerNone
		if *perSlim {
			perMode = cstrace.PerServerSlim
		} else if *perServer {
			perMode = cstrace.PerServerFull
		}
		err = runScenario(*seed, *servers, *duration, *stagger, *spike, parallel, perMode, *outFile, *depths, *storePath, *label)
	case "ingest":
		files := flag.Args()
		if *inFile != "" {
			files = append([]string{*inFile}, files...)
		}
		err = runIngest(*storePath, *label, parallel, files)
	case "list":
		err = runList(*storePath, *jsonOut)
	case "show":
		err = runShow(*storePath, *runID, *jsonOut)
	case "trend":
		err = runTrend(*storePath, *metric, *last, *kinds, *jsonOut)
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "cstrace: %s mode finished in %v\n", *mode, time.Since(start).Round(time.Millisecond))
}

func runReproduce(cfg cstrace.Config, override time.Duration, parallel int, depths bool) error {
	if override > 0 {
		cfg.Game.Duration = override
		cfg.Suite = analysis.DefaultSuiteConfig(override)
	}
	cfg.Parallelism = parallel
	res, err := cstrace.Reproduce(cfg)
	if err != nil {
		return err
	}
	if err := res.WriteReport(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("Per-slot bandwidth: %.1f kbs across %d slots (paper: ~40 kbs)\n",
		res.PerSlotKbs(), cfg.Game.Slots)
	if depths {
		fprintDepths(os.Stdout, res.GroupDepths)
	}
	return nil
}

// fprintDepths renders sharded collector-group depth statistics — the
// group whose mean rides the channel bound is the pipeline's straggler. The
// name column is as wide as the longest group name.
func fprintDepths(w io.Writer, ds []analysis.GroupDepth) {
	if len(ds) == 0 {
		fmt.Fprintln(os.Stderr, "cstrace: no group depths (single-threaded run)")
		return
	}
	width := len("group")
	for _, d := range ds {
		width = max(width, len(d.Name))
	}
	fmt.Fprintf(w, "Collector group depths (channel bound %d)\n", analysis.ShardChanDepth)
	fmt.Fprintf(w, "  %-*s %10s %10s %6s\n", width, "group", "blocks", "mean", "max")
	for _, d := range ds {
		fmt.Fprintf(w, "  %-*s %10d %10.2f %6d\n", width, d.Name, d.Blocks, d.MeanDepth(), d.MaxDepth)
	}
}

func runNAT(seed uint64) error {
	res, err := cstrace.ReproduceNAT(seed)
	if err != nil {
		return err
	}
	report.TableIV(os.Stdout, res.Counts)
	report.Series(os.Stdout, "Figure 14a: packet load clients->NAT (pps)", res.ClientsToNAT, 72, 7)
	report.Series(os.Stdout, "Figure 14b: packet load NAT->server (pps)", res.NATToServer, 72, 7)
	report.Series(os.Stdout, "Figure 15a: packet load server->NAT (pps)", res.ServerToNAT, 72, 7)
	report.Series(os.Stdout, "Figure 15b: packet load NAT->clients (pps)", res.NATToClients, 72, 7)
	fmt.Printf("Forwarding delay: in mean %.1f ms / max %.1f ms, out mean %.1f ms / max %.1f ms\n",
		res.MeanDelayIn*1e3, res.MaxDelayIn*1e3, res.MeanDelayOut*1e3, res.MaxDelayOut*1e3)
	return nil
}

func runGen(seed uint64, d time.Duration, out string, format, compress, parallel int) error {
	if out == "" {
		return fmt.Errorf("gen: -out required")
	}
	if d == 0 {
		d = time.Hour
	}
	cfg := gamesim.PaperConfig(seed)
	cfg.Duration = d
	cfg.Outages = nil
	// Every rejection comes before os.Create truncates an existing trace.
	if format < 1 || format > 4 {
		return fmt.Errorf("gen: unknown -format %d (want 1, 2, 3 or 4)", format)
	}
	if compress < -1 || compress > 9 {
		return fmt.Errorf("gen: invalid -compress %d (want -1, 0 or 1-9)", compress)
	}
	if compress != 0 && format < 3 {
		return fmt.Errorf("gen: -compress needs -format 3 or 4 (v1/v2 have no compression)")
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("gen: %w", err)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()

	w := trace.NewWriter(f)
	switch format {
	case 1:
		w = trace.NewWriterV1(f)
	case 2:
		w = trace.NewWriterV2(f)
	case 3:
		w = trace.NewWriterV3(f)
	}
	w.CompressLevel = compress
	// Deflate sealed segments on a worker pool so compression stays off
	// the generator's write path; the bytes are identical either way.
	w.Workers = parallel
	// The generator emits a strictly time-ordered stream — exactly what
	// the Writer requires — so records encode as they are produced.
	st, err := gamesim.Run(cfg, w, nil)
	if err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	log.Printf("wrote %d records (%d in / %d out) to %s (format v%d)",
		w.Count(), st.PacketsIn, st.PacketsOut, out, w.Version())
	return nil
}

func runAnalyze(in string, parallel int, from, to time.Duration, depths bool) error {
	if in == "" {
		return fmt.Errorf("analyze: -in required")
	}
	if to != 0 && to <= from {
		// An inverted or empty slice would print an all-zero report.
		return fmt.Errorf("analyze: -from must precede -to")
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()

	// Duration is discovered from the stream, so a single pass with the
	// default week-scale suite is correct: collectors size themselves from
	// record timestamps. With -parallel N the trace's indexed segments
	// decode on worker goroutines and the suite's collector groups shard
	// across another set; results are byte-identical at every setting.
	var a *cstrace.TraceAnalysis
	if from > 0 || to > 0 {
		// Time slice: binary-search the segment index, decode only the
		// overlapping segments.
		if to == 0 {
			to = 1<<63 - 1
		}
		a, err = cstrace.AnalyzeTraceRange(f, parallel, from, to)
	} else {
		a, err = cstrace.AnalyzeTrace(f, parallel)
	}
	if err != nil {
		return err
	}
	if a.Warning != "" {
		log.Printf("warning: %s", a.Warning)
	}
	if err := a.WriteReport(os.Stdout); err != nil {
		return err
	}
	if depths {
		fprintDepths(os.Stdout, a.GroupDepths)
	}
	log.Printf("analyzed %d records (format v%d)", a.Records, a.Version)
	return nil
}

func runIndex(in string) error {
	if in == "" {
		return fmt.Errorf("index: -in required")
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}

	// The content hash is the trace's identity in the metrics store: print
	// it here so an operator can match a file on disk against a stored run
	// (`-mode show -run <first 12 digits>`) without ingesting anything.
	hash, _, err := metricstore.HashFile(in)
	if err != nil {
		return err
	}

	ix, err := trace.ReadIndex(f, st.Size())
	if errors.Is(err, trace.ErrNoIndex) {
		// v1: no index to print; count the records the only way possible.
		n, serr := trace.NewReader(f).ReadAllPrefetch(trace.HandlerFunc(func(trace.Record) {}))
		if serr != nil {
			return serr
		}
		fmt.Printf("%s: format v1, no segment index (%d records by serial scan, %d bytes)\n",
			in, n, st.Size())
		fmt.Printf("content sha256 %s (run id %s)\n", hash, hash[:metricstore.IDLen])
		return nil
	}
	if err != nil {
		return fmt.Errorf("index: %w", err)
	}

	segs := ix.Segments
	fmt.Printf("%s: format v%d, %d records, %d segments, %d bytes (payload %d)\n",
		in, ix.Version, ix.Records, len(segs), st.Size(), ix.PayloadBytes())
	fmt.Printf("content sha256 %s (run id %s)\n", hash, hash[:metricstore.IDLen])
	if comp := ix.CompressedSegments(); comp > 0 {
		// On-disk vs decompressed payload: the per-record figures are the
		// numbers the provisioning storage budget rides on.
		fmt.Printf("compression: %d/%d segments flate, %d raw payload bytes -> %d on disk (%.1f%%), %.2f B/record on disk\n",
			comp, len(segs), ix.RawBytes(), ix.PayloadBytes(),
			100*float64(ix.PayloadBytes())/float64(ix.RawBytes()),
			float64(st.Size())/float64(ix.Records))
	}
	if cs, err := trace.ReadColumnStats(f, ix); err != nil {
		return fmt.Errorf("index: column stats: %w", err)
	} else if cs.Segments > 0 {
		// Per-column compression, read from the payload headers alone: which
		// field stripe the on-disk bytes actually go to.
		fmt.Printf("columns (%d columnar segments, %d compressed):", cs.Segments, cs.Compressed)
		for c, name := range cs.ColumnNames() {
			fmt.Printf(" %s %d->%d (%.1f%%)", name, cs.Raw[c], cs.Stored[c],
				100*float64(cs.Stored[c])/float64(cs.Raw[c]))
		}
		fmt.Println()
	}
	if len(segs) == 0 {
		return nil
	}
	fmt.Printf("time span %v .. %v; mean %.0f records/segment\n\n",
		segs[0].MinT, segs[len(segs)-1].MaxT, float64(ix.Records)/float64(len(segs)))
	fmt.Printf("  %4s %12s %10s %10s %9s %5s %14s %14s\n", "seg", "offset", "payload", "raw", "records", "enc", "minT", "maxT")
	const head, tail = 24, 4
	for i, si := range segs {
		if len(segs) > head+tail && i == head {
			fmt.Printf("  %4s\n", "...")
		}
		if len(segs) > head+tail && i >= head && i < len(segs)-tail {
			continue
		}
		enc := "raw"
		if si.Compressed() {
			enc = "flate"
		}
		fmt.Printf("  %4d %12d %10d %10d %9d %5s %14s %14s\n",
			i, si.Offset, si.PayloadLen, si.RawLen, si.Count, enc,
			si.MinT.Round(time.Millisecond), si.MaxT.Round(time.Millisecond))
	}
	return nil
}

// runSalvage recovers a damaged capture: it scans the segment frames,
// reports the intact prefix (always), and with -out rewrites the salvaged
// records as a fresh, sealed v4 trace that every other mode reads normally.
func runSalvage(in, out string, parallel int) error {
	if in == "" {
		return fmt.Errorf("salvage: -in required")
	}
	if parallel < 1 {
		parallel = sched.Default().Total()
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}

	ix, rep, err := trace.Recover(f, st.Size())
	if errors.Is(err, trace.ErrNoIndex) {
		// v1 has no segment frames to scan; the serial reader's records-
		// before-error delivery is the whole salvage story.
		return salvageV1(f, in, out)
	}
	if err != nil {
		return fmt.Errorf("salvage: %s: %w", in, err)
	}
	log.Printf("%s: %s", in, rep)
	if out == "" {
		return nil
	}

	g, err := os.Create(out)
	if err != nil {
		return err
	}
	defer g.Close()
	w := trace.NewWriter(g)
	if _, err := trace.DecodeIndex(f, ix, w, parallel); err != nil {
		return fmt.Errorf("salvage: decoding the intact prefix: %w", err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("salvage: sealing %s: %w", out, err)
	}
	if err := g.Close(); err != nil {
		return err
	}
	log.Printf("wrote %d salvaged records to %s (format v%d, sealed)", w.Count(), out, w.Version())
	return nil
}

// salvageV1 recovers an unsegmented v1 stream: scan serially, keep the
// records before the first error.
func salvageV1(f *os.File, in, out string) error {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	var w *trace.Writer
	if out != "" {
		g, err := os.Create(out)
		if err != nil {
			return err
		}
		defer g.Close()
		w = trace.NewWriter(g)
	}
	n, serr := trace.NewReader(f).ReadAllPrefetch(trace.HandlerFunc(func(r trace.Record) {
		if w != nil {
			_ = w.Write(r) // a write failure latches; Flush reports it
		}
	}))
	if serr != nil {
		log.Printf("%s: v1 trace: %d records intact before the damage (%v)", in, n, serr)
	} else {
		log.Printf("%s: v1 trace: all %d records intact; nothing to salvage", in, n)
	}
	if w == nil {
		return nil
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("salvage: sealing %s: %w", out, err)
	}
	log.Printf("wrote %d salvaged records to %s (format v%d, sealed)", w.Count(), out, w.Version())
	return nil
}

func runPcap(seed uint64, d time.Duration, out string) error {
	if out == "" {
		return fmt.Errorf("pcap: -out required")
	}
	if d == 0 {
		d = time.Minute
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()

	cfg := gamesim.PaperConfig(seed)
	cfg.Duration = d
	cfg.Outages = nil
	start := time.Date(2002, 4, 11, 8, 55, 4, 0, time.UTC)
	pw := trace.NewPCAPWriter(f, start)
	if strings.HasSuffix(out, ".pcapng") {
		pw = trace.NewPCAPNGWriter(f, start)
	}
	// The generator's stream is strictly time-ordered, so packets write
	// in emission order.
	var n int64
	var writeErr error
	if _, err := gamesim.Run(cfg, trace.HandlerFunc(func(r trace.Record) {
		if writeErr == nil {
			writeErr = pw.Write(r)
			n++
		}
	}), nil); err != nil {
		return err
	}
	if writeErr != nil {
		return writeErr
	}
	log.Printf("wrote %d packets to %s", n, out)
	return nil
}

func runWeb(seed uint64, d time.Duration) error {
	cfg := webtraffic.DefaultConfig(seed)
	if d > 0 {
		cfg.Duration = d
	}
	res, err := webtraffic.RunNAT(cfg, nat.DefaultConfig(seed))
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Printf("web workload: %d sessions, %d pages, %d connections\n",
		st.Sessions, st.Pages, st.Connections)
	fmt.Printf("  packets %d (in %d / out %d), mean wire packet %.1f B\n",
		st.Packets(), st.PacketsIn, st.PacketsOut, st.MeanWirePacket())
	fmt.Printf("  mean bandwidth %.0f kbs, %.0f lookups per Mbps (game: ~904)\n",
		float64(st.MeanBandwidth())/1e3, st.PPSPerMbps())
	fmt.Printf("through the Barricade model: loss in %.3f%% / out %.3f%% (game: 1.3%% / 0.46%%)\n",
		100*res.LossIn(), 100*res.LossOut())
	return nil
}

func runAggregate(seed uint64) error {
	cfg := population.Config{
		Seed:        seed,
		Duration:    96 * time.Hour,
		Warmup:      4 * time.Hour,
		Resolution:  30 * time.Second,
		ArrivalRate: 0.4,
	}
	res, err := population.SelfSimilarityExperiment(cfg, 1.4, 300)
	if err != nil {
		return err
	}
	fmt.Printf("aggregate population over %v (mean %.0f concurrent players):\n",
		cfg.Duration, res.MeanOccupancy)
	fmt.Printf("  Pareto(α=%.1f) sessions: H = %.3f (theory %.2f)\n", res.Alpha, res.Heavy.H, res.TheoryH)
	fmt.Printf("  exponential sessions   : H = %.3f (theory 0.50)\n", res.Exp.H)
	fmt.Println("heavy-tailed user sessions make aggregate game traffic long-range")
	fmt.Println("dependent even though each busy server is individually predictable.")
	return nil
}

func runScenario(seed uint64, servers int, duration, stagger time.Duration, spike float64, parallel int, perMode cstrace.PerServerMode, out string, depths bool, storePath, label string) error {
	cfg := cstrace.LaunchDay(seed, servers)
	if duration > 0 {
		cfg.Spec.Duration = duration
	}
	cfg.Spec.Stagger = stagger
	cfg.Spec.SpikeMult = spike
	cfg.Parallelism = parallel
	cfg.PerServer = perMode

	// -out persists the merged fleet stream as an indexed, compressed v4
	// trace. The merge emits strict time order, which is what the Writer
	// requires (it fails the run otherwise), and compression rides the
	// worker pool instead of the merge path.
	var w *trace.Writer
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = trace.NewWriter(f)
		w.Workers = parallel
		cfg.Extra = w
	}

	// -store records the run into the metrics store, content-addressed by
	// the merged fleet stream itself (hashed record-by-record as it flows;
	// no trace file needed): rerunning the same seed and spec dedupes.
	var mst *metricstore.Store
	var hasher *metricstore.StreamHasher
	if storePath != "" {
		var err error
		mst, err = metricstore.Open(storePath)
		if err != nil {
			return err
		}
		defer mst.Close()
		hasher = metricstore.NewStreamHasher()
		if w != nil {
			cfg.Extra = trace.Tee(w, hasher)
		} else {
			cfg.Extra = hasher
		}
	}

	res, err := cstrace.RunScenario(cfg)
	if err != nil {
		return err
	}
	if w != nil {
		if err := w.Flush(); err != nil {
			return err
		}
		log.Printf("wrote %d merged fleet records to %s (format v%d)", w.Count(), out, w.Version())
	}
	if mst != nil {
		run, added, err := metricstore.RecordScenario(mst, metricstore.ScenarioInfo{
			Hash:    hasher.Sum(),
			Source:  fmt.Sprintf("scenario seed=%d servers=%d spike=%g", seed, servers, spike),
			Label:   label,
			Horizon: res.Horizon,
			Suite:   res.Aggregate.Suite,
			Servers: res.Servers,
		})
		if err != nil {
			return err
		}
		if added {
			log.Printf("recorded run %s in %s", run.ID, storePath)
		} else {
			log.Printf("identical run already stored as %s in %s", run.ID, storePath)
		}
	}
	if err := res.WriteReport(os.Stdout); err != nil {
		return err
	}
	if perMode != cstrace.PerServerNone {
		// Per-box collectors run on each server's own clock: the paper's
		// single-server predictability, once per box. The slim set carries
		// the same headline table at a fraction of the collection cost.
		label := "suites"
		if perMode == cstrace.PerServerSlim {
			label = "slim collectors"
		}
		fmt.Printf("Per-server %s (local clock)\n", label)
		fmt.Println("-------------------------------")
		for _, s := range res.Servers {
			var t2 analysis.TableII
			if s.Suite != nil {
				t2 = s.Suite.Count.TableII(s.Game.Duration)
			} else {
				t2 = s.Slim.TableII()
			}
			fmt.Printf("  %-8s %8.1f kbs mean  %6.1f kbs/slot  %7.0f pps  in:out pkts %.2f\n",
				s.Name, t2.MeanBW.Kbs(), t2.MeanBW.Kbs()/float64(s.Game.Slots),
				float64(t2.MeanPPS), float64(t2.PacketsIn)/float64(t2.PacketsOut))
		}
		fmt.Println()
	}
	if depths {
		fprintDepths(os.Stdout, res.Aggregate.GroupDepths)
	}
	fmt.Printf("Fleet: %d servers, %d slots, %.1f kbs/slot aggregate (paper: ~40 kbs)\n",
		len(res.Servers), res.TotalSlots(), res.PerSlotKbs())
	return nil
}

func runProvision(players int) error {
	b := provision.PaperBudget()
	plan, err := provision.PlanFor(b, players, 22, 50*time.Millisecond)
	if err != nil {
		return err
	}
	fmt.Printf("plan for %d concurrent players on 22-slot servers:\n", players)
	fmt.Printf("  servers        : %d\n", plan.Servers)
	fmt.Printf("  total bandwidth: %.1f Mbs\n", plan.TotalBps/1e6)
	fmt.Printf("  mean load      : %.0f pps (peak %.0f pps under aligned ticks)\n",
		plan.TotalMeanPPS, plan.PeakPPS)
	fmt.Printf("  min lookup rate: %.0f pps\n\n", plan.MinLookupPPS)

	demand := provision.Demand(b, 20, 50*time.Millisecond)
	for _, dev := range []provision.DeviceSpec{provision.Barricade(), provision.MidRangeRouter()} {
		a, err := provision.Assess(dev, demand, 1, provision.DefaultLatencyBudget)
		if err != nil {
			return err
		}
		fmt.Printf("%s (%.0f pps): feasible=%v — %s\n", dev.Name, dev.LookupPPS, a.Feasible, a.Reason)
		fmt.Printf("  max servers behind it: %d\n",
			provision.MaxServers(dev, demand, provision.DefaultLatencyBudget))
	}
	return nil
}
