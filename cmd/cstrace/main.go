// Command cstrace is the reproduction harness: it regenerates the paper's
// tables and figures from the calibrated workload model, writes, inspects
// and analyzes trace files, keeps the metrics store, and runs the live
// reference server, discovery master, metrics daemon and load harness.
//
//	cstrace -mode gen -duration 5m -out t.cst
//	cstrace -mode analyze -in t.cst
//
// The first argument picks the mode (quick when there is none), and the rest
// are that mode's flags. `cstrace -h` lists the modes, and `cstrace -mode
// NAME -h` prints one mode's flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cstrace"
	"cstrace/internal/analysis"
	"cstrace/internal/gamesim"
	"cstrace/internal/metricstore"
	"cstrace/internal/nat"
	"cstrace/internal/netem"
	"cstrace/internal/population"
	"cstrace/internal/provision"
	"cstrace/internal/report"
	"cstrace/internal/scenario"
	"cstrace/internal/sched"
	"cstrace/internal/trace"
	"cstrace/internal/webtraffic"
)

// A mode is one verb of the command line. setup declares the mode's flags
// on the mode's own FlagSet and returns the function that runs the mode
// once they are parsed. operands names the positional arguments the mode
// takes; a mode without it takes none.
type mode struct {
	name, usage, operands string
	setup                 func(fs *flag.FlagSet) func() error
}

var modes = []mode{
	{"week", "full-week reproduction (Tables I-III, Figures 1-13)", "", reproduceMode(cstrace.Full)},
	{"quick", "30-minute smoke reproduction", "", reproduceMode(cstrace.Quick)},
	{"nat", "NAT experiment (Table IV, Figures 14-15)", "", natMode},
	{"gen", "generate a binary trace file", "", genMode},
	{"analyze", "analyze a trace file", "", analyzeMode},
	{"index", "inspect a trace's segment index without decoding it", "", indexMode},
	{"salvage", "recover a crashed capture's intact prefix", "", salvageMode},
	{"pcap", "export a (short) trace as a classic pcap capture", "", pcapMode},
	{"web", "web/TCP baseline through the NAT device", "", webMode},
	{"aggregate", "population self-similarity study", "", aggregateMode},
	{"provision", "capacity planning from the paper's budget, checked by simulation", "", provisionMode},
	{"lastmile", "one client's traffic through the era's access links (last-mile saturation)", "", lastmileMode},
	{"scenario", "multi-server fleet: merged aggregate analysis", "", scenarioMode},
	{"ingest", "analyze trace files into the metrics store (re-ingest is a no-op)", "FILE...", ingestMode},
	{"list", "list the stored runs", "", listMode},
	{"show", "print one stored run's full metrics", "", showMode},
	{"trend", "one metric's trajectory across stored runs", "", trendMode},
	{"serve", "run the reference UDP game server", "", serveMode},
	{"master", "run the discovery master server", "", masterMode},
	{"metricsd", "continuous-analysis daemon: spool directory into a metrics store", "", metricsdMode},
	{"load", "drive bot connections against game servers", "", loadMode},
}

// errUsage reports a command-line error that parse has already printed.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("cstrace: ")
	start := time.Now()
	name, run, err := parse(os.Args[1:])
	switch {
	case errors.Is(err, flag.ErrHelp):
		return
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err == nil:
		err = run()
	}
	if err != nil {
		log.Print(err)
		os.Exit(1)
	}
	log.Printf("%s mode finished in %v", name, time.Since(start).Round(time.Millisecond))
}

// parse picks the mode a leading -mode names (quick when there is none) and
// parses the rest of args with that mode's flags. It returns the mode's name
// and run function, flag.ErrHelp after -h, errUsage after a command-line
// error it has printed, or a rejected -duration.
func parse(args []string) (string, func() error, error) {
	name := "quick"
	if len(args) > 0 {
		a := args[0]
		if strings.HasPrefix(a, "--") {
			a = a[1:]
		}
		switch {
		case a == "-h" || a == "-help":
			listModes(os.Stderr)
			return "", nil, flag.ErrHelp
		case a == "-mode" && len(args) == 1:
			fmt.Fprintln(os.Stderr, "flag needs an argument: -mode")
			listModes(os.Stderr)
			return "", nil, errUsage
		case a == "-mode":
			name, args = args[1], args[2:]
		case strings.HasPrefix(a, "-mode="):
			name, args = a[len("-mode="):], args[1:]
		}
	}
	for _, a := range args {
		if a == "-mode" || a == "--mode" || strings.HasPrefix(a, "-mode=") || strings.HasPrefix(a, "--mode=") {
			fmt.Fprintln(os.Stderr, "-mode must be the first argument")
			listModes(os.Stderr)
			return "", nil, errUsage
		}
	}
	for _, m := range modes {
		if m.name != name {
			continue
		}
		fs := flag.NewFlagSet("cstrace -mode "+name, flag.ContinueOnError)
		run := m.setup(fs)
		fs.Usage = func() {
			fmt.Fprintf(fs.Output(), "usage: %s\n%s\n", strings.TrimSpace(fs.Name()+" [flags] "+m.operands), m.usage)
			fs.PrintDefaults()
		}
		if err := fs.Parse(args); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return "", nil, err
			}
			return "", nil, errUsage
		}
		if fs.NArg() > 0 && m.operands == "" {
			fmt.Fprintf(fs.Output(), "-mode %s takes no arguments, got %q\n", name, fs.Arg(0))
			fs.Usage()
			return "", nil, errUsage
		}
		// The flag package stops at the first operand, so a later flag
		// would be taken for one.
		for _, a := range fs.Args() {
			if strings.HasPrefix(a, "-") {
				fmt.Fprintf(fs.Output(), "-mode %s: %q after %s; flags go before %s\n", name, a, m.operands, m.operands)
				fs.Usage()
				return "", nil, errUsage
			}
		}
		// 0 means each mode's default length; a negative length means nothing.
		if d := fs.Lookup("duration"); d != nil && strings.HasPrefix(d.Value.String(), "-") {
			return "", nil, fmt.Errorf("-duration: negative duration %v", d.Value)
		}
		return name, run, nil
	}
	fmt.Fprintf(os.Stderr, "unknown mode %q\n", name)
	listModes(os.Stderr)
	return "", nil, errUsage
}

func listModes(w io.Writer) {
	fmt.Fprintln(w, "usage: cstrace -mode MODE [flags]   (`cstrace -mode MODE -h` lists a mode's flags)")
	fmt.Fprintln(w, "modes:")
	for _, m := range modes {
		fmt.Fprintf(w, "  %-10s %s\n", m.name, m.usage)
	}
}

// The flags below mean the same thing in every mode that declares them.

func seedFlag(fs *flag.FlagSet) *uint64  { return fs.Uint64("seed", 1, "simulation seed") }
func inFlag(fs *flag.FlagSet) *string    { return fs.String("in", "", "input trace file") }
func jsonFlag(fs *flag.FlagSet) *bool    { return fs.Bool("json", false, "machine-readable output") }
func storeFlag(fs *flag.FlagSet) *string { return fs.String("store", "", "metrics store file") }
func labelFlag(fs *flag.FlagSet) *string { return fs.String("label", "", "operator tag for new runs") }

func outFlag(fs *flag.FlagSet, usage string) *string { return fs.String("out", "", usage) }

func depthsFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("depths", false, "print each collector group's units and channel-depth stats after a sharded run")
}

func forFlag(fs *flag.FlagSet, def time.Duration) *time.Duration {
	return fs.Duration("for", def, "run this long (0 = until SIGINT/SIGTERM)")
}

// durationFlag declares -duration; parse rejects a negative one.
func durationFlag(fs *flag.FlagSet) *time.Duration {
	return fs.Duration("duration", 0, "trace duration (0 = the mode's default, negative is an error)")
}

// workers is a -parallel value: "auto" (sched.Auto) or a worker count.
type workers int

func (w *workers) String() string {
	if *w == sched.Auto {
		return "auto"
	}
	return strconv.Itoa(int(*w))
}

func (w *workers) Set(s string) error {
	n, err := sched.ParseWorkers(s)
	*w = workers(n)
	return err
}

// parallelFlag declares -parallel, the worker count for what.
func parallelFlag(fs *flag.FlagSet, what string) *int {
	w := workers(sched.Auto)
	fs.Var(&w, "parallel", "`workers` for "+what+`; 1 = single-threaded, "auto" = self-tuned from the worker budget; results identical`)
	return (*int)(&w)
}

// untilSignal is the context of a long-running mode: done on SIGINT or
// SIGTERM, or once limit has passed when limit > 0.
func untilSignal(limit time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if limit <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, limit)
	return ctx, func() { cancel(); stop() }
}

func reproduceMode(preset func(seed uint64) cstrace.Config) func(*flag.FlagSet) func() error {
	return func(fs *flag.FlagSet) func() error {
		seed := seedFlag(fs)
		duration := durationFlag(fs)
		parallel := parallelFlag(fs, "the collector shards")
		depths := depthsFlag(fs)
		return func() error {
			cfg := preset(*seed)
			if *duration > 0 {
				cfg.Game.Duration = *duration
				cfg.Suite = analysis.DefaultSuiteConfig(*duration)
			}
			cfg.Parallelism = *parallel
			res, err := cstrace.Reproduce(cfg)
			if err != nil {
				return err
			}
			if err := res.WriteReport(os.Stdout); err != nil {
				return err
			}
			fmt.Printf("Per-slot bandwidth: %.1f kbs across %d slots (paper: ~40 kbs)\n",
				res.PerSlotKbs(), cfg.Game.Slots)
			if *depths {
				fprintDepths(os.Stdout, res.GroupDepths)
			}
			return nil
		}
	}
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

func natMode(fs *flag.FlagSet) func() error {
	seed := seedFlag(fs)
	return func() error {
		res, err := cstrace.ReproduceNAT(*seed)
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
}

// generatorConfig is the paper's server without outages over d (default
// def), checked before any output file is created.
func generatorConfig(seed uint64, d, def time.Duration) (gamesim.Config, error) {
	if d == 0 {
		d = def
	}
	cfg := gamesim.PaperConfig(seed)
	cfg.Duration = d
	cfg.Outages = nil
	return cfg, cfg.Validate()
}

func genMode(fs *flag.FlagSet) func() error {
	seed := seedFlag(fs)
	duration := durationFlag(fs)
	out := outFlag(fs, "output trace file")
	format := fs.Int("format", 4, "trace format version to write: 4 = columnar compressed, 3 = compressed+indexed, 2 = indexed, 1 = legacy")
	compress := fs.Int("compress", 0, "v3/v4 segment compression: 0 = default flate level, 1-9 = explicit level, -1 = store uncompressed")
	parallel := parallelFlag(fs, "the trace writer's compression")
	return func() error {
		if *out == "" {
			return fmt.Errorf("gen: -out required")
		}
		// Every rejection comes before os.Create truncates an existing trace.
		if *format < 1 || *format > 4 {
			return fmt.Errorf("gen: unknown -format %d (want 1, 2, 3 or 4)", *format)
		}
		if *compress < -1 || *compress > 9 {
			return fmt.Errorf("gen: invalid -compress %d (want -1, 0 or 1-9)", *compress)
		}
		if *compress != 0 && *format < 3 {
			return fmt.Errorf("gen: -compress needs -format 3 or 4 (v1/v2 have no compression)")
		}
		cfg, err := generatorConfig(*seed, *duration, time.Hour)
		if err != nil {
			return fmt.Errorf("gen: %w", err)
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()

		w := []func(io.Writer) *trace.Writer{trace.NewWriterV1, trace.NewWriterV2, trace.NewWriterV3, trace.NewWriter}[*format-1](f)
		w.CompressLevel = *compress
		// Deflate sealed segments on a worker pool so compression stays off
		// the generator's write path; the bytes are identical either way.
		w.Workers = *parallel
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
			w.Count(), st.PacketsIn, st.PacketsOut, *out, w.Version())
		return nil
	}
}

func analyzeMode(fs *flag.FlagSet) func() error {
	in := inFlag(fs)
	parallel := parallelFlag(fs, "segment decode and the collector shards")
	from := fs.Duration("from", 0, "analyze only records at or after this offset")
	to := fs.Duration("to", 0, "analyze only records before this offset (0 = end of trace)")
	depths := depthsFlag(fs)
	return func() error {
		if *in == "" {
			return fmt.Errorf("analyze: -in required")
		}
		end := *to
		if end == 0 {
			end = math.MaxInt64
		} else if end <= *from {
			// An inverted or empty slice would print an all-zero report.
			return fmt.Errorf("analyze: -from must precede -to")
		}
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()

		// Collectors size themselves from record timestamps, so one pass
		// with the default week-scale suite is correct; results are
		// byte-identical at every -parallel.
		a, err := cstrace.AnalyzeTraceRange(f, *parallel, *from, end)
		if err != nil {
			return err
		}
		if a.Warning != "" {
			log.Printf("warning: %s", a.Warning)
		}
		if err := a.WriteReport(os.Stdout); err != nil {
			return err
		}
		if *depths {
			fprintDepths(os.Stdout, a.GroupDepths)
		}
		log.Printf("analyzed %d records (format v%d)", a.Records, a.Version)
		return nil
	}
}

func indexMode(fs *flag.FlagSet) func() error {
	in := inFlag(fs)
	return func() error { return printIndex(*in) }
}

func printIndex(in string) error {
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
		n, serr := trace.NewReader(f).ReadAll(trace.HandlerFunc(func(trace.Record) {}))
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

// salvageMode recovers a damaged capture: it scans the segment frames,
// reports the intact prefix (always), and with -out rewrites the salvaged
// records as a fresh, sealed v4 trace that every other mode reads normally.
func salvageMode(fs *flag.FlagSet) func() error {
	in := inFlag(fs)
	out := outFlag(fs, "rewrite the intact prefix to this file as a sealed v4 trace")
	parallel := parallelFlag(fs, "segment decode")
	return func() error { return salvage(*in, *out, *parallel) }
}

func salvage(in, out string, workers int) error {
	if in == "" {
		return fmt.Errorf("salvage: -in required")
	}
	if workers < 1 {
		workers = sched.Default().Total()
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
	// v1 has no segment frames to scan; the serial reader's records-before-
	// error delivery is the whole salvage story.
	v1 := errors.Is(err, trace.ErrNoIndex)
	if err != nil && !v1 {
		return fmt.Errorf("salvage: %s: %w", in, err)
	}
	if !v1 {
		log.Printf("%s: %s", in, rep)
	}
	var g *os.File
	var w *trace.Writer
	if out != "" {
		if g, err = os.Create(out); err != nil {
			return err
		}
		defer g.Close()
		w = trace.NewWriter(g)
	}
	if v1 {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return err
		}
		n, serr := trace.NewReader(f).ReadAll(trace.HandlerFunc(func(r trace.Record) {
			if w != nil {
				_ = w.Write(r) // a write failure latches; Flush reports it
			}
		}))
		if serr != nil {
			log.Printf("%s: v1 trace: %d records intact before the damage (%v)", in, n, serr)
		} else {
			log.Printf("%s: v1 trace: all %d records intact; nothing to salvage", in, n)
		}
	} else if w != nil {
		if _, err := trace.DecodeIndex(f, ix, w, workers); err != nil {
			return fmt.Errorf("salvage: decoding the intact prefix: %w", err)
		}
	}
	if w == nil {
		return nil
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

func pcapMode(fs *flag.FlagSet) func() error {
	seed := seedFlag(fs)
	duration := durationFlag(fs)
	out := outFlag(fs, "output pcap capture")
	return func() error {
		if *out == "" {
			return fmt.Errorf("pcap: -out required")
		}
		cfg, err := generatorConfig(*seed, *duration, time.Minute)
		if err != nil {
			return fmt.Errorf("pcap: %w", err)
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()

		pw := trace.NewPCAPWriter(f, time.Date(2002, 4, 11, 8, 55, 4, 0, time.UTC))
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
		log.Printf("wrote %d packets to %s", n, *out)
		return nil
	}
}

func webMode(fs *flag.FlagSet) func() error {
	seed := seedFlag(fs)
	duration := durationFlag(fs)
	return func() error {
		cfg := webtraffic.DefaultConfig(*seed)
		if *duration > 0 {
			cfg.Duration = *duration
		}
		res, err := webtraffic.RunNAT(cfg, nat.DefaultConfig(*seed))
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
}

func aggregateMode(fs *flag.FlagSet) func() error {
	seed := seedFlag(fs)
	return func() error {
		cfg := population.Config{
			Seed:        *seed,
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
}

func scenarioMode(fs *flag.FlagSet) func() error {
	seed := seedFlag(fs)
	servers := fs.Int("servers", 8, "fleet size")
	duration := durationFlag(fs)
	stagger := fs.Duration("stagger", 0, "per-server launch stagger")
	spike := fs.Float64("spike", 6, "launch-day arrival surge multiplier (<=1 disables)")
	parallel := parallelFlag(fs, "the collector shards and, with -out, the trace writer's compression")
	perSlim := fs.Bool("perslim", false, "print each server's Table II from a slim per-box collector set (counters + minute series); scales to hundreds of servers")
	out := outFlag(fs, "persist the merged fleet trace to this file (v4)")
	depths := depthsFlag(fs)
	storePath := storeFlag(fs)
	label := labelFlag(fs)
	return func() error {
		cfg := cstrace.LaunchDay(*seed, *servers)
		if *duration > 0 {
			cfg.Spec.Duration = *duration
		}
		cfg.Spec.Stagger = *stagger
		cfg.Spec.SpikeMult = *spike
		cfg.Parallelism = *parallel
		if *perSlim {
			cfg.PerServer = cstrace.PerServerSlim
		}
		// Build and check the fleet before os.Create truncates an existing
		// trace; RunScenario runs the built servers as they are.
		var err error
		if cfg.Servers, err = cfg.Spec.Build(); err != nil {
			return err
		}
		if err := (&scenario.Config{Servers: cfg.Servers}).Validate(); err != nil {
			return err
		}

		// The merge emits the strict time order the Writer requires, and
		// compression rides the worker pool instead of the merge path.
		var w *trace.Writer
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = trace.NewWriter(f)
			w.Workers = cfg.Parallelism
			cfg.Extra = w
		}

		// The stored run is content-addressed by the merged stream itself,
		// hashed as it flows: rerunning the same seed and spec dedupes.
		var mst *metricstore.Store
		var hasher *metricstore.StreamHasher
		if *storePath != "" {
			if mst, err = openMetricStore(*storePath, true); err != nil {
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
			log.Printf("wrote %d merged fleet records to %s (format v%d)", w.Count(), *out, w.Version())
		}
		if mst != nil {
			run, added, err := metricstore.RecordScenario(mst, metricstore.ScenarioInfo{
				Hash:    hasher.Sum(),
				Source:  fmt.Sprintf("scenario seed=%d servers=%d spike=%g", *seed, *servers, *spike),
				Label:   *label,
				Horizon: res.Horizon,
				Suite:   res.Aggregate.Suite,
				Servers: res.Servers,
			})
			if err != nil {
				return err
			}
			if added {
				log.Printf("recorded run %s in %s", run.ID, *storePath)
			} else {
				log.Printf("identical run already stored as %s in %s", run.ID, *storePath)
			}
		}
		if err := res.WriteReport(os.Stdout); err != nil {
			return err
		}
		if *perSlim {
			// Per-box collectors run on each server's own clock: the paper's
			// single-server predictability, once per box. The slim set
			// carries the headline table at a fraction of the full suite's
			// cost.
			fmt.Println("Per-server slim collectors (local clock)")
			fmt.Println("-------------------------------")
			for _, s := range res.Servers {
				t2 := s.Slim.TableII()
				fmt.Printf("  %-8s %8.1f kbs mean  %6.1f kbs/slot  %7.0f pps  in:out pkts %.2f\n",
					s.Name, t2.MeanBW.Kbs(), t2.MeanBW.Kbs()/float64(s.Game.Slots),
					float64(t2.MeanPPS), float64(t2.PacketsIn)/float64(t2.PacketsOut))
			}
			fmt.Println()
		}
		if *depths {
			fprintDepths(os.Stdout, res.Aggregate.GroupDepths)
		}
		fmt.Printf("Fleet: %d servers, %d slots, %.1f kbs/slot aggregate (paper: ~40 kbs)\n",
			len(res.Servers), res.TotalSlots(), res.PerSlotKbs())
		return nil
	}
}

func provisionMode(fs *flag.FlagSet) func() error {
	players := fs.Int("players", 100000, "target concurrent players")
	return func() error {
		b := provision.PaperBudget()
		plan, err := provision.PlanFor(b, *players, 22, 50*time.Millisecond)
		if err != nil {
			return err
		}
		fmt.Printf("plan for %d concurrent players on 22-slot servers:\n", *players)
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
		return provisionSweeps()
	}
}

// provisionSweeps checks the analytic plan against simulation: per-server
// bandwidth and packet rate at four slot counts, then the lowest
// route-lookup capacity that keeps one busy server's incoming NAT loss
// under 1% (the paper puts 1-2% at the edge of player tolerance).
func provisionSweeps() error {
	fmt.Println("Per-server requirements by slot count (15-minute busy-server samples)")
	fmt.Println("slots | players | kbs total | pps total | kbs/slot")
	for _, slots := range []int{8, 16, 22, 32} {
		cfg := gamesim.PaperConfig(uint64(slots))
		cfg.Duration = 15 * time.Minute
		cfg.Warmup = 10 * time.Minute
		cfg.Outages = nil
		cfg.Slots = slots
		cfg.AttemptRate = 0.5 // saturate
		cfg.DiurnalAmp = 0

		var c analysis.Counters
		st, err := gamesim.Run(cfg, &c, nil)
		if err != nil {
			return err
		}
		t2 := c.TableII(cfg.Duration)
		fmt.Printf("%5d | %7.1f | %9.0f | %9.0f | %8.1f\n",
			slots, st.MeanPlayers(), t2.MeanBW.Kbs(), float64(t2.MeanPPS),
			t2.MeanBW.Kbs()/float64(slots))
	}

	fmt.Println("\nMiddlebox capacity needed for <1% incoming loss (one 22-slot server)")
	fmt.Println("capacity (pps) | loss in | loss out")
	gameCfg := gamesim.NATExperimentConfig(7)
	gameCfg.Duration = 10 * time.Minute
	// The generator's stream is strictly time-ordered, as the NAT model
	// requires.
	var offered trace.Collect
	if _, err := gamesim.Run(gameCfg, &offered, nil); err != nil {
		return err
	}
	for _, capacity := range []float64{900, 1100, 1300, 1500, 1800, 2400} {
		ncfg := nat.DefaultConfig(7)
		ncfg.Capacity = capacity
		dev, err := nat.New(ncfg, nil)
		if err != nil {
			return err
		}
		for _, r := range offered.Records {
			dev.Handle(r)
		}
		c := dev.Counts()
		marker := ""
		if c.LossIn() < 0.01 {
			marker = "  <- sufficient"
		}
		fmt.Printf("%14.0f | %6.2f%% | %7.3f%%%s\n",
			capacity, c.LossIn()*100, c.LossOut()*100, marker)
	}
	fmt.Println("\nNote the point of the paper: the bit rate (~1 Mbs) is trivial;")
	fmt.Println("the packet rate is what exhausts the middlebox.")
	return nil
}

// lastmileMode replays the paper's central design claim (§III-A: the game
// is built to saturate the narrowest last-mile link) through access-link
// models. The busiest client of a busy quarter hour is pushed through each
// access technology of the era, the paper's per-player budget is checked
// against the same links, and an "l337" high-rate flow (Fig 11's tail) is
// driven into a modem.
func lastmileMode(*flag.FlagSet) func() error {
	return func() error {
		cfg := gamesim.PaperConfig(5)
		cfg.Duration = 15 * time.Minute
		cfg.Warmup = 10 * time.Minute
		cfg.Outages = nil
		cfg.AttemptRate *= 5
		cfg.DiurnalAmp = 0
		var all trace.Collect
		if _, err := gamesim.Run(cfg, &all, nil); err != nil {
			return err
		}
		counts := map[uint32]int{}
		for _, r := range all.Records {
			counts[r.Client]++
		}
		var busiest uint32 // the most packets; the lowest ID on a tie
		for c, n := range counts {
			if n > counts[busiest] || n == counts[busiest] && c < busiest {
				busiest = c
			}
		}
		var flow []trace.Record
		for _, r := range all.Records {
			if r.Client == busiest {
				flow = append(flow, r)
			}
		}
		fmt.Printf("busiest client: %d packets over %v\n\n", len(flow), cfg.Duration)

		discard := trace.HandlerFunc(func(trace.Record) {})
		fmt.Println("replay through access profiles (down = server→client):")
		fmt.Printf("%-10s %9s %9s %11s %11s %9s\n",
			"profile", "loss dn", "loss up", "delay dn", "p.max dn", "util dn")
		for _, p := range netem.Profiles() {
			lm, err := netem.New(p, 1, discard)
			if err != nil {
				return err
			}
			for _, r := range flow {
				lm.Handle(r)
			}
			d, u := lm.Down(), lm.Up()
			fmt.Printf("%-10s %8.2f%% %8.2f%% %10.1fms %10.1fms %8.2f\n",
				p.Name, 100*d.LossRate(), 100*u.LossRate(),
				1e3*d.Delay.Mean(), 1e3*d.Delay.Max(), d.Utilization())
		}

		fmt.Println("\nanalytic check against the paper's per-player budget:")
		b := provision.PaperBudget()
		fmt.Printf("%-10s %9s %9s %10s %s\n", "profile", "util dn", "util up", "sat.ratio", "verdict")
		for _, p := range netem.Profiles() {
			r := provision.CheckLastMile(b, p)
			verdict := "comfortable"
			if r.Saturated {
				verdict = "saturated (by design)"
			}
			if !r.Fits {
				verdict = "does not fit"
			}
			fmt.Printf("%-10s %9.2f %9.2f %10.2f %s\n",
				p.Name, r.DownUtil, r.UpUtil, r.SaturationRatio, verdict)
		}

		// 250-byte snapshots every 20 ms: 123 kbs on the wire.
		fmt.Println("\n\"l337\" config (high update rate) through a modem:")
		lm, err := netem.New(netem.Modem56k(), 2, discard)
		if err != nil {
			return err
		}
		for i := 0; i < 3000; i++ {
			lm.Handle(trace.Record{T: time.Duration(i) * 20 * time.Millisecond, Dir: trace.Out, App: 250})
		}
		d := lm.Down()
		fmt.Printf("offered 123 kbs into 45 kbs: loss %.1f%%, goodput pegged at %.0f kbs\n",
			100*d.LossRate(), float64(d.Goodput())/1e3)
		return nil
	}
}
