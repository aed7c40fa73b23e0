package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"cstrace/internal/metricstore"
	"cstrace/internal/metricsvc"
)

// openMetricStore opens the metrics store (internal/metricstore) at path.
// Only a mode that records runs creates a missing store; a query of a
// mistyped path fails instead of leaving an empty store behind.
func openMetricStore(path string, create bool) (*metricstore.Store, error) {
	if path == "" {
		return nil, fmt.Errorf("-store required (path to the metrics store file)")
	}
	if !create {
		if _, err := os.Stat(path); err != nil {
			return nil, err
		}
	}
	return metricstore.Open(path)
}

// ingestMode analyzes each file and records one run row per distinct
// content hash; re-ingesting a file the store already holds is a no-op.
func ingestMode(fs *flag.FlagSet) func() error {
	storePath := storeFlag(fs)
	label := labelFlag(fs)
	parallel := parallelFlag(fs, "segment decode")
	in := inFlag(fs)
	return func() error {
		files := fs.Args()
		if *in != "" {
			files = append([]string{*in}, files...)
		}
		if len(files) == 0 {
			return fmt.Errorf("ingest: pass trace files as arguments")
		}
		st, err := openMetricStore(*storePath, true)
		if err != nil {
			return err
		}
		defer st.Close()
		for _, path := range files {
			run, added, err := metricstore.IngestTraceFile(st, path, metricstore.IngestOptions{
				Parallelism: *parallel,
				Label:       *label,
			})
			if err != nil {
				return fmt.Errorf("ingest: %w", err)
			}
			verb := "recorded"
			if !added {
				verb = "already stored as"
			}
			fmt.Printf("%s: %s run %s (%d records, %.1f kbs mean)\n",
				path, verb, run.ID, run.Records, run.Summary.MeanKbs)
			if run.Warning != "" {
				fmt.Printf("  salvaged: %s\n", run.Warning)
			}
		}
		return nil
	}
}

// printJSON writes v to stdout as indented JSON.
func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func listMode(fs *flag.FlagSet) func() error {
	storePath := storeFlag(fs)
	jsonOut := jsonFlag(fs)
	return func() error {
		st, err := openMetricStore(*storePath, false)
		if err != nil {
			return err
		}
		defer st.Close()
		runs := st.Runs()
		if *jsonOut {
			return printJSON(runs)
		}
		fmt.Printf("%s: %d runs\n", st.Path(), len(runs))
		fmt.Printf("  %4s  %-12s  %-8s  %10s  %10s  %-20s  %s\n",
			"seq", "run", "kind", "records", "mean kbs", "ingested", "source")
		for _, r := range runs {
			src := r.Source
			if r.Label != "" {
				src += " [" + r.Label + "]"
			}
			fmt.Printf("  %4d  %-12s  %-8s  %10d  %10.1f  %-20s  %s\n",
				r.Seq, r.ID, r.Kind, r.Records, r.Summary.MeanKbs,
				r.IngestedAt.Format("2006-01-02T15:04:05Z"), src)
		}
		return nil
	}
}

func showMode(fs *flag.FlagSet) func() error {
	storePath := storeFlag(fs)
	runID := fs.String("run", "", "run ID or content-hash prefix")
	jsonOut := jsonFlag(fs)
	return func() error {
		if *runID == "" {
			return fmt.Errorf("show: -run required (run ID or hash prefix)")
		}
		st, err := openMetricStore(*storePath, false)
		if err != nil {
			return err
		}
		defer st.Close()
		run, err := st.Find(*runID)
		if err != nil {
			return err
		}
		if *jsonOut {
			return printJSON(run)
		}
		run.WriteText(os.Stdout)
		return nil
	}
}

func trendMode(fs *flag.FlagSet) func() error {
	storePath := storeFlag(fs)
	metric := fs.String("metric", "meankbs", "trend metric; \"help\" lists the registry")
	last := fs.Int("last", 20, "keep the last N runs (<=0 keeps all)")
	kinds := fs.String("kinds", "", "comma-separated run-kind filter, e.g. scenario")
	jsonOut := jsonFlag(fs)
	return func() error {
		if *metric == "help" || *metric == "list" {
			for _, line := range metricstore.Metrics() {
				fmt.Println(line)
			}
			return nil
		}
		st, err := openMetricStore(*storePath, false)
		if err != nil {
			return err
		}
		defer st.Close()
		var kindList []string
		if *kinds != "" {
			kindList = strings.Split(*kinds, ",")
		}
		pts, err := metricstore.Trend(st, *metric, *last, kindList...)
		if err != nil {
			return err
		}
		if *jsonOut {
			return printJSON(pts)
		}
		metricstore.WriteTrend(os.Stdout, *metric, pts)
		return nil
	}
}

// metricsdMode is the continuous-analysis daemon: it watches a spool
// directory for trace files (*.cst), ingests each new one into the store
// (content-addressed, so re-delivered files are free), threads every record
// through a cumulative summary and a rolling trace-time window, and records
// completed windows plus — on shutdown (SIGINT/SIGTERM, or after -for) — a
// whole-session service row, whose summary it prints.
func metricsdMode(fs *flag.FlagSet) func() error {
	storePath := storeFlag(fs)
	spool := fs.String("spool", "", "directory watched for .cst trace files; each must arrive whole, by rename")
	cadence := fs.Duration("cadence", 2*time.Second, "spool poll cadence")
	report := fs.Duration("report", 30*time.Second, "rolling-report cadence when idle (<0 disables)")
	window := fs.Duration("window", time.Minute, "rolling trace-time window width")
	parallel := parallelFlag(fs, "segment decode per file")
	label := labelFlag(fs)
	forDur := forFlag(fs, 0)
	return func() error {
		if *storePath == "" || *spool == "" {
			return fmt.Errorf("-store and -spool are both required")
		}
		st, err := openMetricStore(*storePath, true)
		if err != nil {
			return err
		}
		defer st.Close()
		eng, err := metricsvc.New(metricsvc.Config{
			Store:       st,
			Spool:       *spool,
			Poll:        *cadence,
			ReportEvery: *report,
			Window:      *window,
			Parallelism: *parallel,
			Label:       *label,
			Report:      os.Stdout,
			Logf:        log.Printf,
		})
		if err != nil {
			return err
		}
		ctx, stop := untilSignal(*forDur)
		defer stop()
		log.Printf("watching %s -> %s (poll %v, window %v)", *spool, *storePath, *cadence, *window)
		if err := eng.Run(ctx); err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			eng.Close()
			return err
		}
		svc, err := eng.Close()
		if err != nil {
			return err
		}
		if svc == nil {
			log.Printf("session ended with no traces ingested")
			return nil
		}
		log.Printf("session %s recorded: %d records, %d windows", svc.ID, svc.Records, eng.Windows())
		svc.WriteText(os.Stdout)
		return nil
	}
}
