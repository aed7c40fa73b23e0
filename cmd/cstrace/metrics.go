package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"cstrace/internal/metricstore"
)

// The metrics-store modes: ingest/list/show/trend query and grow the
// single-file run database (internal/metricstore). The continuous-analysis
// daemon over the same store is cmd/csmetricsd.

func openMetricStore(path string) (*metricstore.Store, error) {
	if path == "" {
		return nil, fmt.Errorf("-store required (path to the metrics store file)")
	}
	return metricstore.Open(path)
}

// runIngest analyzes each file and records one run row per distinct
// content hash; re-ingesting a file the store already holds is a no-op.
func runIngest(storePath, label string, parallel int, files []string) error {
	if len(files) == 0 {
		return fmt.Errorf("ingest: pass trace files as arguments")
	}
	st, err := openMetricStore(storePath)
	if err != nil {
		return err
	}
	defer st.Close()
	for _, path := range files {
		run, added, err := metricstore.IngestTraceFile(st, path, metricstore.IngestOptions{
			Parallelism: parallel,
			Label:       label,
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

func runList(storePath string, jsonOut bool) error {
	st, err := openMetricStore(storePath)
	if err != nil {
		return err
	}
	defer st.Close()
	runs := st.Runs()
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(runs)
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

func runShow(storePath, runID string, jsonOut bool) error {
	if runID == "" {
		return fmt.Errorf("show: -run required (run ID or hash prefix)")
	}
	st, err := openMetricStore(storePath)
	if err != nil {
		return err
	}
	defer st.Close()
	run, err := st.Find(runID)
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(run)
	}
	run.WriteText(os.Stdout)
	return nil
}

func runTrend(storePath, metric string, last int, kinds string, jsonOut bool) error {
	if metric == "help" || metric == "list" {
		for _, line := range metricstore.Metrics() {
			fmt.Println(line)
		}
		return nil
	}
	st, err := openMetricStore(storePath)
	if err != nil {
		return err
	}
	defer st.Close()
	var kindList []string
	if kinds != "" {
		kindList = strings.Split(kinds, ",")
	}
	pts, err := metricstore.Trend(st, metric, last, kindList...)
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(pts)
	}
	metricstore.WriteTrend(os.Stdout, metric, pts)
	return nil
}
