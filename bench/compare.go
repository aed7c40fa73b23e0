package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// benchmarkSpec is the part of BENCHMARK.json -compare reads.
type benchmarkSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

// findSpec looks for BENCHMARK.json in the working directory and its parent
// (`go run -C bench .` runs one level below the repository root).
func findSpec(path string) (*benchmarkSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
	}
	for _, c := range candidates {
		data, err := os.ReadFile(c)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var spec benchmarkSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", c, err)
		}
		return &spec, nil
	}
	return nil, fmt.Errorf("no BENCHMARK.json at %v", candidates)
}

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultsFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// sameJobs refuses pairs that did not run the same jobs on the same number
// of processors: their difference would say nothing about the program.
func sameJobs(a, b *resultsFile) error {
	switch {
	case a.Env.GOMAXPROCS != b.Env.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS differs: %d vs %d", a.Env.GOMAXPROCS, b.Env.GOMAXPROCS)
	case a.Seed != b.Seed:
		return fmt.Errorf("seed differs: %d vs %d", a.Seed, b.Seed)
	case len(a.Workloads) != len(b.Workloads):
		return fmt.Errorf("workload count differs: %d vs %d", len(a.Workloads), len(b.Workloads))
	}
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		if wa.Name != wb.Name || wa.Sizes != wb.Sizes {
			return fmt.Errorf("workload %d differs: %s %+v vs %s %+v", i, wa.Name, wa.Sizes, wb.Name, wb.Sizes)
		}
	}
	return nil
}

// verdict weighs B's median against A's for one metric. worse is how far B
// moved in the bad direction as a share of A.
func verdict(def metricDef, a, b value) (v string, worse float64) {
	if a.Value == 0 {
		return "unresolved", 0
	}
	worse = (b.Value - a.Value) / math.Abs(a.Value)
	if def.Better == higher {
		worse = -worse
	}
	noisy := max(medianSpread(a.Samples), medianSpread(b.Samples)) > def.Bound
	switch {
	case noisy && !allBetter(def, a.Samples, b.Samples):
		// The medians' own uncertainty is wider than the bound: a difference of that
		// size cannot be told from noise, in either direction.
		return "unresolved", worse
	case worse > def.Bound:
		return "regressed", worse
	}
	return "ok", worse
}

// allBetter reports whether every reading of B beats every reading of A.
func allBetter(def metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if def.Better == higher {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

// compareFiles prints one verdict per workload × end-to-end metric and
// returns a non-zero code unless every one is ok.
func compareFiles(out io.Writer, specPath, pathA, pathB string) (int, error) {
	spec, err := findSpec(specPath)
	if err != nil {
		return 2, err
	}
	a, err := loadResults(pathA)
	if err != nil {
		return 2, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return 2, err
	}
	if err := sameJobs(a, b); err != nil {
		return 2, fmt.Errorf("refusing to compare: %w", err)
	}
	bad := 0
	fmt.Fprintf(out, "%-10s %-16s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "spread", "verdict")
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		if wb.Failed > wa.Failed {
			fmt.Fprintf(out, "%-10s %-16s %14d %14d %8s %7s %7s  regressed\n", wa.Name, "failed", wa.Failed, wb.Failed, "", "0", "")
			bad++
		}
		for _, def := range spec.EndToEnd {
			va, vb := wa.EndToEnd[def.Name], wb.EndToEnd[def.Name]
			v, worse := verdict(def, va, vb)
			if v != "ok" {
				bad++
			}
			fmt.Fprintf(out, "%-10s %-16s %14.4f %14.4f %+7.1f%% %6.0f%% %6.1f%%  %s\n", wa.Name, def.Name, va.Value, vb.Value,
				100*worse, 100*def.Bound, 100*max(medianSpread(va.Samples), medianSpread(vb.Samples)), v)
		}
	}
	if bad > 0 {
		return 1, fmt.Errorf("%d of the comparisons are not ok", bad)
	}
	return 0, nil
}
