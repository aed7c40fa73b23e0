// Command bench is the repository's benchmark: five named workloads over the
// gen → trace → analyze → store pipeline, six end-to-end metrics measured
// with tracing off, and a traced run that attributes time to layers by
// timing calls into their public functions from outside. See README.md.
//
//	go run -C bench . -all -seed 11                  every workload, results + traces under bench/out/
//	go run -C bench . -workload analyze -seed 11     one workload
//	go run -C bench . -compare out/a.json out/b.json verdict per workload × metric
//
// The driver form prints one JSON object as the last line of stdout:
//
//	go run -C bench . --workload W --seed N --seconds S --trace 0|1
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// resultsFile is the shape of out/results.json.
type resultsFile struct {
	Env       environment       `json:"env"`
	Seed      uint64            `json:"seed"`
	Workloads []*workloadResult `json:"workloads"`
}

// driverLine is the last line of stdout of a single-workload run.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	all      bool
	workload string
	seed     uint64
	seconds  int
	trace    string
	out      string
	tmp      string
	compare  bool
}

func main() {
	var o options
	flag.BoolVar(&o.all, "all", false, "run every workload, each in a fresh process, and write results and trace files")
	flag.StringVar(&o.workload, "workload", "", "run one workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 11, "seed every input is made from")
	flag.IntVar(&o.seconds, "seconds", 15, "measure the untraced reps for this many seconds (never fewer than five reps)")
	flag.StringVar(&o.trace, "trace", "both", "both: every metric, results and trace files kept; 0 or 1: end-to-end or per-layer metrics only, as one JSON line")
	flag.StringVar(&o.out, "out", filepath.Join("out", "results.json"), "results file; trace-<workload>.json is written beside it")
	flag.StringVar(&o.tmp, "tmp", "", "parent of the scratch directory (default: the -out directory)")
	flag.BoolVar(&o.compare, "compare", false, "compare two results files by the bounds in BENCHMARK.json: bench -compare A.json B.json")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code, err := run(ctx, o, flag.Args())
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func run(ctx context.Context, o options, args []string) (int, error) {
	switch {
	case o.compare:
		if len(args) != 2 {
			return 2, errors.New("-compare takes two results files")
		}
		return compareFiles(os.Stdout, "", args[0], args[1])
	case o.all:
		return runAll(ctx, o)
	case o.workload != "":
		return runOne(ctx, o)
	}
	flag.Usage()
	return 2, nil
}

// planFor turns the flags into a plan. The driver's forms (-trace 0 or 1)
// spend their time on the half they were asked for.
func planFor(o options) plan {
	pl := plan{setups: 3, measure: true, minReps: 5, budget: time.Duration(o.seconds) * time.Second,
		traced: true, legReps: 5, probeReps: 3}
	switch o.trace {
	case "0":
		pl.traced = false
	case "1":
		pl.setups, pl.measure, pl.legReps = 1, false, 3
	}
	return pl
}

// runOne runs one workload in this process, inside a scratch directory that
// is removed however the run ends.
func runOne(ctx context.Context, o options) (int, error) {
	w := findWorkload(o.workload)
	if w == nil {
		return 2, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.trace != "0" && o.trace != "1" && o.trace != "both" {
		return 2, fmt.Errorf("-trace %q: want 0, 1 or both", o.trace)
	}
	outDir := filepath.Dir(o.out)
	tmpParent := o.tmp
	if tmpParent == "" {
		tmpParent = outDir
	}
	for _, dir := range []string{outDir, tmpParent} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 1, err
		}
	}
	dir, err := os.MkdirTemp(tmpParent, "scratch-"+w.name+"-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)

	// The jobs do not take a context, so an interrupt cannot unwind them:
	// clean up from here and leave.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			os.RemoveAll(dir)
			os.Exit(130)
		case <-done:
		}
	}()

	env := &runEnv{dir: dir, seed: o.seed, sz: w.size(1)}
	res, err := runWorkload(w, env, planFor(o))
	if err != nil {
		return 1, err
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "workload %s  seed %d  %d records/rep  %d reps (%d quiet)  attempted %d  failed %d  fail_ratio %g\n",
		res.Name, o.seed, res.Records, res.Reps, res.Quiet, res.Attempted, res.Failed, res.FailRatio)
	for _, f := range res.Failures {
		fmt.Fprintf(&sb, "  FAILED %s\n", f)
	}
	if o.trace != "1" {
		printMetrics(&sb, "end-to-end (tracing off, median over reps)", endToEnd, res.EndToEnd, 0)
	}
	if o.trace != "0" {
		printMetrics(&sb, "per-layer (traced run and isolation probes)", perLayer, res.PerLayer, res.SerialCPUNS)
	}
	os.Stdout.WriteString(sb.String())

	if o.trace == "both" { // the default form keeps files; the driver's forms print their one line
		if err := writeJSON(o.out, &resultsFile{Env: readEnvironment(), Seed: o.seed, Workloads: []*workloadResult{res}}); err != nil {
			return 1, err
		}
		if res.trace != nil {
			tf := traceFile{Workload: w.name, Seed: o.seed, Spans: res.trace.spans, Self: res.trace.selfTimes(), Counts: res.trace.counts, Probes: res.Probes}
			if err := writeJSON(filepath.Join(outDir, "trace-"+w.name+".json"), &tf); err != nil {
				return 1, err
			}
		}
	} else {
		line, err := json.Marshal(driverResult(res, o.trace))
		if err != nil {
			return 1, err
		}
		fmt.Printf("%s\n", line)
	}
	if res.Failed > 0 {
		return 1, nil
	}
	return 0, nil
}

// driverResult is the contract's one-line result: every end-to-end metric
// with -trace 0, every per-layer metric with -trace 1 (a layer the workload
// does not run reads 0), both otherwise.
func driverResult(res *workloadResult, trace string) driverLine {
	line := driverLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	emit := func(defs []metricDef, vals map[string]value) {
		for _, d := range defs {
			line.Metrics[d.Name] = driverValue{Value: vals[d.Name].Value, Unit: d.Unit}
		}
	}
	if trace != "1" {
		emit(endToEnd, res.EndToEnd)
	}
	if trace != "0" {
		emit(perLayer, res.PerLayer)
	}
	return line
}

// runAll re-executes this binary once per workload, so each is one fresh
// process, and gathers the children's results into one file. A fixed spin
// loop is timed before and after each child: readings more than a tenth
// apart mean a neighbour was busy, and the workload is run again (twice at
// most) rather than recording the neighbour's burst as the program's number.
func runAll(ctx context.Context, o options) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 1, err
	}
	outDir := filepath.Dir(o.out)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 1, err
	}
	all := resultsFile{Env: readEnvironment(), Seed: o.seed}
	failed := false
	for _, w := range workloads {
		part := filepath.Join(outDir, "part-"+w.name+".json")
		var res *workloadResult
		for attempt := 0; attempt < 3; attempt++ {
			before := spinMS()
			cmd := exec.CommandContext(ctx, self,
				"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-out", part, "-tmp", o.tmp)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
			cmd.WaitDelay = 10 * time.Second
			runErr := cmd.Run()
			if ctx.Err() != nil {
				os.Remove(part)
				return 130, ctx.Err()
			}
			after := spinMS()
			var child resultsFile
			if data, err := os.ReadFile(part); err != nil {
				return 1, fmt.Errorf("%s: no result (%v)", w.name, runErr)
			} else if err := json.Unmarshal(data, &child); err != nil || len(child.Workloads) != 1 {
				return 1, fmt.Errorf("%s: unreadable result: %v", w.name, err)
			}
			os.Remove(part)
			res = child.Workloads[0]
			res.SpinBefore, res.SpinAfter = before, after
			res.Noisy = max(before, after) > 1.1*min(before, after)
			fmt.Printf("env.spin_ms_before %.2f  env.spin_ms_after %.2f  noisy %v\n\n", before, after, res.Noisy)
			if !res.Noisy {
				break
			}
		}
		failed = failed || res.Failed > 0
		all.Workloads = append(all.Workloads, res)
	}
	if err := writeJSON(o.out, &all); err != nil {
		return 1, err
	}
	fmt.Printf("wrote %s and %s\n", o.out, filepath.Join(outDir, "trace-<workload>.json"))
	if failed {
		return 1, errors.New("a correctness check failed")
	}
	return 0, nil
}
