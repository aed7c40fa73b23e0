package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"
)

// plan says how much of a workload run to do.
type plan struct {
	setups    int           // how often set-up runs; setup_s is the median
	measure   bool          // run the untraced measured reps
	minReps   int           // at least this many measured reps …
	budget    time.Duration // … and more until this much time has been measured
	traced    bool          // run the traced legs and the isolation probes
	legReps   int           // reps per traced leg
	probeReps int
}

// workloadResult is one workload's entry in a results file.
type workloadResult struct {
	Name       string           `json:"name"`
	Sizes      sizes            `json:"sizes"`
	Reps       int              `json:"reps"`
	Quiet      int              `json:"quiet_reps"` // reps the end-to-end medians are taken over
	Records    int64            `json:"records"`
	Digest     string           `json:"digest"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	FailRatio  float64          `json:"fail_ratio"`
	Failures   []string         `json:"failures,omitempty"`
	Noisy      bool             `json:"noisy"`
	SpinBefore float64          `json:"spin_ms_before"`
	SpinAfter  float64          `json:"spin_ms_after"`
	EndToEnd   map[string]value `json:"end_to_end,omitempty"`
	PerLayer   map[string]value `json:"per_layer,omitempty"`
	Probes     []probe          `json:"probes,omitempty"`
	// SerialCPUNS is the traced serial leg's CPU per record, the figure the
	// attribution probes are summed against.
	SerialCPUNS float64 `json:"serial_cpu_ns_per_rec,omitempty"`
	trace       *tracer
}

// quietShare is the most of the machine's processor time a neighbour may have
// had during a rep for the rep to count towards the end-to-end medians. On a
// shared box a burst of steal halves mrec_s while cpu_s_per_mrec stands still;
// quiet reps read 0–2 % here and disturbed ones 4–25 %.
const quietShare = 0.03

// repSample is one timed rep.
type repSample struct {
	wallS, cpuS, gcS float64
	allocB           uint64
	// others is the share of the machine's processor time during the rep
	// that went to a neighbour: another process, or another guest (steal).
	others float64
	res    jobResult
}

// measure times one rep: wall clock, process CPU and bytes allocated, all
// read at the same two points. The collector runs first so every rep starts
// from the same heap.
func measure(fn func() (jobResult, error)) (repSample, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	watch := watchNeighbours()
	g0, c0, t0 := gcCPUSeconds(), cpuSeconds(), time.Now()
	res, err := fn()
	wall, cpu, gc := time.Since(t0), cpuSeconds()-c0, gcCPUSeconds()-g0
	others := watch.share()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return repSample{}, err
	}
	if res.verify != nil {
		if err := res.verify(&res); err != nil {
			return repSample{}, err
		}
	}
	if res.records <= 0 {
		return repSample{}, fmt.Errorf("job processed no records")
	}
	return repSample{wallS: wall.Seconds(), cpuS: cpu, gcS: gc, allocB: m1.TotalAlloc - m0.TotalAlloc, others: others, res: res}, nil
}

// measured times one untraced rep of w's job with every knob at k.
func (w *workload) measured(env *runEnv, k knobs) (repSample, error) {
	return measure(func() (jobResult, error) { return w.job(env, k) })
}

func (s repSample) mrecS() float64 { return float64(s.res.records) / 1e6 / s.wallS }

// runWorkload runs one workload in this process.
func runWorkload(w *workload, env *runEnv, pl plan) (*workloadResult, error) {
	out := &workloadResult{Name: w.name, Sizes: env.sz}

	// Set-up: build the inputs and take the reference digest from the
	// all-serial twin. A twin that fails leaves nothing to check against.
	var setupS, quietSetupS []float64
	var ref jobResult
	for range pl.setups {
		t0, watch := time.Now(), watchNeighbours()
		if err := w.setup(env); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		s, err := w.measured(env, serial)
		if err != nil {
			return nil, fmt.Errorf("%s: serial twin: %w", w.name, err)
		}
		ref = s.res
		setupS = append(setupS, time.Since(t0).Seconds())
		if watch.share() <= quietShare {
			quietSetupS = append(quietSetupS, setupS[len(setupS)-1])
		}
	}
	if len(quietSetupS) > 0 {
		setupS = quietSetupS // as with the reps below: a neighbour's burst is not the program's time
	}
	out.Digest, out.Records = ref.digest, ref.records

	// check counts a rep's operations and holds its output against the twin's.
	check := func(what string, s repSample, err error) bool {
		ops := max(s.res.ops, ref.ops)
		out.Attempted += ops
		switch {
		case err != nil:
			out.Failures = append(out.Failures, fmt.Sprintf("%s: %v", what, err))
		case s.res.digest != ref.digest || s.res.records != ref.records:
			out.Failures = append(out.Failures, fmt.Sprintf("%s: digest %.12s over %d records, serial twin has %.12s over %d",
				what, s.res.digest, s.res.records, ref.digest, ref.records))
		default:
			return true
		}
		out.Failed += ops
		return false
	}

	if _, err := w.measured(env, auto); err != nil { // warm-up
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	if pl.measure {
		// Reps during which a neighbour had the processors are checked like
		// any other but kept out of the medians. A run that has spent its
		// budget with some quiet reps but not minReps of them goes on for up
		// to half as long again; one with none is on a box that is never
		// quiet (or whose /proc/stat counts processors this process cannot
		// use), where waiting would only cost time.
		var reps, quiet []repSample
		var measured time.Duration
		short := func() bool { return len(quiet) > 0 && len(quiet) < pl.minReps && measured < pl.budget*3/2 }
		for len(reps) < pl.minReps || measured < pl.budget || short() {
			s, err := w.measured(env, auto)
			if check(fmt.Sprintf("rep %d", len(reps)), s, err) {
				reps = append(reps, s)
				if s.others <= quietShare {
					quiet = append(quiet, s)
				}
			} else if out.Failed >= 3*max(ref.ops, 1) {
				break // broken, not flaky: stop burning the clock
			}
			measured += time.Duration(s.wallS * float64(time.Second))
		}
		out.Reps, out.Quiet = len(reps), len(quiet)
		if len(quiet) < pl.minReps {
			quiet = reps // the box never went quiet: report what there is
		}
		if len(quiet) > 0 {
			out.EndToEnd = endToEndMetrics(setupS, quiet)
		}
	}
	if pl.traced {
		if err := tracedRun(w, env, pl, out, check); err != nil {
			return nil, err
		}
	}
	if out.Attempted > 0 {
		out.FailRatio = float64(out.Failed) / float64(out.Attempted)
	}
	return out, nil
}

func endToEndMetrics(setupS []float64, reps []repSample) map[string]value {
	var mrec, cpu, alloc, bytes, opMS []float64
	for _, s := range reps {
		n := float64(s.res.records)
		mrec = append(mrec, s.mrecS())
		cpu = append(cpu, s.cpuS/(n/1e6))
		alloc = append(alloc, float64(s.allocB)/n)
		bytes = append(bytes, float64(s.res.outBytes)/n)
		if len(s.res.opMS) > 0 {
			opMS = append(opMS, s.res.opMS...)
		} else {
			opMS = append(opMS, s.wallS*1e3)
		}
	}
	return map[string]value{
		"setup_s":         sampled("s", setupS),
		"mrec_s":          sampled("Mrec/s", mrec),
		"cpu_s_per_mrec":  sampled("s/Mrec", cpu),
		"alloc_b_per_rec": sampled("B/rec", alloc),
		"b_per_rec":       sampled("B/rec", bytes),
		"file_ms_p50":     sampled("ms", opMS),
	}
}

// tracedRun is the second half of a workload: the job recomposed with timing
// sinks, as a serial leg (self times add up) and an auto leg (time in a sink
// is enqueue plus back-pressure wait), then each layer alone. Every traced
// auto rep is paired with a plain one run just before it, so the overhead of
// tracing is read off neighbours in time and not off two phases of a run.
func tracedRun(w *workload, env *runEnv, pl plan, out *workloadResult, check func(string, repSample, error) bool) error {
	tr := newTracer()
	out.trace = tr
	legs := map[string][]repSample{}
	for _, k := range []knobs{serial, auto} {
		for rep := range pl.legReps {
			if k == auto {
				s, err := w.measured(env, auto)
				if !check(fmt.Sprintf("plain rep %d", rep), s, err) {
					continue
				}
				legs["plain"] = append(legs["plain"], s)
			}
			lt := &legTrace{t: tr, leg: k.name, rep: rep}
			s, err := measure(func() (jobResult, error) { return w.traced(env, k, lt) })
			if check(fmt.Sprintf("traced %s rep %d", k.name, rep), s, err) {
				legs[k.name] = append(legs[k.name], s)
			}
		}
	}
	rss := peakRSSMB() // before the probes hold their samples
	p := newProber(pl.probeReps)
	if err := w.probes(env, p); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	out.Probes = p.list()
	out.PerLayer = map[string]value{"process.peak_rss_mb": {Value: rss, Unit: "MB", N: 1}}
	perLayerMetrics(w, out, tr, p, legs)
	return nil
}

// perLayerMetrics fills out.PerLayer with every per-layer metric this
// workload has a reading for; the driver's line reports the rest as 0.
func perLayerMetrics(w *workload, out *workloadResult, tr *tracer, p *prober, legs map[string][]repSample) {
	m := out.PerLayer
	times := tr.selfTimes()
	for _, leg := range []string{auto.name, serial.name} {
		for _, sm := range spanMetrics {
			if xs := perRep(times, sm.span, leg, sm.self); xs != nil {
				m[sm.name(leg)] = sampled("s", xs)
			}
		}
	}

	rate := func(reps []repSample) (mrec, cpuNS []float64) {
		for _, s := range reps {
			mrec = append(mrec, s.mrecS())
			cpuNS = append(cpuNS, s.cpuS*1e9/float64(s.res.records))
		}
		return
	}
	autoRate, _ := rate(legs[auto.name])
	serialRate, serialCPU := rate(legs[serial.name])
	if len(autoRate) > 0 && len(serialRate) > 0 {
		m["sched.speedup"] = value{Value: median(autoRate) / median(serialRate), Unit: "ratio", N: len(autoRate)}
	}
	if plain := legs["plain"]; len(plain) > 0 && len(plain) == len(legs[auto.name]) {
		var over []float64
		var gc, cpu float64
		for i, s := range plain {
			over = append(over, 100*(legs[auto.name][i].wallS/s.wallS-1))
			gc, cpu = gc+s.gcS, cpu+s.cpuS
		}
		m["trace.overhead_pct"] = sampled("%", over)
		m["runtime.gc_cpu_pct"] = value{Value: 100 * gc / cpu, Unit: "%", N: len(plain)}
	}

	// Attribution: the serial leg's CPU per record against the sum of the
	// probes of the layers it is made of. The remainder is a row of its own.
	if len(serialCPU) > 0 {
		out.SerialCPUNS = median(serialCPU)
		var sum float64
		for _, name := range w.attribution {
			sum += p.cpu(name)
		}
		rest := value{Value: median(serialCPU) - sum, Unit: "ns/rec", N: len(serialCPU)}
		m["unattributed.cpu_ns_per_rec"] = rest
		if w.name == "fleet" {
			m["scenario.cpu_ns_per_rec"] = value{Value: median(serialCPU), Unit: "ns/rec", N: len(serialCPU)}
			m["scenario.merge_residual.cpu_ns_per_rec"] = rest
		}
	}

	// A probe becomes the metric the registry has for it: its own name when
	// it carries a unit, else wall (or, where that is what is registered,
	// CPU) ns per record. Probes that only feed a difference have none.
	for _, pr := range p.list() {
		switch {
		case pr.Unit != "":
			m[pr.Name] = value{Value: pr.Value, Unit: pr.Unit, N: pr.N}
		case layerUnit(pr.Name+".cpu_ns_per_rec") != "":
			m[pr.Name+".cpu_ns_per_rec"] = value{Value: pr.CPUNS, Unit: "ns/rec", N: pr.N}
		case layerUnit(pr.Name+".ns_per_rec") != "":
			m[pr.Name+".ns_per_rec"] = value{Value: pr.WallNS, Unit: "ns/rec", N: pr.N}
		}
	}
	if def, ok := p.done["trace.writer.default"]; ok {
		m["trace.writer.deflate.ns_per_rec"] = value{Value: def.WallNS - p.done["trace.writer.encode"].WallNS, Unit: "ns/rec", N: def.N}
	}

	// Counts from the last auto rep: what the job made, and how the shard
	// behaved while it ran.
	if reps := legs[auto.name]; len(reps) > 0 {
		last := reps[len(reps)-1].res
		for name, v := range last.counts {
			m[name] = value{Value: v, Unit: layerUnit(name), N: 1}
		}
		if last.sharded {
			m["analysis.shard.rebalances"] = value{Value: float64(last.rebalances), Unit: "count", N: 1}
			m["analysis.shard.max_mean_depth"] = value{Value: last.maxDepth, Unit: "count", N: 1}
		}
		if rows := last.counts["metricstore.rows"]; rows > 0 {
			m["metricstore.b_per_row"] = value{Value: float64(last.outBytes) / rows, Unit: "B/row", N: 1}
		}
		var fileMS []float64
		for _, s := range reps {
			fileMS = append(fileMS, s.res.opMS...)
		}
		if len(fileMS) > 0 {
			m["metricsvc.ingest_file_ms_p90"] = value{Value: quantile(fileMS, 0.9), Unit: "ms", N: len(fileMS)}
		}
	}
}

// printMetrics writes one line per metric: name, value, unit, sample count.
// The unattributed row is flagged when it exceeds 15 % of serialCPU.
func printMetrics(sb *strings.Builder, title string, defs []metricDef, vals map[string]value, serialCPU float64) {
	fmt.Fprintf(sb, "%s\n", title)
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			continue
		}
		flag := ""
		if d.Name == "unattributed.cpu_ns_per_rec" && serialCPU > 0 && math.Abs(v.Value) > 0.15*serialCPU {
			flag = "  (> 15 % of the serial leg)"
		}
		fmt.Fprintf(sb, "  %-44s %14.4f %-7s n=%d%s\n", d.Name, v.Value, v.Unit, v.N, flag)
	}
}
