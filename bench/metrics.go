package main

import (
	"math"

	"cstrace/internal/stats"
)

// metricDef names one metric of the benchmark. The two tables below are the
// program's side of BENCHMARK.json; TestBenchmarkJSONMatchesRegistry keeps
// the two from drifting.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the pipeline sees, measured with
// tracing off as the median over the measured reps. Bound is the share of
// the parent's median a metric may worsen by before it is a regression.
// fail_ratio is not in the table: it is always 0 on a healthy run, so it
// travels as the attempted/failed pair of every result instead.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"mrec_s", "Mrec/s", higher, 0.25},
	{"cpu_s_per_mrec", "s/Mrec", lower, 0.25},
	{"alloc_b_per_rec", "B/rec", lower, 0.25},
	{"b_per_rec", "B/rec", lower, 0.08},
	{"file_ms_p50", "ms", lower, 0.25},
}

// spanMetric derives one per-layer metric from the traced run's spans: the
// time the named span covers, or its self time (cover minus children).
// Every one is emitted twice, <layer>.<key> from the auto leg and
// <layer>.serial.<key> from the all-serial leg.
type spanMetric struct {
	layer, key, span string
	self             bool
}

var spanMetrics = []spanMetric{
	{"gamesim", "run_s", "gamesim.run", false},
	{"gamesim", "self_s", "gamesim.run", true},
	{"scenario", "run_s", "scenario.run", false},
	{"trace.writer", "sink_s", "trace.writer.sink", false},
	{"trace.writer", "flush_s", "trace.writer.flush", false},
	{"trace.reader", "read_s", "trace.reader.read", false},
	{"trace.reader", "self_s", "trace.reader.read", true},
	{"analysis", "sink_s", "analysis.sink", false},
	{"analysis", "drain_s", "analysis.drain", false},
	{"report", "write_s", "report.write", false},
	{"metricsvc", "sweep_s", "metricsvc.sweep", false},
	{"metricsvc", "close_s", "metricsvc.close", false},
}

func (m spanMetric) name(leg string) string {
	if leg == serial.name {
		return m.layer + ".serial." + m.key
	}
	return m.layer + "." + m.key
}

// sweeps are the collectors probed one at a time on Record blocks.
var sweeps = []string{"counters", "sizedist", "minutes", "window10ms", "interarrival", "kinds", "periodicity", "flows", "vartime"}

// perLayer is built once from the fixed rows, the span table and the sweeps.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	ns := func(name string) metricDef { return metricDef{Name: name, Unit: "ns/rec", Better: lower} }
	defs := []metricDef{
		{Name: "trace.overhead_pct", Unit: "%", Better: lower},
		{Name: "sched.speedup", Unit: "ratio", Better: higher},
		{Name: "process.peak_rss_mb", Unit: "MB", Better: lower},
		{Name: "runtime.gc_cpu_pct", Unit: "%", Better: lower},
		{Name: "unattributed.cpu_ns_per_rec", Unit: "ns/rec", Better: lower},
	}
	for _, leg := range []string{auto.name, serial.name} {
		for _, m := range spanMetrics {
			defs = append(defs, metricDef{Name: m.name(leg), Unit: "s", Better: lower})
		}
	}
	defs = append(defs,
		ns("gamesim.alone.ns_per_rec"),
		ns("gamesim.alone.auto.ns_per_rec"),
		ns("gamesim.fleet.alone.cpu_ns_per_rec"),
		ns("scenario.cpu_ns_per_rec"),
		ns("scenario.merge_residual.cpu_ns_per_rec"),
		ns("trace.writer.encode.ns_per_rec"),
		ns("trace.writer.deflate.ns_per_rec"),
		ns("trace.writer.workers.ns_per_rec"),
		ns("trace.writer.sortwindow.ns_per_rec"),
		ns("trace.writer.capture.ns_per_rec"),
		metricDef{Name: "trace.writer.fsync_ms_p50", Unit: "ms", Better: lower},
		metricDef{Name: "trace.writer.fsync_ms_p90", Unit: "ms", Better: lower},
		metricDef{Name: "trace.writer.segments", Unit: "count", Better: lower},
		metricDef{Name: "trace.writer.bytes", Unit: "B", Better: lower},
		metricDef{Name: "trace.reader.index_ms", Unit: "ms", Better: lower},
		ns("trace.reader.decode.cols.ns_per_rec"),
		ns("trace.reader.decode.recs.ns_per_rec"),
		ns("trace.reader.decode.auto.ns_per_rec"),
		ns("trace.reader.prefetch.ns_per_rec"),
		metricDef{Name: "trace.reader.range_ms", Unit: "ms", Better: lower},
		ns("trace.reader.v2.ns_per_rec"),
		ns("trace.reader.v3.ns_per_rec"),
		metricDef{Name: "trace.recover.sealed.mb_s", Unit: "MB/s", Better: higher},
		metricDef{Name: "trace.recover.torn.mb_s", Unit: "MB/s", Better: higher},
		ns("analysis.suite.alone.ns_per_rec"),
		ns("analysis.shard.alone.ns_per_rec"),
		ns("analysis.slim.alone.ns_per_rec"),
		metricDef{Name: "analysis.shard.rebalances", Unit: "count", Better: lower},
		metricDef{Name: "analysis.shard.max_mean_depth", Unit: "count", Better: lower},
	)
	for _, s := range sweeps {
		defs = append(defs, ns("analysis.sweep."+s+".ns_per_rec"))
	}
	defs = append(defs,
		ns("analysis.sweep.sizedist.cols.ns_per_rec"),
		ns("analysis.sweep.interarrival.cols.ns_per_rec"),
		metricDef{Name: "metricstore.open_ms", Unit: "ms", Better: lower},
		metricDef{Name: "metricstore.hash.mb_s", Unit: "MB/s", Better: higher},
		metricDef{Name: "metricstore.append_ms_p50", Unit: "ms", Better: lower},
		metricDef{Name: "metricstore.append_ms_p90", Unit: "ms", Better: lower},
		ns("metricstore.ingest_file.ns_per_rec"),
		metricDef{Name: "metricstore.dedupe_ms", Unit: "ms", Better: lower},
		metricDef{Name: "metricstore.rows", Unit: "count", Better: lower},
		metricDef{Name: "metricstore.b_per_row", Unit: "B/row", Better: lower},
		metricDef{Name: "metricsvc.ingest_file_ms_p90", Unit: "ms", Better: lower},
		ns("metricsvc.ingest_file.ns_per_rec"),
		metricDef{Name: "metricsvc.windows", Unit: "count", Better: lower},
	)
	return defs
}

// layerUnit looks a per-layer metric's unit up in the registry.
func layerUnit(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// value is one reported metric. Samples are the per-rep readings the value
// is the median of; N is how many there were.
type value struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is stats.Quantile, reading 0 for an empty slice so that a metric
// without samples stays a finite number in the JSON.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

// medianSpread estimates how far a run's median could have landed elsewhere,
// as a share of it: the interquartile range of the per-rep samples over √n
// (the standard error of a median is about 0.93·IQR/√n for bell-shaped
// noise). It is the noise figure -compare weighs a difference against. Fewer
// than four samples have no quartiles to speak of and report 0.
func medianSpread(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((quantile(xs, 0.75)-quantile(xs, 0.25))/m) / math.Sqrt(float64(len(xs)))
}

// sampled wraps per-rep samples into a value holding their median.
func sampled(unit string, xs []float64) value {
	return value{Value: median(xs), Unit: unit, N: len(xs), Samples: xs}
}
