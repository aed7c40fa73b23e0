package analysis

import (
	"sort"
	"time"

	"cstrace/internal/trace"
)

// Summary is the serializable cross-run digest of a collector suite: the
// numbers worth keeping after the run is gone. It deliberately holds plain
// Go types only (int64/float64/string) so its JSON encoding is stable across
// builds, and it reads only close-independent collector state — Counters,
// the minute series, the interarrival buckets and the kind breakdown — so it
// can snapshot a live suite mid-stream without perturbing it. Collectors
// that require Close (variance-time, periodicity, player series) are
// excluded by design; they belong to one-shot reports, not the store.
type Summary struct {
	// Records is the total record (packet) count.
	Records int64
	// SpanSeconds is the analysis horizon the rates below are computed
	// over: the nominal duration when known, else the last timestamp seen.
	SpanSeconds float64

	PacketsIn   int64
	PacketsOut  int64
	AppBytesIn  int64
	AppBytesOut int64
	// WireBytes counts application payload plus per-packet framing
	// overhead, the paper's Table II accounting.
	WireBytes int64

	// Mean rates over SpanSeconds (paper units: decimal kilobits/second).
	MeanKbs    float64
	MeanKbsIn  float64
	MeanKbsOut float64
	MeanPPS    float64
	// Mean application payload per packet, per direction (Table III).
	MeanAppIn  float64
	MeanAppOut float64

	// MinuteKbs summarizes the per-minute total-bandwidth series: the
	// provisioning percentiles ("how bad does a busy minute get").
	MinuteKbs Percentiles

	// Interarrival p50 per direction in microseconds (upper edge of the
	// log2 bucket containing the median) and the coefficient of variation.
	IAInP50Micros  int64
	IAOutP50Micros int64
	IAInCV         float64
	IAOutCV        float64

	// Kinds is the traffic mix by packet kind, sorted by wire bytes
	// descending (the KindBreakdown row order).
	Kinds []KindStat
}

// Percentiles holds nearest-rank percentiles of a rate series.
type Percentiles struct {
	P50, P90, P95, P99, Max float64
}

// KindStat is one row of the serialized kind breakdown.
type KindStat struct {
	Kind      string
	Packets   int64
	AppBytes  int64
	WireBytes int64
}

// Summarize digests a suite into its serializable Summary. span is the
// nominal analysis horizon; zero or negative means "use the last timestamp
// seen" (exactly the Counters.TableII convention). The suite does not need
// to be closed: only close-independent collectors are read, and the suite
// remains usable for further records afterwards. For a given record stream
// in a given order the result is byte-for-byte deterministic, which is what
// lets the metrics store compare a daemon's incremental ingest against a
// one-shot analysis of the same records.
func Summarize(s *Suite, span time.Duration) Summary {
	return summarize(&s.Count, s.Minutes, s.Gaps, s.Kinds, span)
}

// summarize is the one Summary body: Summarize reads it off a full suite,
// SummarySuite.Summary off the four collectors it keeps.
func summarize(c *Counters, minutes *MinuteSeries, gaps *Interarrival, kinds *KindBreakdown, span time.Duration) Summary {
	if span <= 0 {
		span = c.End
	}
	sec := span.Seconds()
	sum := Summary{
		Records:     c.Packets(),
		SpanSeconds: sec,
		PacketsIn:   c.PacketsIn,
		PacketsOut:  c.PacketsOut,
		AppBytesIn:  c.AppBytesIn,
		AppBytesOut: c.AppBytesOut,
		WireBytes:   c.WireBytes(),
	}
	if sec > 0 {
		sum.MeanKbs = float64(8*c.WireBytes()) / sec / 1e3
		sum.MeanKbsIn = float64(8*c.WireBytesIn()) / sec / 1e3
		sum.MeanKbsOut = float64(8*c.WireBytesOut()) / sec / 1e3
		sum.MeanPPS = float64(c.Packets()) / sec
	}
	if c.PacketsIn > 0 {
		sum.MeanAppIn = float64(c.AppBytesIn) / float64(c.PacketsIn)
	}
	if c.PacketsOut > 0 {
		sum.MeanAppOut = float64(c.AppBytesOut) / float64(c.PacketsOut)
	}
	if minutes != nil {
		sum.MinuteKbs = SeriesPercentiles(minutes.KbsTotal())
	}
	if gaps != nil {
		sum.IAInP50Micros = gaps.Quantile(trace.In, 0.5).Microseconds()
		sum.IAOutP50Micros = gaps.Quantile(trace.Out, 0.5).Microseconds()
		sum.IAInCV = gaps.CV(trace.In)
		sum.IAOutCV = gaps.CV(trace.Out)
	}
	if kinds != nil {
		for _, row := range kinds.Rows() {
			sum.Kinds = append(sum.Kinds, KindStat{
				Kind:      row.Kind.String(),
				Packets:   row.Packets,
				AppBytes:  row.AppBytes,
				WireBytes: row.WireBytes,
			})
		}
	}
	return sum
}

// SummarySuite is exactly the collectors a Summary reads — Counters, the
// minute series, Interarrival and KindBreakdown — and nothing else: the
// metrics store's analysis, for a per-file ingest and the daemon's
// cumulative state alike. Each block gets SlimSuite's one-minute clock
// pass, which feeds Counters and the minute series, then the interarrival
// and kind column sweeps. Records must arrive in
// non-decreasing time order, as for a Suite; fed the same stream, Summary
// equals Summarize over a full Suite.
type SummarySuite struct {
	slim  *SlimSuite
	gaps  *Interarrival
	kinds *KindBreakdown
}

// NewSummarySuite builds an empty summary suite.
func NewSummarySuite() *SummarySuite {
	return &SummarySuite{slim: NewSlimSuite(0), gaps: NewInterarrival(), kinds: NewKindBreakdown()}
}

// Handle implements trace.Handler: one record is a one-record batch.
func (s *SummarySuite) Handle(r trace.Record) { s.HandleBatch([]trace.Record{r}) }

// HandleBatch implements trace.BatchHandler: the batch is transposed once
// into scratch columns and swept.
func (s *SummarySuite) HandleBatch(rs []trace.Record) {
	s.HandleColumns(refill(&s.slim.scratch, rs))
}

// IngestBlock implements trace.BlockIngester: the block is swept as a
// batch, then recycled.
func (s *SummarySuite) IngestBlock(blk *trace.Block) {
	s.HandleBatch(*blk)
	trace.FreeBlock(blk)
}

// IngestColumns implements trace.ColumnIngester: a column-decoded segment
// chunk is swept as it is, then recycled.
func (s *SummarySuite) IngestColumns(cb *trace.ColumnBlock) {
	s.HandleColumns(cb)
	trace.FreeColumnBlock(cb)
}

// HandleColumns sweeps a column block the suite only borrows: the caller
// keeps it, and may rewrite or recycle it once the call returns.
func (s *SummarySuite) HandleColumns(cb *trace.ColumnBlock) {
	s.slim.sweep(cb)
	s.gaps.HandleColumns(cb)
	s.kinds.HandleColumns(cb)
}

// Summary digests what the suite has seen so far, exactly as Summarize
// does a full Suite fed the same records; span has the same meaning. The
// suite needs no Close and stays usable afterwards.
func (s *SummarySuite) Summary(span time.Duration) Summary {
	return summarize(&s.slim.Count, s.slim.Minutes, s.gaps, s.kinds, span)
}

var (
	_ trace.BatchHandler   = (*SummarySuite)(nil)
	_ trace.BlockIngester  = (*SummarySuite)(nil)
	_ trace.ColumnIngester = (*SummarySuite)(nil)
)

// SeriesPercentiles computes nearest-rank percentiles over a rate series
// (typically per-minute kbs). An empty series yields zeros.
func SeriesPercentiles(series []float64) Percentiles {
	if len(series) == 0 {
		return Percentiles{}
	}
	sorted := append([]float64(nil), series...)
	sort.Float64s(sorted)
	return Percentiles{
		P50: nearestRank(sorted, 0.50),
		P90: nearestRank(sorted, 0.90),
		P95: nearestRank(sorted, 0.95),
		P99: nearestRank(sorted, 0.99),
		Max: sorted[len(sorted)-1],
	}
}

// nearestRank returns the nearest-rank percentile of a non-empty
// ascending-sorted series, the same convention the fleet report uses.
func nearestRank(sorted []float64, p float64) float64 {
	idx := int(p*float64(len(sorted))+0.5) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}
