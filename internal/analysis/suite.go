package analysis

import (
	"fmt"
	"time"

	"cstrace/internal/gamesim"
	"cstrace/internal/trace"
)

// SuiteConfig sizes the full collector suite.
type SuiteConfig struct {
	// Duration is the nominal trace length (used for padding and rates).
	Duration time.Duration
	// VarTimeBase is the base interval of the variance-time analysis
	// (paper: 10 ms).
	VarTimeBase time.Duration
	// VarTimeLevels is the number of dyadic aggregation levels.
	VarTimeLevels int
	// MaxPayload bounds the size histograms.
	MaxPayload int
	// Windows configures the small-scale interval plots to collect
	// (Figs 6-10). Nil selects the paper's set. Every interval must be a
	// multiple of VarTimeBase, as a minute must.
	Windows []WindowSpec
	// SortedInput is ignored: every Suite expects time-ordered records.
	//
	// Deprecated: a no-op. bench/ is the only reader; ROADMAP 1a deletes it.
	SortedInput bool
}

// WindowSpec asks for the first N bins at a given interval size.
type WindowSpec struct {
	Interval time.Duration
	N        int
}

// PaperWindows returns the interval windows shown in the paper's Figs 6-10.
func PaperWindows() []WindowSpec {
	return []WindowSpec{
		{Interval: 10 * time.Millisecond, N: 200}, // Figs 6, 7
		{Interval: 50 * time.Millisecond, N: 200}, // Fig 8
		{Interval: time.Second, N: 18000},         // Fig 9
		{Interval: 30 * time.Minute, N: 200},      // Fig 10
	}
}

// DefaultSuiteConfig returns the paper's analysis configuration for a trace
// of the given length.
func DefaultSuiteConfig(duration time.Duration) SuiteConfig {
	// Enough dyadic levels that the top block comfortably exceeds the map
	// rotation period but still leaves ≥2 blocks in the trace.
	levels := 1
	base := 10 * time.Millisecond
	for (int64(1)<<uint(levels))*int64(base) <= int64(duration)/2 && levels < 40 {
		levels++
	}
	return SuiteConfig{
		Duration:      duration,
		VarTimeBase:   base,
		VarTimeLevels: levels,
		MaxPayload:    1500,
		Windows:       PaperWindows(),
	}
}

// Suite runs every collector needed for the paper's tables and figures in a
// single streaming pass. A batch is transposed once into column form and
// each collector sweeps it in one call, so dispatch costs are paid per
// block, not per record — which matters at half a billion records.
//
// Records must arrive in non-decreasing time order: the generator, the
// scenario merge and the trace format all deliver them that way. A source
// that may disorder them (a live capture) puts a trace.SortBuffer in front.
// Fed late records, Gaps goes wrong, Tick counts them into the bin it is
// filling, VarTime clamps one past its 640 ms ring into its oldest open bin
// and a window drops what arrives after it latched done; the rest of the
// collectors are order-insensitive.
type Suite struct {
	cfg     SuiteConfig
	Count   Counters
	Sizes   *SizeDist
	Minutes *MinuteSeries
	Flows   *FlowBandwidth
	VT      *VarTime
	Windows []*IntervalWindow
	Players *PlayerSeries
	Kinds   *KindBreakdown
	Gaps    *Interarrival
	Tick    *Periodicity
	sweeps  []shardUnit       // units(), built once
	scratch trace.ColumnBlock // HandleBatch's transposed batch
	closed  bool
}

// NewSuite builds a suite.
func NewSuite(cfg SuiteConfig) (*Suite, error) {
	if cfg.MaxPayload <= 0 {
		cfg.MaxPayload = 1500
	}
	if cfg.VarTimeBase <= 0 {
		cfg.VarTimeBase = 10 * time.Millisecond
	}
	if cfg.VarTimeLevels <= 0 {
		cfg.VarTimeLevels = 20
	}
	if cfg.Windows == nil {
		cfg.Windows = PaperWindows()
	}
	// The clock unit bins the minute series and the windows at VarTimeBase.
	for _, w := range append([]WindowSpec{{Interval: time.Minute}}, cfg.Windows...) {
		if w.Interval <= 0 || w.Interval%cfg.VarTimeBase != 0 {
			return nil, fmt.Errorf("analysis: interval %v is not a multiple of VarTimeBase %v", w.Interval, cfg.VarTimeBase)
		}
	}
	vt, err := NewVarTime(cfg.VarTimeBase, cfg.VarTimeLevels)
	if err != nil {
		return nil, err
	}
	s := &Suite{
		cfg:     cfg,
		Sizes:   NewSizeDist(cfg.MaxPayload),
		Minutes: NewMinuteSeries(),
		Flows:   NewFlowBandwidth(),
		VT:      vt,
		Players: NewPlayerSeries(),
		Kinds:   NewKindBreakdown(),
		Gaps:    NewInterarrival(),
		Tick:    NewPeriodicity(trace.Out, cfg.VarTimeBase, 30),
	}
	for _, w := range cfg.Windows {
		s.Windows = append(s.Windows, NewIntervalWindow(w.Interval, w.N))
	}
	s.sweeps = s.units()
	return s, nil
}

// Handle implements trace.Handler: one record is a one-record batch.
func (s *Suite) Handle(r trace.Record) { s.HandleBatch([]trace.Record{r}) }

// HandleBatch implements trace.BatchHandler: the block is transposed once
// into the suite's scratch columns, which every collector sweeps in a tight
// loop instead of being re-entered once per record.
func (s *Suite) HandleBatch(rs []trace.Record) { s.sweep(refill(&s.scratch, rs)) }

// IngestBlock implements trace.BlockIngester: the block is swept as a
// batch, then recycled.
func (s *Suite) IngestBlock(blk *trace.Block) {
	s.HandleBatch(*blk)
	trace.FreeBlock(blk)
}

// IngestColumns implements trace.ColumnIngester: a column-decoded segment
// chunk is swept as it is, with no transpose, then recycled.
func (s *Suite) IngestColumns(cb *trace.ColumnBlock) {
	s.sweep(cb)
	trace.FreeColumnBlock(cb)
}

// sweep runs every collector unit over one column block.
func (s *Suite) sweep(cb *trace.ColumnBlock) {
	for _, u := range s.sweeps {
		u.sweep(cb)
	}
}

// Observe consumes session events (for the player series).
func (s *Suite) Observe(ev gamesim.SessionEvent) { s.Players.Observe(ev) }

// Close finalizes streaming state. Call once after the last record.
func (s *Suite) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.VT.Close(s.cfg.Duration)
	s.Minutes.PadTo(s.cfg.Duration)
	s.Players.Finish(s.cfg.Duration)
	s.Tick.Flush()
}

// Window returns the collected interval window matching the given interval,
// or nil.
func (s *Suite) Window(interval time.Duration) *IntervalWindow {
	for _, w := range s.Windows {
		if w.Interval() == interval {
			return w
		}
	}
	return nil
}

// TableI is the paper's general trace information summary.
type TableI struct {
	TotalTime          time.Duration
	MapsPlayed         int
	Established        int
	UniqueEstablishing int
	Attempted          int
	UniqueAttempting   int
	MeanSessionSec     float64
	MeanPlayers        float64
}

// TableIFromStats derives Table I from generator statistics.
func TableIFromStats(st gamesim.Stats) TableI {
	return TableI{
		TotalTime:          st.Duration,
		MapsPlayed:         st.MapsPlayed,
		Established:        st.Established,
		UniqueEstablishing: st.UniqueEstablishing,
		Attempted:          st.Attempts,
		UniqueAttempting:   st.UniqueAttempting,
		MeanSessionSec:     st.MeanSessionSec(),
		MeanPlayers:        st.MeanPlayers(),
	}
}

// PerSlotKbs returns the paper's headline per-slot figure: mean server
// bandwidth divided by the slot count (≈40 kbs for a 22-slot server, the
// modem saturation observation).
func PerSlotKbs(t TableII, slots int) float64 {
	if slots <= 0 {
		return 0
	}
	return t.MeanBW.Kbs() / float64(slots)
}

var (
	_ trace.Handler        = (*Suite)(nil)
	_ trace.BatchHandler   = (*Suite)(nil)
	_ trace.ColumnIngester = (*Suite)(nil)
)
