package metricstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"sort"
	"time"

	"cstrace/internal/analysis"
	"cstrace/internal/scenario"
	"cstrace/internal/sched"
	"cstrace/internal/trace"
)

// HashReader content-addresses a byte stream: hex SHA-256 plus length.
func HashReader(r io.Reader) (string, int64, error) {
	h := sha256.New()
	n, err := io.Copy(h, r)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// HashFile content-addresses a file's bytes.
func HashFile(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	return HashReader(f)
}

// IngestOptions tunes a trace-file ingest.
type IngestOptions struct {
	// Parallelism is the collector/decode parallelism, exactly as
	// cstrace's -parallel flag: 0/1 serial, n>1 sharded, sched.Auto
	// budget-granted.
	Parallelism int
	// Source overrides the recorded source (defaults to the file path);
	// Label is the operator tag.
	Source string
	Label  string
	// Now overrides the recorded ingest time (tests); zero means now.
	Now time.Time
	// Extra, when non-nil, receives the decoded record stream in order
	// alongside the analysis suite — the daemon tees its cumulative
	// collectors and rolling window here so one decode pass serves both
	// the per-file row and the service-wide state. The tee forgoes the
	// zero-copy block hand-off (the fan-out is not a BlockIngester), so
	// leave it nil for plain one-shot ingests.
	Extra trace.Handler
}

// IngestTraceFile analyzes one trace file through the sharded-suite path
// and records the result. The file's SHA-256 is its content address: if
// the store already holds it, the file is not even opened for analysis and
// the existing row is returned with added=false.
//
// Damaged captures still ingest: the reader runs in Salvage mode, so a
// crashed v2+ capture is recovered via the rebuilt segment index and a
// damaged v1 stream degrades to the records-before-error serial scan. In
// both cases the degradation note lands in the run row's Warning.
func IngestTraceFile(st *Store, path string, opts IngestOptions) (*Run, bool, error) {
	hashHex, size, err := HashFile(path)
	if err != nil {
		return nil, false, err
	}
	if existing := st.ByHash(hashHex); existing != nil {
		return existing, false, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()

	suite, err := analysis.NewSuite(analysis.SuiteConfig{})
	if err != nil {
		return nil, false, err
	}
	rd := trace.NewReader(f)
	rd.Salvage = true
	sink, closeSink := suite.Sink(opts.Parallelism)
	h := sink
	if opts.Extra != nil {
		h = trace.Tee(sink, opts.Extra)
	}
	decodePar := opts.Parallelism
	if opts.Parallelism == sched.Auto {
		lease := sched.Default().Acquire(sched.Default().Total())
		decodePar = lease.Workers()
		defer lease.Release()
	}
	n, rerr := rd.ReadAllSharded(h, decodePar)
	closeSink()
	warning := rd.Warning()
	if rerr != nil {
		// Salvage covers indexed traces; a damaged v1 stream (or damage
		// past what salvage could repair) surfaces here. Keep the records
		// scanned before the damage — that is the whole point of ingesting
		// crashed captures — but only when there are any.
		if n == 0 || !(errors.Is(rerr, trace.ErrCorrupt) || errors.Is(rerr, io.ErrUnexpectedEOF)) {
			return nil, false, fmt.Errorf("metricstore: analyzing %s: %w", path, rerr)
		}
		if warning == "" {
			warning = fmt.Sprintf("scan stopped after %d records: %v", n, rerr)
		} else {
			warning = fmt.Sprintf("%s; scan stopped after %d records: %v", warning, n, rerr)
		}
	}
	source := opts.Source
	if source == "" {
		source = path
	}
	run := &Run{
		Hash:         hashHex,
		Kind:         KindTrace,
		Source:       source,
		Label:        opts.Label,
		IngestedAt:   opts.Now,
		TraceVersion: rd.Version(),
		FileBytes:    size,
		Records:      n,
		Warning:      warning,
		Summary:      analysis.Summarize(suite, 0),
	}
	return st.Ingest(run)
}

// StreamHasher content-addresses a live record stream (no file required):
// a trace.Handler hashing each record's canonical 16-byte encoding in
// stream order. Tee it alongside the real consumer, then Sum.
type StreamHasher struct {
	h   hash.Hash
	n   int64
	buf []byte
}

// NewStreamHasher creates a stream hasher.
func NewStreamHasher() *StreamHasher {
	return &StreamHasher{h: sha256.New()}
}

// Handle implements trace.Handler.
func (sh *StreamHasher) Handle(r trace.Record) { sh.HandleBatch([]trace.Record{r}) }

// HandleBatch implements trace.BatchHandler.
func (sh *StreamHasher) HandleBatch(rs []trace.Record) {
	for _, r := range rs {
		var rec [16]byte
		binary.LittleEndian.PutUint64(rec[0:], uint64(r.T))
		rec[8] = byte(r.Dir)
		rec[9] = byte(r.Kind)
		binary.LittleEndian.PutUint32(rec[10:], r.Client)
		binary.LittleEndian.PutUint16(rec[14:], r.App)
		sh.buf = append(sh.buf, rec[:]...)
		if len(sh.buf) >= 1<<14 {
			sh.h.Write(sh.buf)
			sh.buf = sh.buf[:0]
		}
	}
	sh.n += int64(len(rs))
}

// Records returns how many records were hashed.
func (sh *StreamHasher) Records() int64 { return sh.n }

// Sum returns the hex digest of everything hashed so far.
func (sh *StreamHasher) Sum() string {
	if len(sh.buf) > 0 {
		sh.h.Write(sh.buf)
		sh.buf = sh.buf[:0]
	}
	// Sum does not consume the hash state, so Sum may be called again
	// after more records.
	return hex.EncodeToString(sh.h.Sum(nil))
}

// ScenarioInfo describes a completed fleet scenario for RecordScenario.
type ScenarioInfo struct {
	// Hash is the run's content address — typically a StreamHasher's Sum
	// over the merged fleet stream.
	Hash   string
	Source string
	Label  string
	// Horizon is the fleet trace length (the Summary's rate denominator).
	Horizon time.Duration
	// Suite is the closed aggregate suite over the merged stream.
	Suite *analysis.Suite
	// Servers carries the per-server results.
	Servers []scenario.ServerResult
	// Now overrides the recorded ingest time (tests); zero means now.
	Now time.Time
}

// RecordScenario stores a scenario run: the aggregate summary plus
// per-server and per-slot-class provisioning metrics. Content addressing
// works as for files — re-recording an identical run (same seed, same
// spec) dedupes to the existing row.
func RecordScenario(st *Store, info ScenarioInfo) (*Run, bool, error) {
	if info.Suite == nil {
		return nil, false, errors.New("metricstore: RecordScenario needs the aggregate suite")
	}
	sum := analysis.Summarize(info.Suite, info.Horizon)
	run := &Run{
		Hash:       info.Hash,
		Kind:       KindScenario,
		Source:     info.Source,
		Label:      info.Label,
		IngestedAt: info.Now,
		Records:    sum.Records,
		Summary:    sum,
	}
	classes := make(map[int]*SlotClassMetrics)
	for _, sr := range info.Servers {
		st := sr.Stats
		slots := sr.Game.Slots
		kbs := sr.MeanKbs()
		perSlot := 0.0
		if slots > 0 {
			perSlot = kbs / float64(slots)
		}
		run.Servers = append(run.Servers, ServerMetrics{
			Name:        sr.Name,
			Slots:       slots,
			TickMillis:  float64(sr.Game.TickInterval) / 1e6,
			Packets:     st.PacketsIn + st.PacketsOut,
			WireBytes:   sr.WireBytes(),
			MeanKbs:     kbs,
			KbsPerSlot:  perSlot,
			Established: st.Established,
			MeanPlayers: st.MeanPlayers(),
		})
		c := classes[slots]
		if c == nil {
			c = &SlotClassMetrics{Slots: slots}
			classes[slots] = c
		}
		c.Servers++
		c.Packets += st.PacketsIn + st.PacketsOut
		c.MeanKbs += kbs
	}
	slotKeys := make([]int, 0, len(classes))
	for k := range classes {
		slotKeys = append(slotKeys, k)
	}
	sort.Ints(slotKeys)
	for _, k := range slotKeys {
		c := classes[k]
		c.MeanKbs /= float64(c.Servers)
		if c.Slots > 0 {
			c.KbsPerSlot = c.MeanKbs / float64(c.Slots)
		}
		run.SlotClasses = append(run.SlotClasses, *c)
	}
	return st.Ingest(run)
}

// RecordWindow stores one completed daemon window. The window's own
// content hash is the dedupe key, so replaying a spool through a fresh
// daemon against the same store re-creates no rows.
func RecordWindow(st *Store, w analysis.WindowStats, source, label string, now time.Time) (*Run, bool, error) {
	span := (w.End - w.Start).Seconds()
	sum := analysis.Summary{
		Records:     w.Records,
		SpanSeconds: span,
		PacketsIn:   w.PacketsIn,
		PacketsOut:  w.PacketsOut,
		AppBytesIn:  w.AppBytesIn,
		AppBytesOut: w.AppBytesOut,
		WireBytes:   w.WireBytes,
		MeanKbs:     w.MeanKbs,
		MeanPPS:     w.MeanPPS,
	}
	if w.PacketsIn > 0 {
		sum.MeanAppIn = float64(w.AppBytesIn) / float64(w.PacketsIn)
	}
	if w.PacketsOut > 0 {
		sum.MeanAppOut = float64(w.AppBytesOut) / float64(w.PacketsOut)
	}
	win := w
	run := &Run{
		Hash:       w.Hash,
		Kind:       KindWindow,
		Source:     source,
		Label:      label,
		IngestedAt: now,
		Records:    w.Records,
		Summary:    sum,
		Window:     &win,
	}
	return st.Ingest(run)
}
