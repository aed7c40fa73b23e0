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
	"sync"
	"time"

	"cstrace/internal/analysis"
	"cstrace/internal/scenario"
	"cstrace/internal/sched"
	"cstrace/internal/trace"
)

// hashBuf is HashReader's read buffer.
type hashBuf [32 << 10]byte

// hashBufs keeps HashReader's read buffers between calls. io.Copy from an
// *os.File would make a fresh 32 KiB buffer for every file hashed.
var hashBufs = sync.Pool{New: func() any { return new(hashBuf) }}

// HashReader content-addresses a byte stream: hex SHA-256 plus length.
func HashReader(r io.Reader) (string, int64, error) {
	buf := hashBufs.Get().(*hashBuf)
	defer hashBufs.Put(buf)
	h := sha256.New()
	var n int64
	for {
		m, err := r.Read(buf[:])
		h.Write(buf[:m])
		n += int64(m)
		if err == io.EOF {
			return hex.EncodeToString(h.Sum(nil)), n, nil
		}
		if err != nil {
			return "", 0, err
		}
	}
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
	// Parallelism sizes the segment decode workers, as cstrace's
	// -parallel flag does: n workers (two at the least), sched.Auto a
	// grant of the whole worker budget. The analysis itself — the four
	// collectors a Summary reads — runs on the in-order delivery path; an
	// Extra tap may run stages of its own beside it.
	Parallelism int
	// Source overrides the recorded source (defaults to the file path);
	// Label is the operator tag.
	Source string
	Label  string
	// Now overrides the recorded ingest time (tests); zero means now.
	Now time.Time
	// Hash and Size, when Hash is set, are the file's content address and
	// length as HashFile reports them, computed ahead by the caller (the
	// daemon hashes the next spool file while this one is read). With Hash
	// empty the file is hashed here.
	Hash string
	Size int64
	// Extra, when non-nil, receives the decoded record stream in order
	// after the summary suite has swept it — the daemon feeds its
	// cumulative collectors and rolling window here so one decode pass
	// serves both the per-file row and the service-wide state.
	Extra Tap
}

// Tap takes an ingest's decoded blocks once the per-file summary suite is
// done with them.
type Tap interface {
	// IngestColumns takes ownership of one swept block, in stream order,
	// on the read engine's delivery path: the tap must eventually free it
	// with trace.FreeColumnBlock, and may rewrite it first. A segment that
	// decodes as records reaches the tap transposed.
	IngestColumns(cb *trace.ColumnBlock)
	// Join returns once the tap is done with every block handed to it.
	// IngestTraceFile calls it when the read ends, whatever its outcome,
	// and before it appends the run row.
	Join()
}

// tapped is the read handler when a Tap rides along: the summary suite
// borrows each block, then the tap takes it.
type tapped struct {
	sum *analysis.SummarySuite
	tap Tap
}

func (t tapped) Handle(r trace.Record) { t.HandleBatch([]trace.Record{r}) }

func (t tapped) HandleBatch(rs []trace.Record) {
	if len(rs) == 0 {
		return
	}
	cb := trace.NewColumnBlock()
	cb.AppendFrom(rs)
	t.IngestColumns(cb)
}

func (t tapped) IngestBlock(blk *trace.Block) {
	t.HandleBatch(*blk)
	trace.FreeBlock(blk)
}

func (t tapped) IngestColumns(cb *trace.ColumnBlock) {
	t.sum.HandleColumns(cb)
	t.tap.IngestColumns(cb)
}

// IngestTraceFile analyzes one trace file into a Summary — through an
// analysis.SummarySuite, which computes exactly what the row stores — and
// records the result. The file's SHA-256 is its content address: if
// the store already holds it, the file is not even opened for analysis and
// the existing row is returned with added=false.
//
// Damaged captures still ingest: the reader runs in Salvage mode, so a
// crashed v2+ capture is recovered via the rebuilt segment index and a
// damaged v1 stream degrades to the records-before-error serial scan. In
// both cases the degradation note lands in the run row's Warning. A damaged
// file with no intact record stores no row: the error wraps trace.ErrCorrupt.
func IngestTraceFile(st *Store, path string, opts IngestOptions) (*Run, bool, error) {
	hashHex, size := opts.Hash, opts.Size
	if hashHex == "" {
		var err error
		if hashHex, size, err = HashFile(path); err != nil {
			return nil, false, err
		}
	}
	if existing := st.ByHash(hashHex); existing != nil {
		return existing, false, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()

	sum := analysis.NewSummarySuite()
	rd := trace.NewReader(f)
	rd.Salvage = true
	var h trace.Handler = sum
	if opts.Extra != nil {
		h = tapped{sum, opts.Extra}
	}
	decodePar := opts.Parallelism
	if opts.Parallelism == sched.Auto {
		lease := sched.Default().Acquire(sched.Default().Total())
		decodePar = lease.Workers()
		defer lease.Release()
	}
	n, rerr := rd.ReadAllSharded(h, decodePar)
	if opts.Extra != nil {
		opts.Extra.Join()
	}
	warning := rd.Warning()
	damaged := rerr != nil && (errors.Is(rerr, trace.ErrCorrupt) || errors.Is(rerr, io.ErrUnexpectedEOF))
	if rerr != nil && !damaged {
		return nil, false, fmt.Errorf("metricstore: analyzing %s: %w", path, rerr)
	}
	if n == 0 && (damaged || warning != "") {
		// Nothing survived the damage. A row would record an empty run
		// for good, and the whole file, arriving later, would get a
		// second row under its own hash.
		cause := warning
		if rerr != nil {
			cause = rerr.Error()
		}
		return nil, false, fmt.Errorf("metricstore: %s: %w: no intact records to salvage (%s)", path, trace.ErrCorrupt, cause)
	}
	if damaged {
		// Salvage covers indexed traces; a damaged v1 stream (or damage
		// past what salvage could repair) surfaces here. Keep the records
		// scanned before the damage — that is the whole point of ingesting
		// crashed captures.
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
		Summary:      sum.Summary(0),
	}
	return st.Ingest(run)
}

// StreamHasher content-addresses a live record stream (no file required):
// a trace.Handler hashing each record's canonical 16-byte encoding in
// stream order. Tee it alongside the real consumer, then Sum.
type StreamHasher struct {
	h   hash.Hash
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
}

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
