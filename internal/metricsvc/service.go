// Package metricsvc is the continuous-analysis daemon behind
// `cstrace -mode metricsd`: it watches a spool directory
// for trace files, ingests each new file through the metricstore path
// (content-addressed, so re-delivery is free), and threads every record
// through service-wide state — a cumulative analysis.SummarySuite (the
// four collectors a stored Summary reads: counters, the minute series,
// interarrivals and the kind mix) and a rolling trace-time window —
// recording completed windows and, on shutdown, a whole-service run into
// the same store the per-file rows land in. While a file is read, the
// rolling window and the cumulative suite run as two ordered stages on
// goroutines of their own, beside the segment decode workers, and a
// lookahead goroutine hashes the next spool file; every one of them has
// ended when the call that started it returns.
//
// Files are stitched onto one service-wide timeline by rebasing: each
// file's records are shifted by the running offset, and the offset then
// advances by that file's span. Feeding the files of a spool through the
// engine is therefore equivalent — collector state and all — to analyzing
// their concatenation in one shot, which is what the golden-equality test
// in this package proves against cstrace's AnalyzeTrace.
//
// Spool files must arrive whole, by rename: write "name.cst.part" (any
// other extension) and rename it to "name.cst" once complete. The sweep
// reads a *.cst file as soon as it sees the name, and a file that does not
// parse as a trace is logged and skipped for good.
package metricsvc

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cstrace/internal/analysis"
	"cstrace/internal/metricstore"
	"cstrace/internal/trace"
)

// TraceSuffix is the spool file extension the sweep considers; anything
// else in the directory (reports, partial uploads under another name) is
// ignored.
const TraceSuffix = ".cst"

// Config describes a service engine.
type Config struct {
	// Store receives per-file, per-window and service rows. Required.
	Store *metricstore.Store
	// Spool is the directory swept for *.cst files. Required for Run;
	// IngestFile works without it.
	Spool string
	// Poll is the sweep cadence (default 2s). Reports are emitted after
	// every sweep that ingested something, and at ReportEvery otherwise.
	Poll time.Duration
	// ReportEvery is the rolling-report cadence (default 30s; <0 disables
	// idle reports).
	ReportEvery time.Duration
	// Window is the rolling trace-time window width (default 1m).
	Window time.Duration
	// Parallelism sizes each file's segment decode workers, as
	// metricstore.IngestOptions.Parallelism does: n workers (two at the
	// least), sched.Auto a grant of the whole worker budget. The two
	// stages and the lookahead hash run beside them, whatever it is.
	Parallelism int
	// Label tags every row this engine records.
	Label string
	// Report, when non-nil, receives one k=v line per report tick.
	Report io.Writer
	// Logf, when non-nil, receives progress lines (one per ingested file).
	Logf func(format string, args ...any)
	// Now overrides the clock (tests); nil means time.Now. Window rows
	// read it on the window stage's goroutine, but no two engine
	// goroutines read it at once.
	Now func() time.Time
}

// Engine is the continuous-analysis service. Call IngestFile/Sweep/Run/
// Close from one goroutine only. Within a call it runs goroutines of its
// own (the two stages while a file is read, the lookahead hash during a
// Sweep); between calls it holds none.
type Engine struct {
	cfg    Config
	sum    *analysis.SummarySuite
	win    *analysis.RollingWindow
	stages stages

	offset     time.Duration // service-timeline rebase for the next file
	fileHashes []string      // content hash of every spool file seen, in order
	seen       map[string]bool

	files, dedups, records, windows int64
	lastWin                         *analysis.WindowStats
	emitErr                         error
	closed                          bool
	serviceRun                      *metricstore.Run
}

// New builds an engine. Close must be called to flush the partial window
// and record the service row.
func New(cfg Config) (*Engine, error) {
	if cfg.Store == nil {
		return nil, errors.New("metricsvc: Config.Store is required")
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 2 * time.Second
	}
	if cfg.ReportEvery == 0 {
		cfg.ReportEvery = 30 * time.Second
	}
	if cfg.Window <= 0 {
		cfg.Window = time.Minute
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	e := &Engine{cfg: cfg, sum: analysis.NewSummarySuite(), seen: make(map[string]bool)}
	e.win = analysis.NewRollingWindow(cfg.Window, e.recordWindow)
	// At most stageDepth+2 hand-offs are out at once: the slower stage's
	// queue, the block it sweeps and the one being sent to it.
	e.stages = stages{e: e, free: make(chan *lent, stageDepth+2)}
	return e, nil
}

func (e *Engine) recordWindow(w analysis.WindowStats) {
	e.windows++
	cp := w
	e.lastWin = &cp
	_, _, err := metricstore.RecordWindow(e.cfg.Store, w,
		"service:"+e.cfg.Spool, e.cfg.Label, e.cfg.Now().UTC())
	if err != nil && e.emitErr == nil {
		e.emitErr = err
	}
}

// stages is the engine's metricstore.Tap: it runs the service-wide state
// beside each file's read. On the read engine's delivery path, once the
// per-file suite has swept a block, IngestColumns rebases the block's T
// column in place onto the service timeline (end tracks the file's own
// span, so the engine can advance the offset afterwards) and lends it to
// two goroutines, one running the rolling window and one the cumulative
// summary suite; whichever is done with the block last frees it. The
// goroutines start with a file's first block and Join ends them, so the
// engine holds none between calls.
type stages struct {
	e        *Engine
	end      time.Duration
	win, sum chan *lent // nil while no stage runs
	wg       sync.WaitGroup
	free     chan *lent // spent hand-offs, kept for reuse
}

// stageDepth is how many blocks may wait at each stage. A few blocks let
// the decode and the other stage run on while the window stage waits out a
// row's fsync; BenchmarkEngineSweep on 2 vCPU read 39, 37.7 and 36.5 ns/rec
// at depths 2, 8 and 32.
const stageDepth = 8

// lent is one block on its way through both stages: refs counts the stages
// not yet done with it.
type lent struct {
	cb   *trace.ColumnBlock
	refs atomic.Int32
}

func (s *stages) IngestColumns(cb *trace.ColumnBlock) {
	if s.win == nil {
		s.win, s.sum = make(chan *lent, stageDepth), make(chan *lent, stageDepth)
		s.wg.Add(2)
		go s.run(s.win, s.e.win.HandleColumns)
		go s.run(s.sum, s.e.sum.HandleColumns)
	}
	off := s.e.offset
	for i, t := range cb.T {
		s.end = max(s.end, t)
		cb.T[i] = t + off
	}
	var l *lent
	select {
	case l = <-s.free:
	default:
		l = new(lent)
	}
	l.cb = cb
	l.refs.Store(2)
	s.win <- l
	s.sum <- l
}

// run is one stage: it sweeps every block it is lent, in stream order.
func (s *stages) run(in <-chan *lent, sweep func(*trace.ColumnBlock)) {
	defer s.wg.Done()
	for l := range in {
		sweep(l.cb)
		if l.refs.Add(-1) == 0 {
			trace.FreeColumnBlock(l.cb)
			l.cb = nil
			select {
			case s.free <- l:
			default:
			}
		}
	}
}

// Join waits for both stages to finish the file's blocks and ends them.
func (s *stages) Join() {
	if s.win == nil {
		return
	}
	close(s.win)
	close(s.sum)
	s.wg.Wait()
	s.win, s.sum = nil, nil
}

// IngestFile feeds one trace file through the service: the per-file run
// row is recorded exactly as a one-shot ingest would (salvage mode, same
// Summary), and — when the file is new to the store — its records also
// flow, rebased onto the service timeline, into the cumulative summary
// suite and the rolling window. A file the store already holds is
// deduplicated without being opened; it still counts toward the service
// row's content hash, so replaying a whole spool against a warm store
// changes nothing.
func (e *Engine) IngestFile(path string) (*metricstore.Run, bool, error) {
	return e.ingest(path, digest{})
}

// ingest is IngestFile with the file's content address, when d holds one,
// computed ahead.
func (e *Engine) ingest(path string, d digest) (*metricstore.Run, bool, error) {
	if e.closed {
		return nil, false, errors.New("metricsvc: engine is closed")
	}
	e.stages.end = 0
	run, added, err := metricstore.IngestTraceFile(e.cfg.Store, path, metricstore.IngestOptions{
		Parallelism: e.cfg.Parallelism,
		Label:       e.cfg.Label,
		Now:         e.cfg.Now().UTC(),
		Hash:        d.hash,
		Size:        d.size,
		Extra:       &e.stages,
	})
	if err != nil {
		return nil, false, err
	}
	e.fileHashes = append(e.fileHashes, run.Hash)
	if !added {
		e.dedups++
		return run, false, nil
	}
	e.files++
	e.records += run.Records
	e.offset += e.stages.end
	if e.cfg.Logf != nil {
		e.cfg.Logf("ingested %s: run %s, %d records, v%d%s",
			path, run.ID, run.Records, run.TraceVersion, warnNote(run.Warning))
	}
	if e.emitErr != nil {
		return run, true, e.emitErr
	}
	return run, true, nil
}

func warnNote(w string) string {
	if w == "" {
		return ""
	}
	return " (salvaged: " + w + ")"
}

// digest is a spool file's content address, hashed on a lookahead
// goroutine while the file before it is read.
type digest struct {
	hash string
	size int64
	err  error
}

// hashAhead hashes path on a goroutine of its own, which sends the digest
// and exits.
func hashAhead(path string) <-chan digest {
	c := make(chan digest, 1)
	go func() {
		var d digest
		d.hash, d.size, d.err = metricstore.HashFile(path)
		c <- d
	}()
	return c
}

// Sweep ingests, in name order, every spool file not yet seen by this
// engine. It returns how many files were newly analyzed (store
// deduplicates don't count). A file that is not a trace (a trace format
// error) is logged through Config.Logf and marked seen; any other error
// stops the sweep and is returned. While one file is read, the next one is
// hashed on a lookahead goroutine; whether the store already holds it is
// still decided at its own turn, and the lookahead has ended when Sweep
// returns.
func (e *Engine) Sweep() (int, error) {
	entries, err := os.ReadDir(e.cfg.Spool)
	if err != nil {
		return 0, err
	}
	names := make([]string, 0, len(entries))
	for _, ent := range entries {
		if ent.IsDir() || filepath.Ext(ent.Name()) != TraceSuffix {
			continue
		}
		if !e.seen[ent.Name()] {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	var ahead <-chan digest
	defer func() {
		if ahead != nil {
			<-ahead
		}
	}()
	added := 0
	for i, name := range names {
		var d digest
		if ahead != nil {
			d, ahead = <-ahead, nil
		}
		if d.err != nil {
			return added, fmt.Errorf("metricsvc: ingesting %s: %w", name, d.err)
		}
		if i+1 < len(names) {
			ahead = hashAhead(filepath.Join(e.cfg.Spool, names[i+1]))
		}
		_, fresh, err := e.ingest(filepath.Join(e.cfg.Spool, name), d)
		if err != nil {
			if !errors.Is(err, trace.ErrBadMagic) && !errors.Is(err, trace.ErrBadVersion) && !errors.Is(err, trace.ErrCorrupt) {
				return added, fmt.Errorf("metricsvc: ingesting %s: %w", name, err)
			}
			if e.cfg.Logf != nil {
				e.cfg.Logf("skipping %s: %v", name, err)
			}
		}
		e.seen[name] = true
		if fresh {
			added++
		}
	}
	return added, nil
}

// report writes one k=v status line from the engine's own counters.
func (e *Engine) report() {
	if e.cfg.Report == nil {
		return
	}
	line := fmt.Sprintf("report t=%s files=%d dedup=%d records=%d windows=%d",
		e.cfg.Now().UTC().Format(time.RFC3339), e.files, e.dedups, e.records, e.windows)
	if e.lastWin != nil {
		line += fmt.Sprintf(" win=%d win_kbs=%.1f win_pps=%.1f",
			e.lastWin.Index, e.lastWin.MeanKbs, e.lastWin.MeanPPS)
	}
	fmt.Fprintln(e.cfg.Report, line)
}

// Run sweeps the spool at the configured cadence until ctx is done, then
// returns ctx's cause. Close is still the caller's job (a daemon typically
// defers it): Run stopping only pauses ingestion.
func (e *Engine) Run(ctx context.Context) error {
	tick := time.NewTicker(e.cfg.Poll)
	defer tick.Stop()
	lastReport := e.cfg.Now()
	for {
		n, err := e.Sweep()
		if err != nil {
			return err
		}
		if n > 0 || (e.cfg.ReportEvery > 0 && e.cfg.Now().Sub(lastReport) >= e.cfg.ReportEvery) {
			e.report()
			lastReport = e.cfg.Now()
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close flushes the partial rolling window, digests the cumulative
// summary suite, and records the whole-service run row — content-addressed by the
// ordered per-file hashes, so rerunning the same spool into the same store
// dedupes to the existing service row. It returns that row (nil when the
// engine saw no files). Close is idempotent.
func (e *Engine) Close() (*metricstore.Run, error) {
	if e.closed {
		return e.serviceRun, e.emitErr
	}
	e.closed = true
	e.win.Close()
	final := e.sum.Summary(0)
	e.report()
	if len(e.fileHashes) == 0 {
		return nil, e.emitErr
	}
	h := sha256.New()
	for _, fh := range e.fileHashes {
		h.Write([]byte(fh))
	}
	run := &metricstore.Run{
		Hash:       hex.EncodeToString(h.Sum(nil)),
		Kind:       metricstore.KindService,
		Source:     "spool:" + e.cfg.Spool,
		Label:      e.cfg.Label,
		IngestedAt: e.cfg.Now().UTC(),
		Records:    e.records,
		Summary:    final,
	}
	stored, _, err := e.cfg.Store.Ingest(run)
	if err == nil {
		e.serviceRun = stored
		err = e.emitErr
	}
	return e.serviceRun, err
}

// Windows returns how many completed windows the engine recorded.
func (e *Engine) Windows() int64 { return e.windows }

var _ metricstore.Tap = (*stages)(nil)
