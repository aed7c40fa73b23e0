// Package metricsvc is the continuous-analysis daemon behind
// cmd/csmetricsd: it watches a spool directory
// for trace files, ingests each new file through the metricstore path
// (content-addressed, so re-delivery is free), and threads every record
// through service-wide state — a cumulative analysis.SummarySuite (the
// four collectors a stored Summary reads: counters, the minute series,
// interarrivals and the kind mix) and a rolling trace-time window —
// recording completed windows and, on shutdown, a whole-service run into
// the same store the per-file rows land in. The engine starts no
// goroutines of its own; only the per-file segment decode runs in parallel.
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
	// least), sched.Auto a grant of the whole worker budget.
	Parallelism int
	// Label tags every row this engine records.
	Label string
	// Report, when non-nil, receives one k=v line per report tick.
	Report io.Writer
	// Logf, when non-nil, receives progress lines (one per ingested file).
	Logf func(format string, args ...any)
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

// Engine is the continuous-analysis service. It is single-goroutine: call
// IngestFile/Sweep/Run/Close from one goroutine only. Between calls it
// holds no goroutines.
type Engine struct {
	cfg Config
	sum *analysis.SummarySuite
	win *analysis.RollingWindow

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

// rebase shifts each file's records onto the service timeline and fans
// them to the cumulative summary suite and the rolling window. It is the
// IngestOptions.Extra handler for one file: end tracks the file's own span
// so the engine can advance the offset afterwards. A v4 file reaches it as
// column blocks (trace.Fanout passes them through); records are transposed
// once into the same path.
type rebase struct {
	e   *Engine
	end time.Duration
}

func (f *rebase) Handle(r trace.Record) { f.HandleBatch([]trace.Record{r}) }

func (f *rebase) HandleBatch(rs []trace.Record) {
	if len(rs) == 0 {
		return
	}
	cb := trace.NewColumnBlock()
	cb.AppendFrom(rs)
	f.IngestColumns(cb)
}

func (f *rebase) IngestBlock(blk *trace.Block) {
	f.HandleBatch(*blk)
	trace.FreeBlock(blk)
}

// IngestColumns shifts cb's T column in place, lends the block to the
// window, then passes ownership to the cumulative summary suite.
func (f *rebase) IngestColumns(cb *trace.ColumnBlock) {
	off := f.e.offset
	for i, t := range cb.T {
		f.end = max(f.end, t)
		cb.T[i] = t + off
	}
	f.e.win.HandleColumns(cb)
	f.e.sum.IngestColumns(cb)
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
	if e.closed {
		return nil, false, errors.New("metricsvc: engine is closed")
	}
	fan := &rebase{e: e}
	run, added, err := metricstore.IngestTraceFile(e.cfg.Store, path, metricstore.IngestOptions{
		Parallelism: e.cfg.Parallelism,
		Label:       e.cfg.Label,
		Now:         e.cfg.Now().UTC(),
		Extra:       fan,
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
	e.offset += fan.end
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

// Sweep ingests, in name order, every spool file not yet seen by this
// engine. It returns how many files were newly analyzed (store
// deduplicates don't count). A file that is not a trace (a trace format
// error) is logged through Config.Logf and marked seen; any other error
// stops the sweep and is returned.
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
	added := 0
	for _, name := range names {
		_, fresh, err := e.IngestFile(filepath.Join(e.cfg.Spool, name))
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

var _ trace.ColumnIngester = (*rebase)(nil)
