package analysis

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"time"

	"cstrace/internal/trace"
	"cstrace/internal/units"
)

// WindowStats is one completed trace-time window of a RollingWindow: the
// cheap provisioning counters over [Start, End), plus a content hash of the
// window's records so a store can dedupe windows the way it dedupes whole
// traces. Rates are computed over the nominal window width, so windows are
// directly comparable to each other (a final partial window is marked).
type WindowStats struct {
	// Index is the window ordinal: Start / width. Empty windows are never
	// emitted, so indices may skip.
	Index int64
	// Start (inclusive) and End (exclusive) bound the window in trace time.
	Start, End time.Duration
	// Final marks a window flushed by Close before its nominal bound
	// elapsed; its rates still use the full width.
	Final bool

	Records     int64
	PacketsIn   int64
	PacketsOut  int64
	AppBytesIn  int64
	AppBytesOut int64
	// WireBytes uses the paper's accounting (payload + framing overhead).
	WireBytes int64
	// MeanKbs and MeanPPS are rates over the nominal window width.
	MeanKbs float64
	MeanPPS float64

	// Hash is the hex SHA-256 of the window's records (16-byte
	// little-endian encoding per record, stream order): the window's
	// content address.
	Hash string
}

// RollingWindow slices a non-decreasing record stream into fixed-width
// trace-time windows and emits WindowStats for each window as soon as the
// stream crosses its upper bound; Close flushes the in-progress window. It
// is the daemon's incremental collector: unlike the one-shot suite it never
// needs the whole trace, and its per-window content hashes make recording
// windows into the metrics store idempotent.
//
// The collector is single-goroutine (feed it from one logical enqueuer,
// e.g. alongside a sharded suite's dispatch). Records must arrive in
// non-decreasing timestamp order — the same contract as Suite. A record with
// T exactly on a boundary opens the next window; a late record counts into
// the window that is open.
type RollingWindow struct {
	width  time.Duration
	emit   func(WindowStats)
	cur    WindowStats
	open   bool
	closed bool
	h      hash.Hash
	buf    []byte // hashChunk packed 16-byte records on their way into h
}

// hashChunk is how many records the sweep packs before each write to the
// window hash.
const hashChunk = 1024

// NewRollingWindow creates a windowed collector. width must be positive;
// emit receives each completed window synchronously (keep it fast, or hand
// off). A nil emit discards windows (useful for benchmarks).
func NewRollingWindow(width time.Duration, emit func(WindowStats)) *RollingWindow {
	if width <= 0 {
		width = time.Minute
	}
	if emit == nil {
		emit = func(WindowStats) {}
	}
	return &RollingWindow{width: width, emit: emit, h: sha256.New(), buf: make([]byte, 16*hashChunk)}
}

// Handle implements trace.Handler: one record is a one-record batch.
func (rw *RollingWindow) Handle(r trace.Record) {
	rw.HandleBatch([]trace.Record{r})
}

// HandleBatch implements trace.BatchHandler.
func (rw *RollingWindow) HandleBatch(rs []trace.Record) { viaColumns(rs, rw.HandleColumns) }

// HandleColumns is the collector's one sweep. Per window it finds the run
// of records before the window's End, sums the run's counts in one pass and
// packs its hash records straight from the columns. The flags byte reads as
// it does from a file: bit 0 the direction, the next three bits the kind.
// The block is only borrowed.
func (rw *RollingWindow) HandleColumns(cb *trace.ColumnBlock) {
	if rw.closed {
		return
	}
	ts := cb.T
	for i := 0; i < len(ts); {
		if !rw.open {
			rw.openAt(ts[i])
		} else if ts[i] >= rw.cur.End {
			rw.flush(false)
			rw.openAt(ts[i])
		}
		j, end := i+1, rw.cur.End
		for j < len(ts) && ts[j] < end {
			j++
		}
		rw.count(cb.Flags[i:j], cb.App[i:j])
		rw.hashRun(cb, i, j)
		i = j
	}
}

// Close flushes the in-progress partial window (marked Final) and latches
// the collector; further records are ignored.
func (rw *RollingWindow) Close() {
	if rw.closed {
		return
	}
	if rw.open {
		rw.flush(true)
	}
	rw.closed = true
}

func (rw *RollingWindow) openAt(t time.Duration) {
	start := t - t%rw.width
	rw.cur = WindowStats{
		Index: int64(start / rw.width),
		Start: start,
		End:   start + rw.width,
	}
	rw.open = true
}

// count adds one run's records to the open window's counters.
func (rw *RollingWindow) count(fs []uint8, as []uint16) {
	var out, app, appOut int64
	for k, f := range fs {
		a := int64(as[k])
		out += int64(f & 1)
		app += a
		appOut += a & -int64(f&1)
	}
	n := int64(len(fs))
	rw.cur.Records += n
	rw.cur.PacketsIn += n - out
	rw.cur.PacketsOut += out
	rw.cur.AppBytesIn += app - appOut
	rw.cur.AppBytesOut += appOut
}

// hashRun feeds records [lo, hi) of cb to the window hash, 16 little-endian
// bytes each: T, direction, kind, client, app.
func (rw *RollingWindow) hashRun(cb *trace.ColumnBlock, lo, hi int) {
	for lo < hi {
		m := min(hi-lo, hashChunk)
		ts, fs, cs, as := cb.T[lo:lo+m], cb.Flags[lo:lo+m], cb.Client[lo:lo+m], cb.App[lo:lo+m]
		buf := rw.buf[:16*m]
		for k := range ts {
			f := uint64(fs[k])
			rec := buf[16*k : 16*k+16]
			binary.LittleEndian.PutUint64(rec[0:], uint64(ts[k]))
			binary.LittleEndian.PutUint64(rec[8:], f&1|f>>1&0x7<<8|uint64(cs[k])<<16|uint64(as[k])<<48)
		}
		rw.h.Write(buf)
		lo += m
	}
}

func (rw *RollingWindow) flush(final bool) {
	w := rw.cur
	w.Final = final
	w.WireBytes = w.AppBytesIn + w.AppBytesOut +
		(w.PacketsIn+w.PacketsOut)*units.WireOverhead
	sec := rw.width.Seconds()
	w.MeanKbs = float64(8*w.WireBytes) / sec / 1e3
	w.MeanPPS = float64(w.Records) / sec
	w.Hash = hex.EncodeToString(rw.h.Sum(nil))
	rw.h.Reset()
	rw.open = false
	rw.emit(w)
}

var (
	_ trace.Handler      = (*RollingWindow)(nil)
	_ trace.BatchHandler = (*RollingWindow)(nil)
)
