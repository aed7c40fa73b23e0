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
// non-decreasing timestamp order — the same contract as Suite. A record with T exactly on a boundary opens the next window.
type RollingWindow struct {
	width  time.Duration
	emit   func(WindowStats)
	cur    WindowStats
	open   bool
	closed bool
	h      hash.Hash
	buf    []byte
}

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
	return &RollingWindow{width: width, emit: emit, h: sha256.New()}
}

// Width returns the window width.
func (rw *RollingWindow) Width() time.Duration { return rw.width }

// Handle implements trace.Handler.
func (rw *RollingWindow) Handle(r trace.Record) {
	rw.HandleBatch([]trace.Record{r})
}

// HandleBatch implements trace.BatchHandler.
func (rw *RollingWindow) HandleBatch(rs []trace.Record) {
	if rw.closed {
		return
	}
	for _, r := range rs {
		if !rw.open {
			rw.openAt(r.T)
		} else if r.T >= rw.cur.End {
			rw.flush(false)
			rw.openAt(r.T)
		}
		rw.add(r)
	}
	rw.drainBuf()
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

func (rw *RollingWindow) add(r trace.Record) {
	rw.cur.Records++
	if r.Dir == trace.In {
		rw.cur.PacketsIn++
		rw.cur.AppBytesIn += int64(r.App)
	} else {
		rw.cur.PacketsOut++
		rw.cur.AppBytesOut += int64(r.App)
	}
	var rec [16]byte
	binary.LittleEndian.PutUint64(rec[0:], uint64(r.T))
	rec[8] = byte(r.Dir)
	rec[9] = byte(r.Kind)
	binary.LittleEndian.PutUint32(rec[10:], r.Client)
	binary.LittleEndian.PutUint16(rec[14:], r.App)
	rw.buf = append(rw.buf, rec[:]...)
	if len(rw.buf) >= 1<<14 {
		rw.drainBuf()
	}
}

func (rw *RollingWindow) drainBuf() {
	if len(rw.buf) > 0 {
		rw.h.Write(rw.buf)
		rw.buf = rw.buf[:0]
	}
}

func (rw *RollingWindow) flush(final bool) {
	rw.drainBuf()
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
