// Package trace defines the packet-record model shared by the workload
// generator, the live capture path, the NAT model and the analysis pipeline,
// together with a compact binary on-disk format and pcap import/export.
//
// A Record is one UDP datagram seen at the server's network tap: a timestamp
// (offset from trace start), a direction, the application payload size and
// the client it belongs to. Wire sizes follow the paper's byte accounting
// (payload + 58 B of framing; see internal/units).
//
// Streams move through two consumer interfaces. Handler (one virtual call
// per record) is the compatibility surface; BatchHandler (one call per
// Block, a pooled []Record slab of up to BlockSize records) is the fast
// path that amortizes dispatch at half-a-billion-packet scale. Dispatch
// bridges a block onto either interface, Batch adapts a per-record
// downstream, and Batcher/LockedBatcher adapt per-record producers — so
// any stage composes with any other. Tee fans a stream out, and
// SortBuffer restores strict time order to bounded-disorder streams for
// order-sensitive consumers.
//
// Writer/Reader persist streams in a delta-encoded binary format
// (docs/FORMAT.md is the byte-level spec). NewWriter emits format v4:
// records chunk into independently-decodable segments — each payload
// field-striped and compressed per column when that makes it smaller —
// with a segment index and footer, so Reader.ReadAllSharded can fan
// segment decode out across worker goroutines with in-order delivery,
// handing the decoded blocks — v4 segments still as columns — straight to
// a ColumnIngester or BlockIngester (the analysis suites, a Tee) with no
// re-batching copy. The same engine reads a non-seekable source or a file
// with a damaged index by scanning its frames instead of seeking by the
// index; only v1 files are read record by record. PCAPWriter and
// ReadPCAP exchange traces with standard capture tooling. See
// docs/ARCHITECTURE.md for the end-to-end data flow.
package trace

import (
	"time"

	"cstrace/internal/units"
)

// Direction tells whether a packet travels client→server or server→client.
type Direction uint8

const (
	// In is client → server (the paper's "incoming").
	In Direction = iota
	// Out is server → client (the paper's "outgoing").
	Out
)

// String returns "in" or "out".
func (d Direction) String() string {
	if d == In {
		return "in"
	}
	return "out"
}

// Kind classifies the application message, mirroring the traffic sources the
// paper describes in §II.
type Kind uint8

const (
	// KindGame is real-time action/coordinate state (the dominant source).
	KindGame Kind = iota
	// KindHandshake is connection establishment/teardown traffic.
	KindHandshake
	// KindText is broadcast text messaging.
	KindText
	// KindVoice is broadcast voice communication.
	KindVoice
	// KindDownload is logo/map upload-download traffic (rate-limited).
	KindDownload
	// KindWeb marks TCP bulk-transfer records produced by the web-traffic
	// baseline generator (internal/webtraffic), the contrast workload of
	// the paper's §IV-A. Web records carry App = TCP payload + 12 so that
	// Wire() stays exact despite the larger TCP header; see that package.
	KindWeb
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindGame:
		return "game"
	case KindHandshake:
		return "handshake"
	case KindText:
		return "text"
	case KindVoice:
		return "voice"
	case KindDownload:
		return "download"
	case KindWeb:
		return "web"
	}
	return "unknown"
}

// MaxSpan is the longest trace-time timestamp the format accepts: 30 days,
// four times the paper's week-long capture. The Writer rejects records
// beyond it, and every decode path treats a timestamp decoding past it as
// corruption (ErrCorrupt) rather than delivering the record. The cap is a
// plausibility bound, not a storage limit: a flipped bit in a varint
// timestamp delta otherwise decodes to a centuries-long jump, and the
// time-binned collectors downstream would grind through (or allocate) that
// entire span bin by bin. Rejecting the poisoned record at decode keeps a
// corrupt or adversarial trace from turning analysis into a hang — the
// records before the damage still deliver, consistent with the
// records-before-error contract everywhere else.
const MaxSpan = 30 * 24 * time.Hour

// Record is one captured datagram.
type Record struct {
	// T is the offset from the start of the trace.
	T time.Duration
	// Dir is the packet direction relative to the server.
	Dir Direction
	// Kind is the application message class.
	Kind Kind
	// Client identifies the remote client (stable across a session).
	Client uint32
	// App is the application payload size in bytes.
	App uint16
}

// Wire returns the on-the-wire size in bytes under the paper's accounting.
func (r Record) Wire() int { return int(r.App) + units.WireOverhead }

// Handler consumes a stream of records in timestamp order.
type Handler interface {
	Handle(r Record)
}

// HandlerFunc adapts a function to a Handler.
type HandlerFunc func(Record)

// Handle implements Handler.
func (f HandlerFunc) Handle(r Record) { f(r) }

// Fanout delivers one stream to several handlers in order, on the column
// or batch path whenever a downstream supports it.
type Fanout struct{ hs []Handler }

// Tee fans one stream out to several handlers in order.
func Tee(hs ...Handler) *Fanout { return &Fanout{hs: hs} }

// Handle implements Handler.
func (f *Fanout) Handle(r Record) {
	for _, h := range f.hs {
		h.Handle(r)
	}
}

// HandleBatch implements BatchHandler.
func (f *Fanout) HandleBatch(rs []Record) {
	for _, h := range f.hs {
		Dispatch(h, rs)
	}
}

// IngestBlock implements BlockIngester: the block is lent to every member
// as a batch, then recycled.
func (f *Fanout) IngestBlock(blk *Block) {
	f.HandleBatch(*blk)
	FreeBlock(blk)
}

// IngestColumns implements ColumnIngester, so a column-decoded segment
// reaches the members without being interleaved for each of them. Every
// ColumnIngester member takes a block of its own: a pooled copy, except the
// last one, which takes cb itself. Record-only members share one interleave,
// made before any member owns cb (an owner may rewrite or recycle it).
func (f *Fanout) IngestColumns(cb *ColumnBlock) {
	last := -1
	var recs *Block
	for i, h := range f.hs {
		if _, ok := h.(ColumnIngester); ok {
			last = i
		} else if recs == nil {
			recs = NewBlock()
			*recs = cb.AppendRecords(*recs)
		}
	}
	for i, h := range f.hs {
		ci, ok := h.(ColumnIngester)
		switch {
		case !ok:
			Dispatch(h, *recs)
		case i == last:
			ci.IngestColumns(cb)
		default:
			ci.IngestColumns(cb.clone())
		}
	}
	if recs != nil {
		FreeBlock(recs)
	}
	if last < 0 {
		FreeColumnBlock(cb)
	}
}

var _ ColumnIngester = (*Fanout)(nil)

// Collect appends records to a slice; convenient in tests and for small
// windows of a trace.
type Collect struct{ Records []Record }

// Handle implements Handler.
func (c *Collect) Handle(r Record) { c.Records = append(c.Records, r) }

// HandleBatch implements BatchHandler.
func (c *Collect) HandleBatch(rs []Record) { c.Records = append(c.Records, rs...) }
