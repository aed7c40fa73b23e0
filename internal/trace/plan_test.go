package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"cstrace/internal/faultio"
)

// TestReadPlanTable pins the planner's condition → source → Warning table:
// every format version, on a seekable and a non-seekable source, sealed,
// with a damaged footer and torn mid-segment, with Salvage off and on. The
// expectations below restate the ladder independently of the planner's own
// control flow. A whole-file read at one worker and at four then leaves the
// same Warning the plan did: it depends on the file and the source only.
func TestReadPlanTable(t *testing.T) {
	const (
		noSeek   = "indexed read needs a seekable source; scanning frames instead"
		badIndex = "segment index unreadable ("
	)
	for version := 1; version <= 4; version++ {
		_, raw := versionStream(t, version, 6000, 512)
		allSegs, tornSegs, tornCut := 0, 0, int64(len(raw)/2)
		if version >= 2 {
			g := geometry(t, raw)
			mid := g.ix.Segments[len(g.ix.Segments)/2]
			tornCut = mid.Offset + int64(mid.frameHeaderLen(version)) + int64(mid.PayloadLen)/2
			allSegs = len(g.ix.Segments)
			tornSegs, _ = g.intactPrefix(tornCut)
		}
		files := []struct {
			name    string
			data    []byte
			damaged bool
			segs    int // segments an index over the intact prefix holds
		}{
			{"sealed", raw, false, allSegs},
			{"footer-damaged", raw[:len(raw)-5], true, allSegs},
			{"torn", raw[:tornCut], true, tornSegs},
		}
		for _, file := range files {
			for _, seekable := range []bool{true, false} {
				for _, salvage := range []bool{false, true} {
					name := fmt.Sprintf("v%d/%s/seekable=%v/salvage=%v", version, file.name, seekable, salvage)
					newReader := func() *Reader {
						var src io.Reader = bytes.NewReader(file.data)
						if !seekable {
							src = nonSeeker{src}
						}
						r := NewReader(src)
						r.Salvage = salvage
						return r
					}
					r := newReader()
					src, err := r.plan(0, MaxSpan)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}

					// wantSegs: -1 reads record by record (v1), -2 scans
					// the frames, otherwise the index source's length.
					wantSegs, wantWarn := -1, ""
					switch {
					case version == 1:
					case !seekable:
						wantSegs, wantWarn = -2, noSeek
					case !file.damaged:
						wantSegs = file.segs
					case salvage:
						wantSegs = file.segs
						wantWarn = fmt.Sprintf("salvaged %d intact segments", file.segs)
					default:
						wantSegs, wantWarn = -2, "; scanning frames instead"
					}

					gotSegs := -1
					switch s := src.(type) {
					case *indexSource:
						gotSegs = len(s.segs)
						if s.ra == nil || s.version != version {
							t.Errorf("%s: index source over %v at v%d", name, s.ra, s.version)
						}
					case *frameScan:
						gotSegs = -2
					}
					if gotSegs != wantSegs {
						t.Errorf("%s: plan source %d, want %d (-1 = record by record, -2 = frame scan)", name, gotSegs, wantSegs)
					}
					warn := r.Warning()
					switch {
					case wantWarn == "" || wantWarn == noSeek:
						if warn != wantWarn {
							t.Errorf("%s: Warning %q, want %q", name, warn, wantWarn)
						}
					case !strings.HasPrefix(warn, badIndex) || !strings.Contains(warn, wantWarn):
						t.Errorf("%s: Warning %q, want %q… mentioning %q", name, warn, badIndex, wantWarn)
					}
					for _, workers := range []int{1, 4} {
						rd := newReader()
						_, _ = rd.ReadAllSharded(&Collect{}, workers)
						if got := rd.Warning(); got != warn {
							t.Errorf("%s: workers=%d read leaves Warning %q, the plan %q", name, workers, got, warn)
						}
					}
				}
			}
		}
	}
}

// TestIndexedReadsLeaveNothingBehind: a mid-file ErrCorrupt — one bit
// flipped in a segment's column header — must surface from every read
// preset, through the index and by frame scan, with the records before the
// damage delivered, every goroutine the call started gone, and every
// decoded-but-undelivered Block and ColumnBlock back in its pool.
func TestIndexedReadsLeaveNothingBehind(t *testing.T) {
	_, raw := versionStream(t, 4, 20000, 512)
	g := geometry(t, raw)
	mid := len(g.ix.Segments) / 2
	seg := g.ix.Segments[mid]
	// Bit 0 of the flags-run length: the run no longer matches the record
	// count, which fails the segment closed on every decode path.
	flip := faultio.NewReaderAt(bytes.NewReader(raw))
	flip.FlipBit = seg.Offset + int64(seg.frameHeaderLen(4)) + 4
	bad := make([]byte, len(raw))
	if _, err := flip.ReadAt(bad, 0); err != nil {
		t.Fatal(err)
	}
	wantRecs := g.cumRecs[mid-1]

	presets := map[string]func(h Handler, workers int) (int64, error){
		"ReadAllSharded": func(h Handler, workers int) (int64, error) {
			return NewReader(bytes.NewReader(bad)).ReadAllSharded(h, workers)
		},
		"ReadAllPrefetch": func(h Handler, _ int) (int64, error) {
			return NewReader(bytes.NewReader(bad)).ReadAllPrefetch(h)
		},
		"ReadRange": func(h Handler, _ int) (int64, error) {
			return NewReader(bytes.NewReader(bad)).ReadRange(0, MaxSpan, h)
		},
		"frame-scan": func(h Handler, workers int) (int64, error) {
			return NewReader(nonSeeker{bytes.NewReader(bad)}).ReadAllSharded(h, workers)
		},
		"frame-scan-range": func(h Handler, _ int) (int64, error) {
			return NewReader(nonSeeker{bytes.NewReader(bad)}).ReadRange(0, MaxSpan, h)
		},
		"DecodeIndex": func(h Handler, workers int) (int64, error) {
			return DecodeIndex(bytes.NewReader(bad), g.ix, h, workers)
		},
	}
	sinks := map[string]func() Handler{
		"plain":   func() Handler { return &Collect{} },
		"blocks":  func() Handler { return &blockCollect{} },
		"columns": func() Handler { return &columnCollect{} },
	}
	for preset, read := range presets {
		for sink, newSink := range sinks {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/workers=%d", preset, sink, workers)
				goroutines, out := runtime.NumGoroutine(), poolOut.Load()
				n, err := read(newSink(), workers)
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
				}
				if n != wantRecs {
					t.Errorf("%s: delivered %d records before the damage, want %d", name, n, wantRecs)
				}
				deadline := time.Now().Add(2 * time.Second)
				for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if now := runtime.NumGoroutine(); now > goroutines {
					t.Errorf("%s: %d goroutines still running, %d before the call", name, now, goroutines)
				}
				if now := poolOut.Load(); now != out {
					t.Errorf("%s: %d pooled blocks not returned", name, now-out)
				}
			}
		}
	}
}
