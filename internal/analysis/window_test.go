package analysis

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"cstrace/internal/trace"
	"cstrace/internal/units"
)

func windowRecords() []trace.Record {
	// Three one-minute windows worth of records, with a gap: minute 0,
	// minute 1 empty, minute 2, and a final partial at minute 3.
	return []trace.Record{
		{T: 0, Dir: trace.In, Kind: trace.KindGame, Client: 1, App: 40},
		{T: 10 * time.Second, Dir: trace.Out, Kind: trace.KindGame, Client: 1, App: 120},
		{T: 59 * time.Second, Dir: trace.Out, Kind: trace.KindGame, Client: 2, App: 80},
		// T exactly on the minute-2 boundary belongs to window 2.
		{T: 2 * time.Minute, Dir: trace.In, Kind: trace.KindHandshake, Client: 3, App: 20},
		{T: 2*time.Minute + 30*time.Second, Dir: trace.Out, Kind: trace.KindGame, Client: 3, App: 200},
		{T: 3*time.Minute + 5*time.Second, Dir: trace.Out, Kind: trace.KindGame, Client: 1, App: 64},
	}
}

func TestRollingWindowBounds(t *testing.T) {
	var got []WindowStats
	rw := NewRollingWindow(time.Minute, func(w WindowStats) { got = append(got, w) })
	rw.HandleBatch(windowRecords())
	rw.Close()

	if len(got) != 3 {
		t.Fatalf("windows emitted = %d, want 3 (empty minute skipped)", len(got))
	}
	w0, w2, w3 := got[0], got[1], got[2]

	if w0.Index != 0 || w0.Start != 0 || w0.End != time.Minute {
		t.Errorf("window 0 bounds = (%d, %v, %v)", w0.Index, w0.Start, w0.End)
	}
	if w0.Records != 3 || w0.PacketsIn != 1 || w0.PacketsOut != 2 {
		t.Errorf("window 0 counts = %+v", w0)
	}
	if w0.AppBytesIn != 40 || w0.AppBytesOut != 200 {
		t.Errorf("window 0 bytes = in %d out %d", w0.AppBytesIn, w0.AppBytesOut)
	}
	wantWire := int64(40 + 200 + 3*units.WireOverhead)
	if w0.WireBytes != wantWire {
		t.Errorf("window 0 wire bytes = %d, want %d", w0.WireBytes, wantWire)
	}
	if want := float64(8*wantWire) / 60 / 1e3; w0.MeanKbs != want {
		t.Errorf("window 0 kbs = %v, want %v", w0.MeanKbs, want)
	}
	if w0.Final {
		t.Errorf("window 0 marked final")
	}

	// The boundary record opened window 2, not window 1.
	if w2.Index != 2 || w2.Start != 2*time.Minute || w2.Records != 2 {
		t.Errorf("window 2 = %+v", w2)
	}
	if w3.Index != 3 || !w3.Final || w3.Records != 1 {
		t.Errorf("final window = %+v", w3)
	}
}

func TestRollingWindowHashDeterminism(t *testing.T) {
	collect := func(rs []trace.Record, batch int) []WindowStats {
		var got []WindowStats
		rw := NewRollingWindow(time.Minute, func(w WindowStats) { got = append(got, w) })
		for len(rs) > 0 {
			n := batch
			if n > len(rs) {
				n = len(rs)
			}
			rw.HandleBatch(rs[:n])
			rs = rs[n:]
		}
		rw.Close()
		return got
	}

	a := collect(windowRecords(), 100)
	b := collect(windowRecords(), 1)
	if len(a) != len(b) {
		t.Fatalf("window count differs across batch sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("window %d differs across batch sizes:\n  %+v\n  %+v", i, a[i], b[i])
		}
		if a[i].Hash == "" {
			t.Errorf("window %d has empty hash", i)
		}
	}

	// Perturbing one record's content must change that window's hash only.
	rs := windowRecords()
	rs[0].App++
	c := collect(rs, 100)
	if c[0].Hash == a[0].Hash {
		t.Errorf("window 0 hash unchanged after content change")
	}
	if c[1].Hash != a[1].Hash || c[2].Hash != a[2].Hash {
		t.Errorf("later window hashes changed by an earlier window's content")
	}
}

func TestRollingWindowCloseLatches(t *testing.T) {
	var n int
	rw := NewRollingWindow(time.Minute, func(WindowStats) { n++ })
	rw.Handle(trace.Record{T: time.Second, App: 10})
	rw.Close()
	rw.Close()
	rw.Handle(trace.Record{T: 2 * time.Second, App: 10})
	rw.Close()
	if n != 1 {
		t.Fatalf("emitted %d windows, want 1 (close latches)", n)
	}
}

// recordWindow is the oracle for RollingWindow's column sweep: the
// per-record body the collector ran before it had one, opening and
// flushing windows through the collector's own openAt and flush.
type recordWindow struct{ *RollingWindow }

func (rw recordWindow) handle(rs []trace.Record) {
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
}

func (rw recordWindow) add(r trace.Record) {
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
	rw.h.Write(rec[:])
}

// windowStream is a seeded stream for the window oracle: bursts a few
// microseconds apart, records placed exactly on window bounds, gaps that
// skip several windows, and now and then a late record.
func windowStream(seed int64, n int, width time.Duration) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	rs := make([]trace.Record, n)
	var t time.Duration
	for i := range rs {
		switch x := rng.Intn(1000); {
		case x < 5: // onto the next bound
			t += width - t%width
		case x < 8: // skip several windows
			t += time.Duration(2+rng.Intn(5)) * width
		case x < 12 && t > width: // late: before the open window starts
			rs[i] = windowRecord(rng, t-t%width-time.Duration(1+rng.Intn(int(width))))
			continue
		default:
			t += time.Duration(rng.Intn(3000)) * time.Microsecond
		}
		rs[i] = windowRecord(rng, t)
	}
	return rs
}

func windowRecord(rng *rand.Rand, t time.Duration) trace.Record {
	return trace.Record{
		T:      t,
		Dir:    trace.Direction(rng.Intn(2)),
		Kind:   trace.Kind(rng.Intn(8)),
		Client: rng.Uint32() >> uint(rng.Intn(32)),
		App:    uint16(rng.Intn(1 << 16)),
	}
}

// TestRollingWindowColumnsMatchRecords: the column sweep emits exactly the
// windows the per-record body does — counts, bounds, rates and hash — over
// seeded streams cut into random blocks, fed as record batches and as
// column blocks, with and without a Close before the stream ends.
func TestRollingWindowColumnsMatchRecords(t *testing.T) {
	const width = 50 * time.Millisecond
	for seed := int64(1); seed <= 8; seed++ {
		rs := windowStream(seed, 20000, width)
		rng := rand.New(rand.NewSource(-seed))
		for _, cut := range []int{len(rs), len(rs) / 3} { // cut < len: Close mid-window
			var want []WindowStats
			oracle := recordWindow{NewRollingWindow(width, func(w WindowStats) { want = append(want, w) })}
			oracle.handle(rs[:cut])
			oracle.Close()
			oracle.handle(rs[cut:])

			for _, leg := range []string{"batches", "columns"} {
				var got []WindowStats
				rw := NewRollingWindow(width, func(w WindowStats) { got = append(got, w) })
				for lo := 0; lo < len(rs); {
					if lo >= cut && !rw.closed {
						rw.Close()
					}
					hi := min(len(rs), lo+1+rng.Intn(3*trace.BlockSize/2))
					if !rw.closed {
						hi = min(hi, cut)
					}
					if leg == "batches" {
						rw.HandleBatch(rs[lo:hi])
					} else {
						cb := columnsOf(rs[lo:hi])
						rw.HandleColumns(cb)
						trace.FreeColumnBlock(cb)
					}
					lo = hi
				}
				rw.Close()
				if len(want) < 10 {
					t.Fatalf("seed %d: only %d windows; the stream should span many", seed, len(want))
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d, cut %d, %s: column sweep emitted %d windows, the record body %d; first difference at %d",
						seed, cut, leg, len(got), len(want), firstWindowDiff(got, want))
				}
			}
		}
	}
}

func firstWindowDiff(a, b []WindowStats) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
