package loadtest

import (
	"bytes"
	"context"
	"math/bits"
	"testing"
	"time"

	"cstrace"
	"cstrace/internal/trace"
)

// TestLiveLoopbackCapture is the end-to-end loop the package exists for: an
// in-process server on a real loopback UDP socket, a short harness burst
// against it, the exchange captured through the v4 trace writer, and the
// capture run through cstrace.AnalyzeTrace — asserting that live traffic
// reproduces the structural invariants the simulation is built around.
func TestLiveLoopbackCapture(t *testing.T) {
	if testing.Short() {
		t.Skip("live loopback run")
	}
	const (
		bots = 6
		tick = 50 * time.Millisecond
	)
	var buf bytes.Buffer
	srv, err := Spawn(SpawnConfig{Slots: 8, Tick: tick, TraceOut: &buf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	st, err := Run(context.Background(), Config{
		Targets:       []Target{srv.Target()},
		Bots:          bots,
		CmdRate:       30,
		Duration:      3 * time.Second,
		Monitor:       250 * time.Millisecond,
		ProbeInterval: -1, // keep the capture free of info-probe datagrams
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Final.Connects < bots {
		t.Fatalf("only %d connects for %d bots", st.Final.Connects, bots)
	}
	if st.Final.Sent == 0 || st.Final.Recv == 0 {
		t.Fatalf("no traffic: %s", st.Final.MonitorLine())
	}
	full := false
	for _, s := range st.Samples {
		full = full || s.Active == bots
	}
	if !full {
		t.Fatal("fleet never fully connected")
	}

	// Seal the capture, then analyze it exactly like a simulated trace.
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	a, err := cstrace.AnalyzeTrace(bytes.NewReader(buf.Bytes()), 2)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if a.Version != 4 {
		t.Fatalf("capture is format v%d, want v4", a.Version)
	}
	if a.Records == 0 || a.Suite.Count.PacketsIn == 0 || a.Suite.Count.PacketsOut == 0 {
		t.Fatalf("empty analysis: %d records, %d in, %d out",
			a.Records, a.Suite.Count.PacketsIn, a.Suite.Count.PacketsOut)
	}

	// Per-kind counts: live traffic must show both the game-state stream
	// and the connection handshakes (connects + disconnects).
	var game, handshake int64
	for _, row := range a.Suite.Kinds.Rows() {
		switch row.Kind {
		case trace.KindGame:
			game = row.Packets
		case trace.KindHandshake:
			handshake = row.Packets
		}
	}
	if game == 0 {
		t.Error("no game-state packets in the capture")
	}
	if handshake < int64(bots) {
		t.Errorf("%d handshake packets, want >= %d (one connect per bot)", handshake, bots)
	}

	// Packet sizes within protocol bounds. Inbound is user commands (36 B),
	// connect requests and disconnects — nothing under the 5 B header+id
	// floor, nothing above the small-message ceiling — and the fixed-size
	// command must dominate the inbound mix.
	in, out := a.Suite.Sizes.In.CDF(), a.Suite.Sizes.Out.CDF()
	if f := in[4]; f > 0 {
		t.Errorf("%.4f of inbound payloads below the 5 B protocol floor", f)
	}
	if f := in[64]; f != 1 {
		t.Errorf("%.4f of inbound payloads within the 64 B client-message ceiling, want all", f)
	}
	if f := in[36] - in[35]; f < 0.5 {
		t.Errorf("36 B user commands are %.4f of inbound packets, want majority", f)
	}
	// Outbound is snapshots (10 + 13/entity, at most 8 players here) plus
	// handshake replies.
	if f := out[10+13*8]; f != 1 {
		t.Errorf("%.4f of outbound payloads within a full-house snapshot, want all", f)
	}

	// Interarrival structure: the server broadcasts every tick, so a solid
	// share of outbound gaps must land in the log2 bucket holding the tick
	// (the rest are ~0 gaps inside a broadcast burst).
	_, counts := a.Suite.Gaps.Histogram(trace.Out)
	idx := bits.Len64(uint64(tick.Microseconds()))
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		t.Fatal("no outbound interarrival samples")
	}
	mass := float64(counts[idx]) / float64(total)
	if mass < 0.05 {
		t.Errorf("only %.3f of outbound gaps near the %v tick, want >= 0.05", mass, tick)
	}
}
