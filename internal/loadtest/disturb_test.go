package loadtest

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"cstrace/internal/discovery"
	"cstrace/internal/trace"
)

// lockedBuf is a mutex-guarded capture sink: the server's capture writes
// and the test's crash-point snapshot race by design.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) Snapshot() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestKillFailover is the disturbance-injection drill: two servers behind a
// master, every bot parked on the first, which the harness kills mid-run.
// The bots must notice the silence, re-browse the master (where the dead
// server's failed info probe filters it out), and resettle on the survivor —
// with the failure window recorded in the JSON stats.
func TestKillFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live run")
	}
	baseline := runtime.NumGoroutine()

	const bots = 5
	master, err := discovery.ListenMaster(discovery.MasterConfig{
		Addr: "127.0.0.1:0", TTL: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	masterAddr := master.Addr().String()

	// The victim registers immediately, so the opening browse finds only it
	// and the whole fleet deterministically lands there. It captures its
	// traffic, and the kill hook snapshots the capture bytes at the crash
	// point — the exact torn file a SIGKILL would leave — for the salvage
	// leg below.
	capBuf := &lockedBuf{}
	victim, err := Spawn(SpawnConfig{
		Slots: bots, Master: masterAddr, Heartbeat: 200 * time.Millisecond,
		TraceOut: capBuf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Shutdown()
	victimTarget := victim.Target()
	realKill := victimTarget.Kill
	var torn []byte
	var tornOnce sync.Once
	victimTarget.Kill = func() error {
		tornOnce.Do(func() { torn = capBuf.Snapshot() })
		return realKill()
	}

	// The survivor starts unregistered; the test registers it mid-run,
	// before the kill, so fail-over has somewhere to go.
	survivor, err := Spawn(SpawnConfig{Slots: bots})
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Shutdown()
	survPort := uint16(mustUDPPort(t, survivor.Addr()))
	stopReg := make(chan struct{})
	regDone := make(chan struct{})
	go func() {
		defer close(regDone)
		time.Sleep(time.Second)
		reg, err := discovery.Register(masterAddr, survPort, 200*time.Millisecond)
		if err != nil {
			return
		}
		<-stopReg
		reg.Stop()
	}()

	st, err := Run(context.Background(), Config{
		Targets:  []Target{victimTarget, survivor.Target()},
		Master:   masterAddr,
		Bots:     bots,
		CmdRate:  30,
		Duration: 7 * time.Second,
		// Reconnects are paced so fail-over takes ~500 ms: on loopback a
		// dead port refuses instantly and an unpaced fleet would resettle
		// between two monitor samples, hiding the failure window.
		ConnRate:        10,
		ConnBurst:       1,
		Monitor:         200 * time.Millisecond,
		KillAfter:       2 * time.Second,
		KillIndex:       0,
		SnapshotTimeout: 500 * time.Millisecond,
		BrowseTimeout:   300 * time.Millisecond,
		Seed:            11,
	})
	if err != nil {
		t.Fatal(err)
	}

	if st.Kill == nil {
		t.Fatal("no KillEvent in the stats")
	}
	if st.Kill.Target != victim.Target().Addr {
		t.Errorf("killed %s, want %s", st.Kill.Target, victim.Target().Addr)
	}
	if st.Kill.At < 2*time.Second || st.Kill.At > 4*time.Second {
		t.Errorf("kill at %v, want ~2s", st.Kill.At)
	}
	if st.Kill.RecoveredAt == 0 {
		t.Fatalf("fleet never recovered after the kill: %s", st.Final.MonitorLine())
	}
	if st.Kill.RecoveredAt <= st.Kill.At {
		t.Errorf("recovery at %v precedes the kill at %v", st.Kill.RecoveredAt, st.Kill.At)
	}
	if st.Final.Failovers < 1 {
		t.Errorf("%d failovers, want >= 1", st.Final.Failovers)
	}
	// Every bot was on the victim, so every bot must have failed over and
	// reconnected: connects = initial fleet + one reconnect per failover.
	if st.Final.Connects < int64(bots)+st.Final.Failovers {
		t.Errorf("%d connects for %d failovers over %d bots",
			st.Final.Connects, st.Final.Failovers, bots)
	}
	surviving := 0
	for _, b := range st.PerBot {
		if b.Server == survivor.Target().Addr {
			surviving++
		}
	}
	if surviving != bots {
		t.Errorf("%d/%d bots ended on the survivor", surviving, bots)
	}
	// The failure window must be visible in the monitor timeline: some
	// sample between kill and recovery shows a diminished fleet.
	dipped := false
	for _, s := range st.Samples {
		if s.T > st.Kill.At && s.Active < bots {
			dipped = true
		}
	}
	if !dipped {
		t.Error("no sample shows the fleet below strength after the kill")
	}

	// The whole story must survive the JSON round trip `-mode load -stats` uses.
	buf, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var rt Stats
	if err := json.Unmarshal(buf, &rt); err != nil {
		t.Fatal(err)
	}
	if rt.Kill == nil || *rt.Kill != *st.Kill {
		t.Errorf("KillEvent did not survive JSON: %+v", rt.Kill)
	}
	if rt.Final != st.Final {
		t.Errorf("final sample did not survive JSON")
	}

	// Capture-salvage leg: the bytes snapshotted at the kill are a file
	// with no footer and possibly a torn tail — the crash-only capture
	// contract says Recover salvages every sealed-and-synced segment from
	// them as ordinary, analyzable records.
	if len(torn) == 0 {
		t.Fatal("kill hook snapshotted no capture bytes")
	}
	ix, rep, err := trace.Recover(bytes.NewReader(torn), int64(len(torn)))
	if err != nil {
		t.Fatalf("salvaging the crash-point capture (%d bytes): %v", len(torn), err)
	}
	if len(ix.Segments) == 0 || rep.Records == 0 {
		t.Fatalf("nothing salvaged from %d crash-point bytes (%s)", len(torn), rep)
	}
	var salvaged trace.Collect
	n, err := trace.DecodeIndex(bytes.NewReader(torn), ix, &salvaged, 2)
	if err != nil {
		t.Fatalf("decoding the salvage: %v", err)
	}
	if n != rep.Records {
		t.Fatalf("salvage decoded %d records, report says %d", n, rep.Records)
	}
	for i := 1; i < len(salvaged.Records); i++ {
		if salvaged.Records[i].T < salvaged.Records[i-1].T {
			t.Fatalf("salvaged records out of order at %d: %v after %v",
				i, salvaged.Records[i].T, salvaged.Records[i-1].T)
		}
	}
	t.Logf("salvage: %s", rep)

	// No goroutine leak: after everything is torn down, the count returns
	// to (about) the baseline. The retry loop gives lingering readers time
	// to notice their closed sockets.
	close(stopReg)
	<-regDone
	survivor.Shutdown()
	victim.Shutdown()
	master.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Errorf("goroutines: %d at start, %d after shutdown", baseline, runtime.NumGoroutine())
}

func mustUDPPort(t *testing.T, addr string) int {
	t.Helper()
	a, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return a.Port
}
