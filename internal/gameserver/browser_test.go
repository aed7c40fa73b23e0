package gameserver

import (
	"context"
	"net"
	"testing"
	"time"

	"cstrace/internal/discovery"
)

// startServer spins up a live loopback server for browser tests.
func startNamedServer(t *testing.T, name string, slots int) *Server {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ServerName = name
	cfg.Slots = slots
	s, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go s.Serve(ctx)
	t.Cleanup(func() { s.Close() })
	return s
}

func gamePort(t *testing.T, s *Server) uint16 {
	t.Helper()
	ua, ok := s.Addr().(*net.UDPAddr)
	if !ok {
		t.Fatalf("server addr %T", s.Addr())
	}
	return uint16(ua.Port)
}

func TestQueryInfoLiveServer(t *testing.T) {
	s := startNamedServer(t, "Olygamer.com CS 24/7", 22)
	info, rtt, err := QueryInfo(s.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.ServerName != "Olygamer.com CS 24/7" {
		t.Errorf("name = %q", info.ServerName)
	}
	if info.MaxPlayers != 22 || info.Players != 0 {
		t.Errorf("occupancy = %d/%d", info.Players, info.MaxPlayers)
	}
	if info.Map != "de_dust2" {
		t.Errorf("map = %q", info.Map)
	}
	if info.Tick != 50 {
		t.Errorf("tick = %d ms", info.Tick)
	}
	if rtt <= 0 || rtt > time.Second {
		t.Errorf("rtt = %v", rtt)
	}
}

func TestQueryInfoCountsConnectedPlayers(t *testing.T) {
	s := startNamedServer(t, "occupancy", 22)
	bcfg := defaultBotConfig(s.Addr().String())
	bot, err := Dial(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go bot.Run(ctx)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && s.NumClients() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	info, _, err := QueryInfo(s.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Players != 1 {
		t.Errorf("players = %d, want 1", info.Players)
	}
}

func TestBrowseEndToEnd(t *testing.T) {
	// The full auto-discovery cycle: master + two live servers; the
	// browser must return both, ranked, with live occupancy lines.
	master, err := discovery.ListenMaster(discovery.MasterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	s1 := startNamedServer(t, "server-one", 22)
	s2 := startNamedServer(t, "server-two", 16)
	r1, err := discovery.Register(master.Addr().String(), gamePort(t, s1), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Stop()
	r2, err := discovery.Register(master.Addr().String(), gamePort(t, s2), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Stop()

	var lines []ServerLine
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		lines, err = Browse(master.Addr().String(), time.Second)
		if err == nil && len(lines) == 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("browsed %d servers, want 2", len(lines))
	}
	names := map[string]uint8{}
	for _, l := range lines {
		names[l.Info.ServerName] = l.Info.MaxPlayers
		if l.RTT <= 0 {
			t.Errorf("%s: rtt = %v", l.Info.ServerName, l.RTT)
		}
	}
	if names["server-one"] != 22 || names["server-two"] != 16 {
		t.Errorf("browse lines wrong: %v", names)
	}
	// RTT-sorted.
	if len(lines) == 2 && lines[0].RTT > lines[1].RTT {
		t.Error("lines not sorted by RTT")
	}
}

func TestBrowseDropsDeadServers(t *testing.T) {
	// An outage-paused server stays in the master list until TTL but
	// stops answering probes: Browse must drop it, reproducing the
	// discovery-driven player dip.
	master, err := discovery.ListenMaster(discovery.MasterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	s := startNamedServer(t, "alive", 22)
	r, err := discovery.Register(master.Addr().String(), gamePort(t, s), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	// Register a dead address too (nothing listens there).
	deadConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadPort := uint16(deadConn.LocalAddr().(*net.UDPAddr).Port)
	deadConn.Close() // now truly dead
	rd, err := discovery.Register(master.Addr().String(), deadPort, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Stop()

	deadline := time.Now().Add(5 * time.Second)
	var lines []ServerLine
	for time.Now().Before(deadline) {
		if got, err := discovery.Query(master.Addr().String(), time.Second); err == nil && len(got) == 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	lines, err = Browse(master.Addr().String(), 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || lines[0].Info.ServerName != "alive" {
		t.Errorf("lines = %+v, want only the live server", lines)
	}
}
