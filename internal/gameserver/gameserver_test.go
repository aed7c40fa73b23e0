package gameserver

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"cstrace/internal/protocol"
	"cstrace/internal/trace"
)

// startServer spins up a server with a capture tap and returns it plus a
// way to read the captured records.
func startServer(t *testing.T, slots int) (*Server, context.CancelFunc, func() []trace.Record) {
	t.Helper()
	var mu sync.Mutex
	var recs []trace.Record
	cfg := DefaultConfig()
	cfg.Slots = slots
	cfg.ClientTimeout = 1500 * time.Millisecond
	cfg.Tap = func(r trace.Record) {
		mu.Lock()
		recs = append(recs, r)
		mu.Unlock()
	}
	srv, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go srv.Serve(ctx)
	return srv, cancel, func() []trace.Record {
		mu.Lock()
		defer mu.Unlock()
		out := make([]trace.Record, len(recs))
		copy(out, recs)
		return out
	}
}

func runBots(t *testing.T, ctx context.Context, addr string, n int, rate float64) []*Bot {
	t.Helper()
	bots := make([]*Bot, 0, n)
	for i := 0; i < n; i++ {
		cfg := defaultBotConfig(addr)
		cfg.Name = "bot"
		cfg.CmdRate = rate
		cfg.Seed = uint64(i + 1)
		b, err := Dial(cfg)
		if err != nil {
			t.Fatalf("bot %d: %v", i, err)
		}
		bots = append(bots, b)
		go b.Run(ctx)
	}
	return bots
}

func TestServeBroadcastAndCommands(t *testing.T) {
	srv, cancel, getRecs := startServer(t, 8)
	defer cancel()

	botCtx, botCancel := context.WithCancel(context.Background())
	bots := runBots(t, botCtx, srv.Addr().String(), 4, 30)

	time.Sleep(1200 * time.Millisecond)
	// The bot assertions are about the connected steady state, so read the
	// stats before any bot disconnects: after botCancel a bot whose reader is
	// still open can record a snapshot sent after another bot has left.
	botStats := make([]BotStats, len(bots))
	for i, b := range bots {
		botStats[i] = b.Stats()
	}
	botCancel()
	time.Sleep(150 * time.Millisecond)
	cancel()

	if got := srv.Stats().Accepted; got != 4 {
		t.Errorf("accepted = %d, want 4", got)
	}
	st := srv.Stats()
	// ~24 ticks in 1.2s; each broadcasts to 4 clients.
	if st.Ticks < 15 {
		t.Errorf("ticks = %d, want ~24", st.Ticks)
	}
	if st.PacketsOut < 4*15 {
		t.Errorf("out packets = %d, too few for a broadcast loop", st.PacketsOut)
	}
	if st.PacketsIn < 4*20 {
		t.Errorf("in packets = %d, too few for 4 bots at 30 pps", st.PacketsIn)
	}

	for i, bs := range botStats {
		if bs.SnapshotsRecv < 10 {
			t.Errorf("bot %d received %d snapshots", i, bs.SnapshotsRecv)
		}
		if bs.CmdsSent < 20 {
			t.Errorf("bot %d sent %d cmds", i, bs.CmdsSent)
		}
		if bs.Entities != 4 {
			t.Errorf("bot %d last snapshot had %d entities, want 4", i, bs.Entities)
		}
	}

	// The tap must mirror the structural properties the paper measures:
	// more in packets than out here? (4 bots at 30pps in vs 20Hz out:
	// in 120pps vs out 80pps), and out packets larger than in.
	recs := getRecs()
	var in, out, inBytes, outBytes float64
	for _, r := range recs {
		if r.Dir == trace.In {
			in++
			inBytes += float64(r.App)
		} else {
			out++
			outBytes += float64(r.App)
		}
	}
	if in == 0 || out == 0 {
		t.Fatal("tap captured nothing")
	}
	if in <= out {
		t.Errorf("in packets (%v) should exceed out (%v) at 30pps cmd vs 20Hz ticks", in, out)
	}
	if outBytes/out <= inBytes/in {
		t.Errorf("mean out size (%.1f) should exceed mean in size (%.1f)",
			outBytes/out, inBytes/in)
	}
}

func TestServerFullRejects(t *testing.T) {
	srv, cancel, _ := startServer(t, 2)
	defer cancel()

	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	_ = runBots(t, ctx, srv.Addr().String(), 2, 20)

	cfg := defaultBotConfig(srv.Addr().String())
	cfg.Name = "latecomer"
	_, err := Dial(cfg)
	if !errors.Is(err, ErrServerFull) {
		t.Fatalf("err = %v, want ErrServerFull", err)
	}
	if got := srv.Stats().Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
}

func TestDisconnectFreesSlot(t *testing.T) {
	srv, cancel, _ := startServer(t, 1)
	defer cancel()

	ctx1, stop1 := context.WithCancel(context.Background())
	b1, err := Dial(defaultBotConfig(srv.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	go b1.Run(ctx1)
	time.Sleep(200 * time.Millisecond)
	stop1()
	time.Sleep(300 * time.Millisecond) // disconnect datagram lands

	if n := srv.NumClients(); n != 0 {
		t.Fatalf("clients = %d after disconnect", n)
	}
	// The slot is reusable.
	b2, err := Dial(defaultBotConfig(srv.Addr().String()))
	if err != nil {
		t.Fatalf("reconnect failed: %v", err)
	}
	ctx2, stop2 := context.WithCancel(context.Background())
	go b2.Run(ctx2)
	time.Sleep(200 * time.Millisecond)
	stop2()
	if got := srv.Stats().Accepted; got != 2 {
		t.Errorf("accepted = %d, want 2", got)
	}
}

func TestClientTimeout(t *testing.T) {
	srv, cancel, _ := startServer(t, 4)
	defer cancel()

	// Dial but never run: the bot sends no commands, so the server must
	// time it out.
	if _, err := Dial(defaultBotConfig(srv.Addr().String())); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(4 * time.Second)
	for time.Now().Before(deadline) {
		if srv.NumClients() == 0 {
			st := srv.Stats()
			if st.Timeouts != 1 {
				t.Errorf("timeouts = %d, want 1", st.Timeouts)
			}
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("idle client was never timed out")
}

func TestListenValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Slots = 0
	if _, err := Listen(cfg); err == nil {
		t.Error("want error for zero slots")
	}
	cfg = DefaultConfig()
	cfg.TickInterval = 0
	if _, err := Listen(cfg); err == nil {
		t.Error("want error for zero tick")
	}
}

func TestDialValidation(t *testing.T) {
	cfg := defaultBotConfig("127.0.0.1:1")
	cfg.CmdRate = 0
	if _, err := Dial(cfg); err == nil {
		t.Error("want error for zero cmd rate")
	}
}

func TestGarbageDatagramsIgnored(t *testing.T) {
	srv, cancel, _ := startServer(t, 2)
	defer cancel()

	conn, err := netDial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("not a game packet"))
	conn.Write([]byte{0})
	conn.Write(nil)
	time.Sleep(100 * time.Millisecond)
	if srv.NumClients() != 0 {
		t.Error("garbage should not create clients")
	}
}

// TestStrayDisconnectLeavesSessionUp: a disconnect datagram ends the session
// at its source address only when it decodes and names that client's slot.
// A truncated one and one carrying another slot's id leave the session up;
// the client's own disconnect removes it.
func TestStrayDisconnectLeavesSessionUp(t *testing.T) {
	srv, cancel, _ := startServer(t, 2)
	defer cancel()

	conn, err := netDial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req, err := (&protocol.ConnectRequest{Name: "raw"}).Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var acc protocol.ConnectAccept
	for buf := make([]byte, 2048); ; {
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("no accept: %v", err)
		}
		if acc.Unmarshal(buf[:n]) == nil {
			break
		}
	}
	bye := func(id uint8) []byte {
		b, err := (&protocol.Disconnect{PlayerID: id, Reason: "bye"}).Marshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for name, msg := range map[string][]byte{
		"truncated": bye(acc.PlayerID)[:4],
		"wrong id":  bye(acc.PlayerID + 1),
	} {
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Millisecond)
		if n := srv.NumClients(); n != 1 {
			t.Fatalf("%s disconnect: %d clients, want the session still up", name, n)
		}
	}
	if _, err := conn.Write(bye(acc.PlayerID)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Second); srv.NumClients() != 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the client's own disconnect left its session up")
		}
	}
	if got := srv.Stats().Disconnects; got != 1 {
		t.Errorf("disconnects = %d, want 1", got)
	}
}

// TestDialIgnoresMalformedReject: a reject that does not decode is no
// answer; Dial keeps waiting and takes the accept that follows it.
func TestDialIgnoresMalformedReject(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go func() {
		buf := make([]byte, 2048)
		_, from, err := pc.ReadFrom(buf)
		if err != nil {
			return
		}
		rej, _ := (&protocol.ConnectReject{Reason: "server full"}).Marshal(nil)
		acc, _ := (&protocol.ConnectAccept{PlayerID: 3, TickMillis: 50, MapName: "de_dust"}).Marshal(nil)
		pc.WriteTo(rej[:4], from) // claims 11 reason bytes, carries none
		pc.WriteTo(acc, from)
	}()
	b, err := Dial(defaultBotConfig(pc.LocalAddr().String()))
	if err != nil {
		t.Fatalf("Dial: %v, want the accept after the malformed reject", err)
	}
	defer b.conn.Close()
	if b.playerID != 3 {
		t.Errorf("slot %d, want 3 from the accept", b.playerID)
	}
}
