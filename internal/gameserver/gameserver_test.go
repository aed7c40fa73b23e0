package gameserver

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

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
		cfg := DefaultBotConfig(addr)
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

	cfg := DefaultBotConfig(srv.Addr().String())
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
	b1, err := Dial(DefaultBotConfig(srv.Addr().String()))
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
	b2, err := Dial(DefaultBotConfig(srv.Addr().String()))
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
	if _, err := Dial(DefaultBotConfig(srv.Addr().String())); err != nil {
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
	cfg := DefaultBotConfig("127.0.0.1:1")
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
