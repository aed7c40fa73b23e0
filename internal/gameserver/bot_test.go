package gameserver

import (
	"context"
	"errors"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return cond()
}

// TestBotDisconnectOnCancel locks down shutdown hygiene: an interrupted bot
// must leave with a Disconnect, so the server frees the slot immediately
// instead of waiting out the idle timeout.
func TestBotDisconnectOnCancel(t *testing.T) {
	srv, stop, _ := startServer(t, 4)
	defer stop()
	defer srv.Close()

	cfg := defaultBotConfig(srv.Addr().String())
	cfg.CmdRate = 50
	b, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- b.Run(ctx) }()

	waitFor(t, time.Second, func() bool { return b.Stats().CmdsSent > 5 })
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}

	if !waitFor(t, time.Second, func() bool { return srv.Stats().Disconnects == 1 }) {
		t.Fatalf("server saw %d disconnects, want 1", srv.Stats().Disconnects)
	}
	if n := srv.Stats().Timeouts; n != 0 {
		t.Fatalf("server timed the bot out (%d timeouts); shutdown did not disconnect", n)
	}
}

// TestBotDisconnectBypassesInjection: even with every user command dropped
// and heavy jitter configured, the farewell Disconnect must cross the wire —
// the disturbances model the data path, not the intent to leave.
func TestBotDisconnectBypassesInjection(t *testing.T) {
	srv, stop, _ := startServer(t, 4)
	defer stop()
	defer srv.Close()

	cfg := defaultBotConfig(srv.Addr().String())
	cfg.CmdRate = 100
	cfg.Drop = 1.0
	cfg.Jitter = 20 * time.Millisecond
	b, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- b.Run(ctx) }()

	waitFor(t, time.Second, func() bool { return b.Stats().CmdsDropped > 10 })
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}

	st := b.Stats()
	if st.CmdsSent != 0 {
		t.Errorf("drop=1.0 but %d commands crossed the socket", st.CmdsSent)
	}
	if st.CmdsDropped == 0 {
		t.Error("drop=1.0 counted no dropped commands")
	}
	if !waitFor(t, time.Second, func() bool { return srv.Stats().Disconnects == 1 }) {
		t.Fatalf("server saw %d disconnects, want 1", srv.Stats().Disconnects)
	}
}

// TestBotJitterStillDelivers: jitter delays sends but every command must
// eventually arrive (Run drains the delayed sends before returning).
func TestBotJitterStillDelivers(t *testing.T) {
	srv, stop, _ := startServer(t, 4)
	defer stop()
	defer srv.Close()

	cfg := defaultBotConfig(srv.Addr().String())
	cfg.CmdRate = 100
	cfg.Jitter = 5 * time.Millisecond
	b, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- b.Run(ctx) }()

	waitFor(t, 2*time.Second, func() bool { return b.Stats().CmdsSent > 20 })
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := b.Stats().CmdsSent; got <= 20 {
		t.Fatalf("jittered bot sent only %d commands", got)
	}
}

// TestBotDetectsSilentServer: with SnapshotTimeout set, a bot whose server
// vanishes mid-session returns ErrServerSilent (the fail-over trigger)
// rather than blocking until its context ends.
func TestBotDetectsSilentServer(t *testing.T) {
	srv, stop, _ := startServer(t, 4)
	defer srv.Close()

	cfg := defaultBotConfig(srv.Addr().String())
	cfg.CmdRate = 50
	cfg.SnapshotTimeout = 400 * time.Millisecond
	b, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- b.Run(ctx) }()

	waitFor(t, time.Second, func() bool { return b.Stats().SnapshotsRecv > 2 })
	stop() // crash the server: snapshots cease, no goodbye

	select {
	case err := <-done:
		if !errors.Is(err, ErrServerSilent) {
			t.Fatalf("Run returned %v, want ErrServerSilent", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("bot did not notice the dead server")
	}
}
