// Command csserver runs the reference UDP game server: a 50 ms snapshot
// broadcast loop with slot-limited admission, the live counterpart of the
// workload the paper traces. Point csload at it (csload -targets addr) and
// watch the traffic structure emerge.
//
//	csserver -addr 127.0.0.1:27015 -slots 22 -stats 10s
//	csserver -master 127.0.0.1:27010            # also register for discovery
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cstrace/internal/discovery"
	"cstrace/internal/gameserver"
	"cstrace/internal/loadtest"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("csserver: ")

	// A failed capture must turn into a nonzero exit, but only after every
	// deferred teardown has run — hence the first-registered exit hook.
	exitCode := 0
	defer func() {
		if exitCode != 0 {
			os.Exit(exitCode)
		}
	}()

	var (
		addr     = flag.String("addr", "127.0.0.1:27015", "UDP listen address")
		slots    = flag.Int("slots", 22, "player capacity")
		tick     = flag.Duration("tick", 50*time.Millisecond, "snapshot broadcast interval")
		timeout  = flag.Duration("timeout", 5*time.Second, "client idle timeout")
		mapName  = flag.String("map", "de_dust2", "map name")
		srvName  = flag.String("name", "cstrace reference server", "server browser display name")
		master   = flag.String("master", "", "master server address to register with (optional)")
		beat     = flag.Duration("heartbeat", time.Minute, "master heartbeat period")
		statsInt = flag.Duration("stats", 10*time.Second, "stats print interval")
		traceOut = flag.String("trace", "", "capture all traffic to this v4 trace file")
	)
	flag.Parse()

	cfg := gameserver.Config{
		Addr:          *addr,
		Slots:         *slots,
		TickInterval:  *tick,
		ClientTimeout: *timeout,
		MapName:       *mapName,
		ServerName:    *srvName,
	}
	var capture *loadtest.Capture
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("trace: %v", err)
		}
		// The capture writes the *os.File directly — no buffering wrapper —
		// so its per-segment fsync makes every sealed frame durable: a
		// SIGKILL at any point leaves a file `cstrace -mode salvage`
		// recovers. (The trace.Writer carries its own write buffer.)
		capture = loadtest.NewCapture(f, *tick)
		cfg.BatchTap = capture
		defer func() {
			sealErr := capture.Flush()
			if closeErr := f.Close(); sealErr == nil {
				sealErr = closeErr
			}
			if sealErr != nil {
				log.Printf("trace: capture failed to seal: %v (latched: %v) — salvage %s with cstrace -mode salvage",
					sealErr, capture.Err(), *traceOut)
				exitCode = 1
				return
			}
			log.Printf("trace written to %s", *traceOut)
		}()
	}
	srv, err := gameserver.Listen(cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s (%d slots, %v ticks, map %s)",
		srv.Addr(), *slots, *tick, *mapName)

	if *master != "" {
		port := uint16(srv.Addr().(*net.UDPAddr).Port)
		reg, err := discovery.Register(*master, port, *beat)
		if err != nil {
			log.Fatalf("master registration: %v", err)
		}
		defer reg.Stop()
		log.Printf("registered with master %s (heartbeat %v)", *master, *beat)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	go func() {
		t := time.NewTicker(*statsInt)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				st := srv.Stats()
				log.Printf("players=%d ticks=%d in=%d pkts/%d B out=%d pkts/%d B accepted=%d rejected=%d timeouts=%d",
					srv.NumClients(), st.Ticks, st.PacketsIn, st.BytesIn,
					st.PacketsOut, st.BytesOut, st.Accepted, st.Rejected, st.Timeouts)
			}
		}
	}()

	// Serve errors flow through the exit hook instead of log.Fatal so the
	// deferred capture seal still runs — the trace outlives the server.
	if err := srv.Serve(ctx); err != nil {
		log.Print(err)
		exitCode = 1
		return
	}
	log.Print("shut down")
}
