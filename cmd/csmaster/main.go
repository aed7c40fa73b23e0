// Command csmaster runs the master server behind "dynamic server
// auto-discovery" (§III-A): game servers register with heartbeats
// (csserver -master), clients fetch the list and probe each entry
// (csload -master).
//
//	csmaster -addr 127.0.0.1:27010 -ttl 5m
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cstrace/internal/discovery"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("csmaster: ")

	var (
		addr     = flag.String("addr", "127.0.0.1:27010", "UDP listen address")
		ttl      = flag.Duration("ttl", discovery.DefaultTTL, "registration lifetime without heartbeat")
		statsInt = flag.Duration("stats", 30*time.Second, "stats print interval")
	)
	flag.Parse()

	m, err := discovery.ListenMaster(discovery.MasterConfig{Addr: *addr, TTL: *ttl})
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	log.Printf("listening on %s (ttl %v)", m.Addr(), *ttl)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	t := time.NewTicker(*statsInt)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			log.Printf("shutting down")
			return
		case <-t.C:
			st := m.Stats()
			log.Printf("%d servers registered; %d heartbeats, %d queries, %d byes",
				len(m.Servers()), st.Heartbeats, st.Queries, st.Byes)
		}
	}
}
