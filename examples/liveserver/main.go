// Live server: run the real UDP game server with bots over the loopback,
// capture every datagram through the tap, and push the capture through the
// same analysis pipeline used for the simulated week. The structure of the
// paper's traffic — in-packet excess, out-byte excess, 3x size ratio —
// emerges from the real network stack.
//
//	go run ./examples/liveserver
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"cstrace/internal/analysis"
	"cstrace/internal/discovery"
	"cstrace/internal/gameserver"
	"cstrace/internal/report"
	"cstrace/internal/trace"
)

func main() {
	const (
		bots    = 8
		playFor = 5 * time.Second
	)

	var mu sync.Mutex
	var records []trace.Record

	cfg := gameserver.DefaultConfig()
	// The batched tap hands each 50 ms broadcast burst over as one block:
	// one lock acquisition per tick instead of one per datagram.
	cfg.BatchTap = trace.BatchHandlerFunc(func(rs []trace.Record) {
		mu.Lock()
		records = append(records, rs...)
		mu.Unlock()
	})
	srv, err := gameserver.Listen(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ctx)
	}()
	log.Printf("server on %s", srv.Addr())

	// Auto-discovery, as the paper's players used it: register with a
	// master server, then browse — master list, info probe, RTT ranking.
	master, err := discovery.ListenMaster(discovery.MasterConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer master.Close()
	port := uint16(srv.Addr().(*net.UDPAddr).Port)
	reg, err := discovery.Register(master.Addr().String(), port, time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer reg.Stop()
	lines, err := gameserver.Browse(master.Addr().String(), time.Second)
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range lines {
		fmt.Printf("browser: %-28s %s  %d/%d on %s  rtt %v\n",
			l.Info.ServerName, l.Addr, l.Info.Players, l.Info.MaxPlayers,
			l.Info.Map, l.RTT.Round(time.Microsecond))
	}

	botCtx, stopBots := context.WithTimeout(context.Background(), playFor)
	defer stopBots()
	var wg sync.WaitGroup
	for i := 0; i < bots; i++ {
		bcfg := gameserver.DefaultBotConfig(srv.Addr().String())
		bcfg.Name = fmt.Sprintf("bot%02d", i)
		bcfg.Seed = uint64(i + 1)
		b, err := gameserver.Dial(bcfg)
		if err != nil {
			log.Fatalf("bot %d: %v", i, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = b.Run(botCtx)
		}()
	}
	wg.Wait()
	cancel()
	// Wait for Serve to return: its final FlushTap delivers any records
	// still coalesced in the batched tap before we snapshot.
	<-served

	// Feed the live capture through the paper's analysis.
	mu.Lock()
	captured := records
	mu.Unlock()
	suite, err := analysis.NewSuite(analysis.DefaultSuiteConfig(playFor))
	if err != nil {
		log.Fatal(err)
	}
	// A live capture can be disordered; the suite expects time order.
	sorter := trace.NewSortBuffer(2*cfg.TickInterval, suite)
	sorter.HandleBatch(captured)
	sorter.Flush()
	suite.Close()

	report.TableII(os.Stdout, suite.Count.TableII(playFor))
	report.TableIII(os.Stdout, suite.Count.TableIII())
	if w := suite.Window(10 * time.Millisecond); w != nil {
		report.Series(os.Stdout, "live capture: first 200 x 10ms bins (pps)", w.TotalPPS(), 72, 8)
	}

	st := srv.Stats()
	fmt.Printf("server: %d ticks, %d in / %d out packets, %d accepted\n",
		st.Ticks, st.PacketsIn, st.PacketsOut, st.Accepted)
}
