package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/bits"
	"net"
	"os"
	"strings"
	"time"

	"cstrace"
	"cstrace/internal/analysis"
	"cstrace/internal/discovery"
	"cstrace/internal/gameserver"
	"cstrace/internal/gamesim"
	"cstrace/internal/loadtest"
	"cstrace/internal/trace"
)

// serveMode runs the reference server: a 50 ms snapshot broadcast loop
// with slot-limited admission, the live counterpart of the workload the
// paper traces. -master registers it for discovery; -trace captures every
// datagram into a crash-only v4 trace.
func serveMode(fs *flag.FlagSet) func() error {
	addr := fs.String("addr", "127.0.0.1:27015", "UDP listen address")
	slots := fs.Int("slots", 22, "player capacity")
	tick := fs.Duration("tick", 50*time.Millisecond, "snapshot broadcast interval")
	timeout := fs.Duration("timeout", 5*time.Second, "client idle timeout")
	mapName := fs.String("map", "de_dust2", "map name")
	srvName := fs.String("name", "cstrace reference server", "server browser display name")
	master := fs.String("master", "", "master server address to register with (optional)")
	beat := fs.Duration("heartbeat", time.Minute, "master heartbeat period")
	statsInt := fs.Duration("stats", 10*time.Second, "stats print interval")
	traceOut := fs.String("trace", "", "capture all traffic to this v4 trace file")
	return func() (err error) {
		if *statsInt <= 0 {
			return fmt.Errorf("-stats must be positive")
		}
		cfg := gameserver.Config{
			Addr:          *addr,
			Slots:         *slots,
			TickInterval:  *tick,
			ClientTimeout: *timeout,
			MapName:       *mapName,
			ServerName:    *srvName,
		}
		// The tap runs only once Serve starts, so the capture file is created
		// after the server has bound and registered: a rejected setting or a
		// busy port leaves an earlier capture at that path as it was.
		var capture *loadtest.Capture
		if *traceOut != "" {
			cfg.BatchTap = trace.BatchHandlerFunc(func(rs []trace.Record) { capture.HandleBatch(rs) })
		}
		srv, err := gameserver.Listen(cfg)
		if err != nil {
			return err
		}
		defer srv.Close()
		log.Printf("listening on %s (%d slots, %v ticks, map %s)", srv.Addr(), *slots, *tick, *mapName)

		if *master != "" {
			port := uint16(srv.Addr().(*net.UDPAddr).Port)
			reg, err := discovery.Register(*master, port, *beat)
			if err != nil {
				return fmt.Errorf("master registration: %w", err)
			}
			defer reg.Stop()
			log.Printf("registered with master %s (heartbeat %v)", *master, *beat)
		}

		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return fmt.Errorf("trace: %w", err)
			}
			// The capture writes the *os.File directly — no buffering
			// wrapper — so its per-segment fsync makes every sealed frame
			// durable: a SIGKILL at any point leaves a file `cstrace -mode
			// salvage` recovers. (The trace.Writer carries its own buffer.)
			capture = loadtest.NewCapture(f, *tick)
			// The seal runs on every way out after Serve has stopped the
			// tap, and a capture that fails to seal fails the run.
			defer func() {
				sealErr := capture.Flush()
				if closeErr := f.Close(); sealErr == nil {
					sealErr = closeErr
				}
				if sealErr != nil {
					err = errors.Join(err, fmt.Errorf("trace: capture failed to seal: %w (latched: %v) — salvage %s with cstrace -mode salvage",
						sealErr, capture.Err(), *traceOut))
					return
				}
				log.Printf("trace written to %s", *traceOut)
			}()
		}

		ctx, stop := untilSignal(0)
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
		if err := srv.Serve(ctx); err != nil {
			return err
		}
		log.Print("shut down")
		return nil
	}
}

// masterMode runs the master server behind "dynamic server auto-discovery"
// (§III-A): game servers register with heartbeats (serve -master), and
// clients fetch the list and probe each entry (load -master).
func masterMode(fs *flag.FlagSet) func() error {
	addr := fs.String("addr", "127.0.0.1:27010", "UDP listen address")
	ttl := fs.Duration("ttl", discovery.DefaultTTL, "registration lifetime without heartbeat")
	statsInt := fs.Duration("stats", 30*time.Second, "stats print interval")
	return func() error {
		if *statsInt <= 0 {
			return fmt.Errorf("-stats must be positive")
		}
		m, err := discovery.ListenMaster(discovery.MasterConfig{Addr: *addr, TTL: *ttl})
		if err != nil {
			return err
		}
		defer m.Close()
		log.Printf("listening on %s (ttl %v)", m.Addr(), *ttl)

		ctx, stop := untilSignal(0)
		defer stop()
		t := time.NewTicker(*statsInt)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				log.Printf("shutting down")
				return nil
			case <-t.C:
				st := m.Stats()
				log.Printf("%d servers registered; %d heartbeats, %d queries, %d byes",
					len(m.Servers()), st.Heartbeats, st.Queries, st.Byes)
			}
		}
	}
}

// loadMode drives bot connections at a target user-command rate against
// game servers, prints a monitor line, injects disturbances (server kill,
// client-path loss and jitter), and writes a JSON summary.
//
// With -spawn the harness runs its own servers (and master) on loopback —
// real UDP sockets driven by the same gameserver code as serve — which is
// what makes -kill-after and -trace possible without outside orchestration.
// -trace captures each spawned server's datagrams into a v4 trace; -compare
// then analyzes the captures next to a matched in-process simulation,
// printing the simulated-vs-actual report that closes the loop between the
// traffic model and the kernel's UDP stack.
func loadMode(fs *flag.FlagSet) func() error {
	targets := fs.String("targets", "", "comma-separated game server addresses to load")
	master := fs.String("master", "", "master server address for discovery-driven connects")
	spawn := fs.Int("spawn", 0, "spawn this many in-process loopback servers (self-contained mode)")
	bots := fs.Int("bots", 8, "concurrent bot connections to hold open")
	rate := fs.Float64("rate", 24, "user commands per second per bot")
	runFor := forFlag(fs, 30*time.Second)
	connRate := fs.Float64("connrate", 0, "connection attempts per second (0 = unlimited)")
	connBurst := fs.Int("connburst", 1, "connection attempt burst size")
	monitor := fs.Duration("monitor", time.Second, "monitor line interval")
	statsOut := fs.String("stats", "", "write the JSON run summary to this file")
	seed := fs.Uint64("seed", 1, "seed for bot movement and injection randomness")
	drop := fs.Float64("drop", 0, "probability a user command is dropped before send")
	jitter := fs.Duration("jitter", 0, "stddev of the half-normal delay added to each send")
	killAfter := fs.Duration("kill-after", 0, "kill one spawned server this long into the run")
	killIdx := fs.Int("kill", 0, "index of the spawned server to kill")
	slots := fs.Int("slots", 22, "player capacity of each spawned server")
	tick := fs.Duration("tick", 50*time.Millisecond, "snapshot interval of spawned servers")
	heartbeat := fs.Duration("heartbeat", 500*time.Millisecond, "spawned servers' master heartbeat")
	tracePfx := fs.String("trace", "", "capture each spawned server's traffic to <prefix>-<i>.trace")
	compare := fs.Bool("compare", false, "after the run, analyze the capture(s) against a matched simulation")
	return func() (err error) {
		cfg := loadtest.Config{
			Master:    *master,
			Bots:      *bots,
			CmdRate:   *rate,
			Duration:  *runFor,
			ConnRate:  *connRate,
			ConnBurst: *connBurst,
			Monitor:   *monitor,
			Logf:      log.Printf,
			Drop:      *drop,
			Jitter:    *jitter,
			KillAfter: *killAfter,
			KillIndex: *killIdx,
			Seed:      *seed,
		}
		for _, a := range strings.Split(*targets, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.Targets = append(cfg.Targets, loadtest.Target{Addr: a})
			}
		}
		// Every rejection comes before a server is spawned or a capture
		// file is truncated.
		switch {
		case *spawn <= 0 && *targets == "" && *master == "":
			return errors.New("nothing to load: give -targets, -master, or -spawn")
		case *killAfter > 0 && *spawn <= 0:
			return errors.New("-kill-after needs -spawn: external servers expose no kill hook")
		case (*tracePfx != "" || *compare) && *spawn <= 0:
			return errors.New("-trace/-compare need -spawn: capture taps an in-process server")
		case *compare && *tracePfx == "":
			return errors.New("-compare needs -trace: there is no capture to analyze")
		case *bots <= 0 || *rate <= 0:
			return errors.New("-bots and -rate must be positive")
		case *killAfter > 0 && (*killIdx < len(cfg.Targets) || *killIdx >= len(cfg.Targets)+*spawn):
			return fmt.Errorf("-kill %d names no spawned server", *killIdx)
		}
		ctx, stop := untilSignal(0)
		defer stop()

		// teardown shuts the spawned servers down, sealing their captures,
		// and closes the capture files, on every way out. A capture that
		// failed to seal is a failed run: the measurement is the product.
		var spawned []*loadtest.Spawned
		var files []*os.File
		teardown := func() error {
			var errs []error
			for i, s := range spawned {
				if err := s.Shutdown(); err != nil {
					errs = append(errs, fmt.Errorf("shutdown %d: capture failed to seal: %w (salvage with cstrace -mode salvage)", i, err))
				}
			}
			for _, f := range files {
				if err := f.Close(); err != nil {
					errs = append(errs, fmt.Errorf("trace close: %w", err))
				}
			}
			spawned, files = nil, nil
			return errors.Join(errs...)
		}
		defer func() { err = errors.Join(err, teardown()) }()
		if *spawn > 0 {
			masterAddr := *master
			if masterAddr == "" {
				ttl := max(6**heartbeat, 2*time.Second)
				m, err := discovery.ListenMaster(discovery.MasterConfig{Addr: "127.0.0.1:0", TTL: ttl})
				if err != nil {
					return fmt.Errorf("master: %w", err)
				}
				defer m.Close()
				masterAddr = m.Addr().String()
				cfg.Master = masterAddr
				log.Printf("master on %s (ttl %v)", masterAddr, ttl)
			}
			for i := 0; i < *spawn; i++ {
				scfg := loadtest.SpawnConfig{
					Slots:     *slots,
					Tick:      *tick,
					Name:      fmt.Sprintf("csload-%d", i),
					Master:    masterAddr,
					Heartbeat: *heartbeat,
				}
				if *tracePfx != "" {
					name := fmt.Sprintf("%s-%d.trace", *tracePfx, i)
					f, err := os.Create(name)
					if err != nil {
						return fmt.Errorf("trace: %w", err)
					}
					// The capture gets the *os.File itself so its
					// per-segment fsync is real durability: a crashed run
					// leaves salvageable traces, not a full buffer of lost
					// records.
					scfg.TraceOut = f
					files = append(files, f)
				}
				s, err := loadtest.Spawn(scfg)
				if err != nil {
					return fmt.Errorf("spawn %d: %w", i, err)
				}
				log.Printf("server %d on %s", i, s.Addr())
				spawned = append(spawned, s)
				cfg.Targets = append(cfg.Targets, s.Target())
			}
		}

		start := time.Now()
		st, err := loadtest.Run(ctx, cfg)
		if err != nil {
			return fmt.Errorf("run: %w", err)
		}
		// Seal the captures before any analysis touches them. The killed
		// server is already stopped; Shutdown is idempotent.
		captures := files
		sealErr := teardown()

		log.Printf("done in %v: %s", time.Since(start).Round(time.Millisecond), st.Final.MonitorLine())
		if k := st.Kill; k != nil {
			if k.RecoveredAt > 0 {
				log.Printf("kill %s at %v, fleet recovered at %v (window %v)",
					k.Target, k.At.Round(time.Millisecond), k.RecoveredAt.Round(time.Millisecond),
					(k.RecoveredAt - k.At).Round(time.Millisecond))
			} else {
				log.Printf("kill %s at %v, fleet did not fully recover before the end",
					k.Target, k.At.Round(time.Millisecond))
			}
		}
		if *statsOut != "" {
			buf, err := json.MarshalIndent(st, "", "  ")
			if err == nil {
				err = os.WriteFile(*statsOut, append(buf, '\n'), 0o644)
			}
			if err != nil {
				return fmt.Errorf("stats: %w", err)
			}
			log.Printf("stats written to %s", *statsOut)
		}
		if *compare {
			if err := compareRun(os.Stdout, st, captures, *tick, *slots, *seed); err != nil {
				return errors.Join(sealErr, fmt.Errorf("compare: %w", err))
			}
		}
		return sealErr
	}
}

// compareRun analyzes the captures and a simulation matched to the run's
// shape (same slots, tick, command rate, a stable full house) and prints
// the side-by-side report. Counters and size histograms of the captures
// merge exactly; interarrival quantiles come from the busiest capture
// (interarrival state is not mergeable across independent sockets, and the
// busiest server is the representative one).
func compareRun(w io.Writer, st *loadtest.Stats, files []*os.File, tick time.Duration, slots int, seed uint64) error {
	act := &capturesAnalysis{}
	for _, f := range files {
		g, err := os.Open(f.Name())
		if err != nil {
			return err
		}
		a, err := cstrace.AnalyzeTrace(g, cstrace.AutoWorkers)
		g.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", f.Name(), err)
		}
		act.Records += a.Records
		act.PacketsIn += a.Suite.Count.PacketsIn
		act.PacketsOut += a.Suite.Count.PacketsOut
		act.BytesIn += a.Suite.Count.AppBytesIn
		act.BytesOut += a.Suite.Count.AppBytesOut
		if act.Sizes == nil {
			act.Sizes = a.Suite.Sizes
		} else {
			act.Sizes.In.Merge(a.Suite.Sizes.In)
			act.Sizes.Out.Merge(a.Suite.Sizes.Out)
		}
		if act.busiest == nil || a.Records > act.busiest.Records {
			act.busiest = a
		}
	}
	if act.busiest == nil {
		return fmt.Errorf("no captures analyzed")
	}
	sim, err := matchedSim(st, tick, slots, seed)
	if err != nil {
		return err
	}
	writeComparison(w, sim, act, tick)
	return nil
}

// capturesAnalysis aggregates the analyses of every per-server capture.
type capturesAnalysis struct {
	Records, PacketsIn, PacketsOut, BytesIn, BytesOut int64
	Sizes                                             *analysis.SizeDist
	busiest                                           *cstrace.TraceAnalysis
}

// matchedSim runs the repository's traffic model with the harness's shape —
// a full house of ordinary clients at the run's command rate and tick, no
// diurnal cycle, no downloads, no outages — and analyzes it through the same
// trace pipeline the capture went through.
func matchedSim(st *loadtest.Stats, tick time.Duration, slots int, seed uint64) (*cstrace.TraceAnalysis, error) {
	cfg := gamesim.PaperConfig(seed)
	cfg.Duration = max(st.Duration.Truncate(tick), tick)
	cfg.Warmup = 0
	cfg.Slots = slots
	cfg.TickInterval = tick
	cfg.CmdRate = st.CmdRate
	// Saturate admission instantly and keep everyone seated: the harness
	// holds a fixed fleet, so the sim should too.
	cfg.AttemptRate = float64(st.Bots) * 10
	cfg.SessionMean = cfg.Duration.Seconds() * 100
	cfg.MinSession = cfg.SessionMean
	cfg.DiurnalAmp = 0
	cfg.SpikeMult = 0
	cfg.TouristFrac = 0
	cfg.EliteFrac = 0
	cfg.LogoDownloadProb = 0
	cfg.LogoUploadProb = 0
	cfg.Outages = nil
	cfg.MapDuration = cfg.Duration + time.Hour
	if st.Bots < slots {
		// The harness fleet may be smaller than the server: cap the sim's
		// population so occupancy matches.
		cfg.Slots = st.Bots
	}

	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	if _, err := gamesim.Run(cfg, tw, nil); err != nil {
		return nil, err
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	return cstrace.AnalyzeTrace(bytes.NewReader(buf.Bytes()), cstrace.AutoWorkers)
}

// tickBucketMass returns the fraction of direction-d interarrivals in the
// log₂ bucket containing the tick interval: bucket b of the Interarrival
// histogram covers gaps in [2^(b-1), 2^b) µs, so the tick's bucket index is
// bits.Len of its microsecond count.
func tickBucketMass(a *cstrace.TraceAnalysis, d trace.Direction, tick time.Duration) float64 {
	_, counts := a.Suite.Gaps.Histogram(d)
	idx := min(bits.Len64(uint64(tick.Microseconds())), len(counts)-1)
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	return float64(counts[idx]) / float64(total)
}

func writeComparison(w io.Writer, sim *cstrace.TraceAnalysis, act *capturesAnalysis, tick time.Duration) {
	b := act.busiest
	fmt.Fprintf(w, "\nsimulated vs actual (matched gamesim vs live capture)\n")
	fmt.Fprintf(w, "%-34s %14s %14s\n", "metric", "simulated", "actual")
	row := func(name string, sv, av any) {
		fmt.Fprintf(w, "%-34s %14v %14v\n", name, sv, av)
	}
	row("records", sim.Records, act.Records)
	row("packets in (client→server)", sim.Suite.Count.PacketsIn, act.PacketsIn)
	row("packets out (server→client)", sim.Suite.Count.PacketsOut, act.PacketsOut)
	row("app bytes in", sim.Suite.Count.AppBytesIn, act.BytesIn)
	row("app bytes out", sim.Suite.Count.AppBytesOut, act.BytesOut)
	row("mean in payload (B)",
		fmt.Sprintf("%.1f", sim.Suite.Sizes.In.Mean()),
		fmt.Sprintf("%.1f", act.Sizes.In.Mean()))
	row("mean out payload (B)",
		fmt.Sprintf("%.1f", sim.Suite.Sizes.Out.Mean()),
		fmt.Sprintf("%.1f", act.Sizes.Out.Mean()))
	row("out interarrival p50",
		sim.Suite.Gaps.Quantile(trace.Out, 0.5),
		b.Suite.Gaps.Quantile(trace.Out, 0.5))
	row("in interarrival p50",
		sim.Suite.Gaps.Quantile(trace.In, 0.5),
		b.Suite.Gaps.Quantile(trace.In, 0.5))
	row(fmt.Sprintf("out mass in %v log2 bucket", tick),
		fmt.Sprintf("%.3f", tickBucketMass(sim, trace.Out, tick)),
		fmt.Sprintf("%.3f", tickBucketMass(b, trace.Out, tick)))
	fmt.Fprintf(w, "(interarrival rows use the busiest capture; counters and sizes aggregate all captures)\n")
}
