package loadtest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cstrace/internal/discovery"
	"cstrace/internal/gameserver"
	"cstrace/internal/trace"
)

// CaptureSegmentPayload is the live capture's raw segment size. Offline
// encoders favor big segments (compression ratio, decode parallelism); a
// capture that may be SIGKILLed favors small ones, because a crash loses at
// most the unsealed segment plus the reorder window. 2 KiB is a few hundred
// records — well under a second of tail at game-server rates.
const CaptureSegmentPayload = 2048

// Capture adapts a gameserver BatchTap to a v4 trace.Writer: the server's
// goroutines deliver coalesced record blocks concurrently, so writes are
// serialized under a mutex, and a SortWindow absorbs the bounded disorder
// between the tick-burst blocks and the coalesced read-loop records (a
// record may trail its datagram by up to one tick on either side of the
// interleave). Flush seals the trace; the file is then a normal v4 capture
// that cstrace.AnalyzeTrace reads like any simulated trace.
//
// The capture is crash-only: segments are small (CaptureSegmentPayload),
// every sealed frame is fsynced before the next begins (SyncEvery = 1, when
// out can Sync), and the writer's reorder window releases on every batch, so
// no record older than the window waits in memory. Kill the process at any
// point and the file on disk is a valid segment stream that trace.Recover
// salvages.
type Capture struct {
	mu sync.Mutex
	w  *trace.Writer
}

// NewCapture creates a capture writing the v4 format to out. tick is the
// server's TickInterval; the writer's reorder window is sized from it. When
// out has a Sync method (an *os.File — pass the file itself, not a
// buffering wrapper, or durability is silently lost), every sealed segment
// is fsynced.
func NewCapture(out io.Writer, tick time.Duration) *Capture {
	w := trace.NewWriter(out)
	w.SortWindow = 4 * tick
	w.SegmentPayload = CaptureSegmentPayload
	w.SyncEvery = 1
	return &Capture{w: w}
}

// HandleBatch implements trace.BatchHandler (the BatchTap contract).
func (c *Capture) HandleBatch(rs []trace.Record) {
	c.mu.Lock()
	c.w.HandleBatch(rs)
	c.mu.Unlock()
}

// Handle implements trace.Handler.
func (c *Capture) Handle(r trace.Record) {
	c.mu.Lock()
	c.w.Handle(r)
	c.mu.Unlock()
}

// Flush seals the trace and returns the first error latched anywhere on
// the write path. Call once, after the tapping server has stopped.
func (c *Capture) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.w.Err(); err != nil {
		return err
	}
	return c.w.Flush()
}

// Err returns the capture's latched write-path error without sealing it —
// what a CLI should print (and exit nonzero on) when the capture failed
// underneath a healthy-looking run.
func (c *Capture) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.w.Err()
}

// SpawnConfig parameterizes one in-process game server for a self-contained
// loopback load run.
type SpawnConfig struct {
	// Addr is the UDP listen address; empty means "127.0.0.1:0".
	Addr string
	// Slots, Tick and Name forward to gameserver.Config (zero values take
	// the gameserver defaults).
	Slots int
	Tick  time.Duration
	Name  string
	// ClientTimeout forwards to gameserver.Config.ClientTimeout.
	ClientTimeout time.Duration
	// Master, when non-empty, registers the server with that master using
	// Heartbeat (default 1s) — the discovery path bots browse for
	// fail-over.
	Master    string
	Heartbeat time.Duration
	// TraceOut, when non-nil, captures every datagram the server sends or
	// receives into a v4 trace written to it (via the server's BatchTap).
	TraceOut io.Writer
}

// Spawned is a running in-process server: a real UDP socket driven by the
// same gameserver code as cmd/csserver, plus the discovery registration and
// trace capture around it.
type Spawned struct {
	cfg    SpawnConfig
	srv    *gameserver.Server
	reg    *discovery.Registrant
	cap    *Capture
	cancel context.CancelFunc
	done   chan struct{}

	stopOnce sync.Once
	stopErr  error
}

// Spawn starts a server. The caller must end it with Kill (crash) or
// Shutdown (graceful); both seal the capture trace.
func Spawn(cfg SpawnConfig) (*Spawned, error) {
	gcfg := gameserver.DefaultConfig()
	if cfg.Addr != "" {
		gcfg.Addr = cfg.Addr
	}
	if cfg.Slots > 0 {
		gcfg.Slots = cfg.Slots
	}
	if cfg.Tick > 0 {
		gcfg.TickInterval = cfg.Tick
	}
	if cfg.Name != "" {
		gcfg.ServerName = cfg.Name
	}
	if cfg.ClientTimeout > 0 {
		gcfg.ClientTimeout = cfg.ClientTimeout
	}
	sp := &Spawned{cfg: cfg, done: make(chan struct{})}
	if cfg.TraceOut != nil {
		sp.cap = NewCapture(cfg.TraceOut, gcfg.TickInterval)
		gcfg.BatchTap = sp.cap
	}
	srv, err := gameserver.Listen(gcfg)
	if err != nil {
		return nil, err
	}
	sp.srv = srv
	if cfg.Master != "" {
		beat := cfg.Heartbeat
		if beat <= 0 {
			beat = time.Second
		}
		port := uint16(srv.Addr().(*net.UDPAddr).Port)
		reg, err := discovery.Register(cfg.Master, port, beat)
		if err != nil {
			srv.Close()
			return nil, fmt.Errorf("loadtest: register %s: %w", cfg.Master, err)
		}
		sp.reg = reg
	}
	ctx, cancel := context.WithCancel(context.Background())
	sp.cancel = cancel
	go func() {
		defer close(sp.done)
		_ = srv.Serve(ctx)
	}()
	return sp, nil
}

// Addr returns the server's bound UDP address.
func (s *Spawned) Addr() string { return s.srv.Addr().String() }

// Target returns the harness target for this server, with Kill wired as
// the disturbance hook.
func (s *Spawned) Target() Target {
	return Target{Addr: s.Addr(), Kill: s.Kill}
}

// stop ends the server once. graceful distinguishes a clean shutdown
// (deregister with a bye) from a crash (heartbeats just stop, and the
// master entry lapses by TTL — the paper's outage, where the server is
// invisible to browsing clients until it re-registers).
func (s *Spawned) stop(graceful bool) error {
	s.stopOnce.Do(func() {
		if s.reg != nil {
			if graceful {
				s.reg.Stop()
			} else {
				s.reg.Pause()
			}
		}
		s.cancel()
		<-s.done
		if s.cap != nil {
			// Seal the capture even on a kill: the crash semantics apply
			// to the socket, not to the measurement file.
			s.stopErr = s.cap.Flush()
		}
	})
	return s.stopErr
}

// Kill terminates the server as a crash: the socket closes mid-run and
// heartbeats stop without a deregistration, so discovery-driven clients
// must notice via failed probes. The capture trace is still sealed.
func (s *Spawned) Kill() error { return s.stop(false) }

// Shutdown ends the server gracefully: deregister, close, seal the trace.
func (s *Spawned) Shutdown() error { return s.stop(true) }

// errKillUnsupported reports a kill request against a target with no Kill
// hook (an external process csload cannot reach).
var errKillUnsupported = errors.New("loadtest: kill target has no Kill hook (external server?)")
