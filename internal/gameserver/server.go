// Package gameserver implements a real UDP game server and bot client
// speaking the internal/protocol wire format. It reproduces, on an actual
// network stack, the traffic structure the paper measures: a 50 ms snapshot
// broadcast loop to every connected client, small fixed-rate client command
// streams, slot-limited admission with rejects, and idle timeouts.
//
// A Tap hook exposes every datagram as a trace.Record so that live loopback
// traffic feeds the same analysis pipeline as the simulator and pcap files.
package gameserver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"cstrace/internal/protocol"
	"cstrace/internal/trace"
)

// Config parameterizes the server.
type Config struct {
	// Addr is the UDP listen address, e.g. "127.0.0.1:0".
	Addr string
	// Slots is the player capacity (the paper's server ran 22).
	Slots int
	// TickInterval is the snapshot broadcast period (50 ms).
	TickInterval time.Duration
	// ClientTimeout disconnects clients that go silent (the trace's
	// "disconnect after not hearing from each other over a period of
	// several seconds").
	ClientTimeout time.Duration
	// MapName is reported in the connect handshake.
	MapName string
	// ServerName is the display name reported to server-browser probes.
	ServerName string
	// Tap, if set, receives one record per datagram sent or received,
	// timestamped relative to server start. It is called from the server
	// goroutines; implementations must be fast and thread-safe.
	Tap func(r trace.Record)
	// BatchTap, if set, takes precedence over Tap and receives records in
	// blocks: the synchronous tick broadcast arrives as one block per
	// tick (the paper's 50 ms burst, preserved as a unit), and other
	// datagrams coalesce into blocks delivered at least once per tick —
	// so a record may trail its datagram by up to one TickInterval.
	// Records carry capture timestamps, and implementations must copy
	// any records they retain. Called from the server goroutines;
	// implementations must be fast and thread-safe.
	BatchTap trace.BatchHandler
}

// DefaultConfig returns a 22-slot, 50 ms server on an ephemeral port.
func DefaultConfig() Config {
	return Config{
		Addr:          "127.0.0.1:0",
		Slots:         22,
		TickInterval:  50 * time.Millisecond,
		ClientTimeout: 5 * time.Second,
		MapName:       "de_dust2",
		ServerName:    "cstrace reference server",
	}
}

// Stats counts server activity.
type Stats struct {
	Accepted    int64
	Rejected    int64
	Disconnects int64
	Timeouts    int64
	Ticks       int64
	PacketsIn   int64
	PacketsOut  int64
	BytesIn     int64
	BytesOut    int64
}

type clientState struct {
	id       uint8
	addr     netip.AddrPort
	name     string
	lastSeen time.Time
	x, y, z  int16
	yaw      uint8
	anim     uint8
	session  uint32
}

// Server is a running game server.
type Server struct {
	cfg   Config
	conn  net.PacketConn
	start time.Time

	mu          sync.Mutex
	clients     map[netip.AddrPort]*clientState
	freeIDs     []uint8
	stats       Stats
	nextSession uint32

	// tapSink coalesces per-datagram tap records into blocks when a
	// BatchTap is configured; the tick loop flushes it every tick and
	// Close flushes it a final time.
	tapSink *trace.LockedBatcher

	closed chan struct{}
	once   sync.Once
}

// Listen binds the server socket. Call Serve to start the loops.
func Listen(cfg Config) (*Server, error) {
	if cfg.Slots <= 0 {
		return nil, errors.New("gameserver: Slots must be positive")
	}
	if cfg.TickInterval <= 0 {
		return nil, errors.New("gameserver: TickInterval must be positive")
	}
	if cfg.ClientTimeout <= 0 {
		cfg.ClientTimeout = 5 * time.Second
	}
	conn, err := net.ListenPacket("udp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("gameserver: listen: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		conn:    conn,
		start:   time.Now(),
		clients: make(map[netip.AddrPort]*clientState),
		closed:  make(chan struct{}),
	}
	if cfg.BatchTap != nil {
		s.tapSink = trace.NewLockedBatcher(cfg.BatchTap)
	}
	for id := cfg.Slots - 1; id >= 0; id-- {
		s.freeIDs = append(s.freeIDs, uint8(id))
	}
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() net.Addr { return s.conn.LocalAddr() }

// Serve runs the reader and tick loops until ctx is canceled or Close is
// called.
func (s *Server) Serve(ctx context.Context) error {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.readLoop()
	}()
	go func() {
		defer wg.Done()
		s.tickLoop(ctx)
	}()
	<-ctx.Done()
	s.Close()
	wg.Wait()
	// Final flush after both loops have stopped, so records tapped while
	// the shutdown raced the loops still reach the BatchTap.
	s.FlushTap()
	return nil
}

// Close shuts the server down. When Serve is not used, call FlushTap after
// the processing goroutines stop to deliver any coalesced tap records.
func (s *Server) Close() error {
	var err error
	s.once.Do(func() {
		close(s.closed)
		err = s.conn.Close()
	})
	return err
}

// FlushTap delivers any coalesced BatchTap records immediately. Serve calls
// it automatically after its loops exit.
func (s *Server) FlushTap() {
	if s.tapSink != nil {
		s.tapSink.Flush()
	}
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// NumClients returns the number of connected players.
func (s *Server) NumClients() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.clients)
}

func (s *Server) tap(dir trace.Direction, kind trace.Kind, session uint32, n int) {
	if s.tapSink == nil && s.cfg.Tap == nil {
		return
	}
	r := trace.Record{
		T:      time.Since(s.start),
		Dir:    dir,
		Kind:   kind,
		Client: session,
		App:    uint16(n),
	}
	if s.tapSink != nil {
		s.tapSink.Handle(r) // coalesced; flushed each tick and on Close
		return
	}
	s.cfg.Tap(r)
}

// send writes one datagram and taps it individually. The tick broadcast
// bypasses it to tap the whole burst as one block.
func (s *Server) send(addr netip.AddrPort, kind trace.Kind, session uint32, payload []byte) {
	n, ok := s.write(addr, payload)
	if ok {
		s.tap(trace.Out, kind, session, n)
	}
}

func (s *Server) write(addr netip.AddrPort, payload []byte) (int, bool) {
	n, err := s.conn.WriteTo(payload, net.UDPAddrFromAddrPort(addr))
	if err != nil {
		return 0, false
	}
	s.mu.Lock()
	s.stats.PacketsOut++
	s.stats.BytesOut += int64(n)
	s.mu.Unlock()
	return n, true
}

func (s *Server) readLoop() {
	buf := make([]byte, 2048)
	for {
		n, from, err := s.conn.ReadFrom(buf)
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				continue
			}
		}
		udp, ok := from.(*net.UDPAddr)
		if !ok {
			continue
		}
		s.handleDatagram(udp.AddrPort(), buf[:n])
	}
}

func (s *Server) handleDatagram(from netip.AddrPort, b []byte) {
	typ, err := protocol.Peek(b)
	if err != nil {
		return // not ours; drop silently as real servers do
	}

	s.mu.Lock()
	s.stats.PacketsIn++
	s.stats.BytesIn += int64(len(b))
	c := s.clients[from]
	var session uint32
	if c != nil {
		session = c.session
	}
	s.mu.Unlock()

	kind := trace.KindGame
	if typ != protocol.MsgUserCmd {
		kind = trace.KindHandshake
	}
	s.tap(trace.In, kind, session, len(b))

	switch typ {
	case protocol.MsgConnectRequest:
		var req protocol.ConnectRequest
		if req.Unmarshal(b) != nil {
			return
		}
		s.handleConnect(from, req)
	case protocol.MsgUserCmd:
		var cmd protocol.UserCmd
		if cmd.Unmarshal(b) != nil {
			return
		}
		s.handleUserCmd(from, cmd)
	case protocol.MsgDisconnect:
		// Only the client at this address, naming its own slot, can leave:
		// a truncated or stray datagram must not end a live session.
		var bye protocol.Disconnect
		if bye.Unmarshal(b) != nil || c == nil || bye.PlayerID != c.id {
			return
		}
		s.removeClient(from, false)
	case protocol.MsgInfoRequest:
		s.handleInfoRequest(from)
	}
}

// handleInfoRequest answers a server-browser probe with the current
// occupancy line. Probes are stateless: anyone may ask, no slot is held.
func (s *Server) handleInfoRequest(from netip.AddrPort) {
	s.mu.Lock()
	players := len(s.clients)
	name := s.cfg.ServerName
	mapName := s.cfg.MapName
	s.mu.Unlock()
	resp := protocol.InfoResponse{
		ServerName: name,
		Map:        mapName,
		Players:    uint8(players),
		MaxPlayers: uint8(s.cfg.Slots),
		Tick:       uint16(s.cfg.TickInterval / time.Millisecond),
	}
	b, err := resp.Marshal(nil)
	if err != nil {
		return
	}
	s.send(from, trace.KindHandshake, 0, b)
}

func (s *Server) handleConnect(from netip.AddrPort, req protocol.ConnectRequest) {
	s.mu.Lock()
	if c, ok := s.clients[from]; ok {
		// Duplicate connect: re-accept idempotently.
		id, session := c.id, c.session
		s.mu.Unlock()
		s.sendAccept(from, id, session)
		return
	}
	if len(s.freeIDs) == 0 {
		s.stats.Rejected++
		s.mu.Unlock()
		msg, err := (&protocol.ConnectReject{Reason: "server full"}).Marshal(nil)
		if err == nil {
			s.send(from, trace.KindHandshake, 0, msg)
		}
		return
	}
	id := s.freeIDs[len(s.freeIDs)-1]
	s.freeIDs = s.freeIDs[:len(s.freeIDs)-1]
	s.nextSession++
	c := &clientState{
		id:       id,
		addr:     from,
		name:     req.Name,
		lastSeen: time.Now(),
		session:  s.nextSession,
	}
	s.clients[from] = c
	s.stats.Accepted++
	session := c.session
	s.mu.Unlock()
	s.sendAccept(from, id, session)
}

func (s *Server) sendAccept(to netip.AddrPort, id uint8, session uint32) {
	acc := protocol.ConnectAccept{
		PlayerID:   id,
		TickMillis: uint16(s.cfg.TickInterval / time.Millisecond),
		MapName:    s.cfg.MapName,
	}
	msg, err := acc.Marshal(nil)
	if err == nil {
		s.send(to, trace.KindHandshake, session, msg)
	}
}

func (s *Server) handleUserCmd(from netip.AddrPort, cmd protocol.UserCmd) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.clients[from]
	if !ok {
		return
	}
	c.lastSeen = time.Now()
	// Apply the movement to the world state.
	c.x += int16(cmd.MoveX)
	c.y += int16(cmd.MoveY)
	c.yaw = uint8(cmd.Yaw >> 8)
	c.anim = uint8(cmd.Buttons & 0x3)
}

func (s *Server) removeClient(from netip.AddrPort, timeout bool) {
	s.mu.Lock()
	c, ok := s.clients[from]
	if ok {
		delete(s.clients, from)
		s.freeIDs = append(s.freeIDs, c.id)
		s.stats.Disconnects++
		if timeout {
			s.stats.Timeouts++
		}
	}
	s.mu.Unlock()
}

// tickLoop broadcasts world snapshots every TickInterval — the synchronous
// flood the paper identifies as the source of the 50 ms bursts.
func (s *Server) tickLoop(ctx context.Context) {
	ticker := time.NewTicker(s.cfg.TickInterval)
	defer ticker.Stop()
	var tick uint32
	events := make([]byte, 0, 64)
	burst := make([]trace.Record, 0, s.cfg.Slots)
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.closed:
			return
		case <-ticker.C:
		}
		tick++

		s.mu.Lock()
		s.stats.Ticks++
		now := time.Now()
		snap := protocol.Snapshot{Tick: tick}
		var stale []netip.AddrPort
		for addr, c := range s.clients {
			if now.Sub(c.lastSeen) > s.cfg.ClientTimeout {
				stale = append(stale, addr)
				continue
			}
			snap.Entities = append(snap.Entities, protocol.EntityState{
				ID: c.id, X: c.x, Y: c.y, Z: c.z, Yaw: c.yaw, Anim: c.anim,
			})
		}
		// Variable-length event padding: more players, more action.
		events = events[:0]
		for i := 0; i < len(snap.Entities); i++ {
			events = append(events, byte(tick), byte(i), 0, 0)
		}
		snap.Events = events
		targets := make([]struct {
			addr    netip.AddrPort
			session uint32
		}, 0, len(s.clients))
		for addr, c := range s.clients {
			if now.Sub(c.lastSeen) <= s.cfg.ClientTimeout {
				targets = append(targets, struct {
					addr    netip.AddrPort
					session uint32
				}{addr, c.session})
			}
		}
		s.mu.Unlock()

		for _, addr := range stale {
			s.removeClient(addr, true)
		}
		if s.tapSink != nil {
			// Per-tick latency bound for coalesced records, broadcast
			// or not.
			s.tapSink.Flush()
		}
		if len(targets) == 0 {
			continue
		}
		msg, err := snap.Marshal(nil)
		if err != nil {
			continue
		}
		// Back-to-back burst to every client: the paper's periodic spike.
		// With a BatchTap the whole burst taps as one block, so the
		// 50 ms spike reaches the analysis pipeline as the unit it is;
		// delivering it through the sink also flushes any coalesced
		// per-datagram records first, keeping the tick latency bound.
		if s.tapSink != nil {
			burst = burst[:0]
			for _, t := range targets {
				if n, ok := s.write(t.addr, msg); ok {
					burst = append(burst, trace.Record{
						T:      time.Since(s.start),
						Dir:    trace.Out,
						Kind:   trace.KindGame,
						Client: t.session,
						App:    uint16(n),
					})
				}
			}
			s.tapSink.HandleBatch(burst)
		} else {
			for _, t := range targets {
				s.send(t.addr, trace.KindGame, t.session, msg)
			}
		}
	}
}
