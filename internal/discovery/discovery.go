// Package discovery implements the master-server protocol behind "dynamic
// server auto-discovery": game servers register with periodic heartbeats,
// clients fetch the address list and probe each entry with the game
// protocol's info query.
//
// The paper invokes exactly this machinery to explain the player dips
// around its three network outages: "while some of the players, having
// recorded the server's IP address, immediately reconnected, a significant
// number did not as they relied on dynamic server auto-discovery and
// auto-connecting to find this particular game server" (§III-A, citing
// Henderson's NetGames observations). A registration lapses when heartbeats
// stop, and a lapsed server is invisible to browsing clients until its next
// heartbeat lands — so a seconds-long outage produces a minutes-long dip,
// bounded by the heartbeat period plus the clients' own browse cadence.
//
// The wire format is a tiny binary UDP protocol of its own (the real
// Half-Life master protocol was likewise separate from the game protocol):
// a one-byte opcode followed by big-endian fields.
package discovery

import (
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"sort"
	"sync"
	"time"
)

// Opcodes.
const (
	opHeartbeat = 0x71 // server → master: register/refresh
	opQuery     = 0x72 // client → master: request the list
	opList      = 0x73 // master → client: address list
	opBye       = 0x74 // server → master: deregister
)

// Wire errors.
var (
	ErrBadPacket = errors.New("discovery: malformed packet")
	ErrTimeout   = errors.New("discovery: query timed out")
)

// DefaultTTL is how long a registration survives without a heartbeat.
// Heartbeat period should be well under this (real master servers used
// minutes; tests use milliseconds).
const DefaultTTL = 5 * time.Minute

// maxListEntries bounds one list reply to keep the datagram under typical
// MTUs (6 bytes per entry + header).
const maxListEntries = 200

// Master is the registry service.
type Master struct {
	cfg    MasterConfig
	conn   net.PacketConn
	closed chan struct{}

	mu      sync.Mutex
	entries map[netip.AddrPort]time.Time // last heartbeat
	stats   MasterStats
}

// MasterConfig parameterizes the master server.
type MasterConfig struct {
	// Addr is the UDP listen address, e.g. "127.0.0.1:0".
	Addr string
	// TTL is the registration lifetime without refresh (DefaultTTL if 0).
	TTL time.Duration
	// Clock overrides time.Now for tests; nil means time.Now.
	Clock func() time.Time
}

// MasterStats counts registry activity.
type MasterStats struct {
	Heartbeats int64
	Queries    int64
	Byes       int64
}

// ListenMaster starts a master server.
func ListenMaster(cfg MasterConfig) (*Master, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	conn, err := net.ListenPacket("udp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	m := &Master{
		cfg:     cfg,
		conn:    conn,
		closed:  make(chan struct{}),
		entries: make(map[netip.AddrPort]time.Time),
	}
	go m.readLoop()
	return m, nil
}

// Addr returns the bound address.
func (m *Master) Addr() net.Addr { return m.conn.LocalAddr() }

// Close shuts the master down.
func (m *Master) Close() error {
	select {
	case <-m.closed:
		return nil
	default:
	}
	close(m.closed)
	return m.conn.Close()
}

// Stats returns a snapshot of registry activity.
func (m *Master) Stats() MasterStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Servers returns the currently live registrations, oldest first.
func (m *Master) Servers() []netip.AddrPort {
	now := m.cfg.Clock()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked(now)
	out := make([]netip.AddrPort, 0, len(m.entries))
	for ap := range m.entries {
		out = append(out, ap)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := m.entries[out[i]], m.entries[out[j]]
		if !a.Equal(b) {
			return a.Before(b)
		}
		return out[i].String() < out[j].String()
	})
	return out
}

// expireLocked drops lapsed registrations. Callers hold mu.
func (m *Master) expireLocked(now time.Time) {
	for ap, seen := range m.entries {
		if now.Sub(seen) > m.cfg.TTL {
			delete(m.entries, ap)
		}
	}
}

func (m *Master) readLoop() {
	buf := make([]byte, 2048)
	for {
		n, from, err := m.conn.ReadFrom(buf)
		if err != nil {
			select {
			case <-m.closed:
				return
			default:
				continue
			}
		}
		udp, ok := from.(*net.UDPAddr)
		if !ok {
			continue
		}
		m.handle(udp.AddrPort(), buf[:n])
	}
}

func (m *Master) handle(from netip.AddrPort, b []byte) {
	if len(b) < 1 {
		return
	}
	now := m.cfg.Clock()
	switch b[0] {
	case opHeartbeat:
		// Heartbeat carries the server's game port (the master cannot
		// trust the source port: the game socket differs from the
		// heartbeat socket behind some NATs).
		if len(b) < 3 {
			return
		}
		port := binary.BigEndian.Uint16(b[1:3])
		ap := netip.AddrPortFrom(from.Addr(), port)
		m.mu.Lock()
		m.entries[ap] = now
		m.stats.Heartbeats++
		m.mu.Unlock()
	case opBye:
		if len(b) < 3 {
			return
		}
		port := binary.BigEndian.Uint16(b[1:3])
		ap := netip.AddrPortFrom(from.Addr(), port)
		m.mu.Lock()
		delete(m.entries, ap)
		m.stats.Byes++
		m.mu.Unlock()
	case opQuery:
		m.mu.Lock()
		m.expireLocked(now)
		m.stats.Queries++
		list := make([]netip.AddrPort, 0, len(m.entries))
		for ap := range m.entries {
			list = append(list, ap)
			if len(list) == maxListEntries {
				break
			}
		}
		m.mu.Unlock()
		sort.Slice(list, func(i, j int) bool { return list[i].String() < list[j].String() })
		reply := encodeList(list)
		m.conn.WriteTo(reply, net.UDPAddrFromAddrPort(from))
	}
}

// encodeList builds an opList datagram: opcode, count, then 4-byte IPv4 +
// 2-byte port per entry.
func encodeList(list []netip.AddrPort) []byte {
	out := make([]byte, 0, 3+6*len(list))
	out = append(out, opList)
	out = binary.BigEndian.AppendUint16(out, uint16(len(list)))
	for _, ap := range list {
		a4 := ap.Addr().As4()
		out = append(out, a4[:]...)
		out = binary.BigEndian.AppendUint16(out, ap.Port())
	}
	return out
}

// decodeList parses an opList datagram.
func decodeList(b []byte) ([]netip.AddrPort, error) {
	if len(b) < 3 || b[0] != opList {
		return nil, ErrBadPacket
	}
	n := int(binary.BigEndian.Uint16(b[1:3]))
	if len(b) < 3+6*n {
		return nil, ErrBadPacket
	}
	out := make([]netip.AddrPort, 0, n)
	p := b[3:]
	for i := 0; i < n; i++ {
		addr := netip.AddrFrom4([4]byte(p[0:4]))
		port := binary.BigEndian.Uint16(p[4:6])
		out = append(out, netip.AddrPortFrom(addr, port))
		p = p[6:]
	}
	return out, nil
}

// Registrant keeps one game server registered: an initial heartbeat at
// start and refreshes every period until stopped.
type Registrant struct {
	conn   net.Conn
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once
	port   uint16
	period time.Duration
}

// Register announces gamePort to the master at masterAddr and keeps the
// registration fresh every period.
func Register(masterAddr string, gamePort uint16, period time.Duration) (*Registrant, error) {
	if period <= 0 {
		return nil, errors.New("discovery: period must be positive")
	}
	conn, err := net.Dial("udp", masterAddr)
	if err != nil {
		return nil, err
	}
	r := &Registrant{
		conn:   conn,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		port:   gamePort,
		period: period,
	}
	r.beat()
	go r.loop()
	return r, nil
}

func (r *Registrant) beat() {
	var b [3]byte
	b[0] = opHeartbeat
	binary.BigEndian.PutUint16(b[1:3], r.port)
	r.conn.Write(b[:])
}

func (r *Registrant) loop() {
	defer close(r.done)
	t := time.NewTicker(r.period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.beat()
		case <-r.stop:
			return
		}
	}
}

// Stop sends a deregistration and stops heartbeats. Safe after Pause.
func (r *Registrant) Stop() {
	r.once.Do(func() {
		r.Pause()
		var b [3]byte
		b[0] = opBye
		binary.BigEndian.PutUint16(b[1:3], r.port)
		r.conn.Write(b[:])
		r.conn.Close()
	})
}

// Pause stops heartbeats without deregistering — an outage, as the trace
// saw: the server is up again later but invisible until it re-registers.
// Pause is idempotent.
func (r *Registrant) Pause() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	<-r.done
}

// Query asks the master for the current server list.
func Query(masterAddr string, timeout time.Duration) ([]netip.AddrPort, error) {
	conn, err := net.Dial("udp", masterAddr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{opQuery}); err != nil {
		return nil, err
	}
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	buf := make([]byte, 2048)
	n, err := conn.Read(buf)
	if err != nil {
		return nil, ErrTimeout
	}
	return decodeList(buf[:n])
}
