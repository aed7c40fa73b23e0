package gameserver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cstrace/internal/dist"
	"cstrace/internal/protocol"
)

// BotConfig parameterizes a bot client.
type BotConfig struct {
	// ServerAddr is the server's UDP address.
	ServerAddr string
	// Name is the player name sent in the handshake.
	Name string
	// CmdRate is the command send rate in packets/second (the trace's
	// ordinary clients run ~24 pps; "l337" ones crank it up).
	CmdRate float64
	// ConnectTimeout bounds the handshake.
	ConnectTimeout time.Duration
	// Seed drives the bot's movement.
	Seed uint64

	// Drop is the probability a user command is discarded before the
	// socket write — loss injected on the client send path, the harness-
	// edge mirror of internal/netem's queue drops. Handshake and
	// disconnect datagrams are exempt so connection state stays clean.
	Drop float64
	// Jitter, when > 0, delays each user command by |N(0, Jitter)| before
	// the write (the same half-normal spread internal/netem adds to
	// propagation). Delayed commands may reorder, as on a real jittery
	// path.
	Jitter time.Duration
	// SnapshotTimeout, when > 0, makes Run return ErrServerSilent once no
	// snapshot has arrived for that long — the dead-server detection a
	// fail-over harness needs. The clock starts at Run.
	SnapshotTimeout time.Duration
}

// BotStats counts one bot's traffic.
type BotStats struct {
	CmdsSent int64
	// CmdsDropped counts user commands discarded by the client-side loss
	// injection (BotConfig.Drop).
	CmdsDropped   int64
	SnapshotsRecv int64
	BytesSent     int64
	BytesRecv     int64
	// Retries counts backed-off discovery retries spent on this bot's
	// behalf — master re-browses and refused connection attempts. The Bot
	// itself connects once; the harness that redials it accumulates this.
	Retries  int64
	LastTick uint32
	Entities int
}

// Bot is a connected client.
type Bot struct {
	cfg      BotConfig
	conn     net.Conn
	playerID uint8
	rng      *dist.RNG

	statsMu sync.Mutex
	stats   BotStats
}

// Dial connects a bot: it performs the handshake and returns once a slot is
// granted. A ConnectReject is reported as ErrServerFull.
func Dial(cfg BotConfig) (*Bot, error) {
	if cfg.CmdRate <= 0 {
		return nil, errors.New("gameserver: CmdRate must be positive")
	}
	if cfg.ConnectTimeout <= 0 {
		cfg.ConnectTimeout = 2 * time.Second
	}
	conn, err := net.Dial("udp", cfg.ServerAddr)
	if err != nil {
		return nil, fmt.Errorf("gameserver: dial: %w", err)
	}
	b := &Bot{cfg: cfg, conn: conn, rng: dist.NewRNG(cfg.Seed)}

	req, err := (&protocol.ConnectRequest{Name: cfg.Name}).Marshal(nil)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if _, err := conn.Write(req); err != nil {
		conn.Close()
		return nil, err
	}
	if err := conn.SetReadDeadline(time.Now().Add(cfg.ConnectTimeout)); err != nil {
		conn.Close()
		return nil, err
	}
	buf := make([]byte, 2048)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("gameserver: handshake: %w", err)
		}
		typ, err := protocol.Peek(buf[:n])
		if err != nil {
			continue
		}
		switch typ {
		case protocol.MsgConnectAccept:
			var acc protocol.ConnectAccept
			if acc.Unmarshal(buf[:n]) != nil {
				continue
			}
			b.playerID = acc.PlayerID
			_ = conn.SetReadDeadline(time.Time{})
			return b, nil
		case protocol.MsgConnectReject:
			var rej protocol.ConnectReject
			if rej.Unmarshal(buf[:n]) != nil {
				continue // a malformed reject is no answer; keep waiting
			}
			conn.Close()
			return nil, ErrServerFull
		default:
			// Snapshot raced ahead of the accept; keep waiting.
		}
	}
}

// ErrServerFull reports a refused connection.
var ErrServerFull = errors.New("gameserver: server full")

// ErrServerSilent reports that the server stopped sending snapshots for
// longer than BotConfig.SnapshotTimeout — the client-side symptom of a
// crashed or partitioned server, and the trigger for fail-over.
var ErrServerSilent = errors.New("gameserver: server went silent")

// Run plays until ctx is done: it streams user commands at CmdRate —
// subject to the configured Drop/Jitter injection — and consumes
// snapshots. On a clean exit (ctx done) it waits out any jitter-delayed
// commands, sends a Disconnect as its final datagram (never dropped or
// delayed, so the server frees the slot instead of waiting for the idle
// timeout), and returns nil. With SnapshotTimeout set it instead returns
// ErrServerSilent — without a Disconnect, since the server is presumed
// dead — once the snapshot stream stalls.
func (b *Bot) Run(ctx context.Context) error {
	done := make(chan struct{})
	var lastRecv atomic.Int64 // UnixNano of the last snapshot
	lastRecv.Store(time.Now().UnixNano())
	go func() {
		defer close(done)
		buf := make([]byte, 4096)
		var snap protocol.Snapshot
		for {
			if err := b.conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond)); err != nil {
				return
			}
			n, err := b.conn.Read(buf)
			if err != nil {
				select {
				case <-ctx.Done():
					return
				default:
					if errors.Is(err, net.ErrClosed) {
						return
					}
					continue
				}
			}
			if typ, err := protocol.Peek(buf[:n]); err == nil && typ == protocol.MsgSnapshot {
				if snap.Unmarshal(buf[:n]) == nil {
					lastRecv.Store(time.Now().UnixNano())
					b.statsMu.Lock()
					b.stats.SnapshotsRecv++
					b.stats.BytesRecv += int64(n)
					b.stats.LastTick = snap.Tick
					b.stats.Entities = len(snap.Entities)
					b.statsMu.Unlock()
				}
			}
		}
	}()

	// pending tracks jitter-delayed sends so shutdown can flush them
	// before the disconnect goes out.
	var pending sync.WaitGroup
	send := func(msg []byte) {
		if n, err := b.conn.Write(msg); err == nil {
			b.statsMu.Lock()
			b.stats.CmdsSent++
			b.stats.BytesSent += int64(n)
			b.statsMu.Unlock()
		}
	}

	interval := time.Duration(float64(time.Second) / b.cfg.CmdRate)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var seq uint32
	for {
		select {
		case <-ctx.Done():
			pending.Wait()
			b.sendDisconnect()
			b.conn.Close()
			<-done
			return nil
		case <-ticker.C:
			if b.cfg.SnapshotTimeout > 0 &&
				time.Since(time.Unix(0, lastRecv.Load())) > b.cfg.SnapshotTimeout {
				pending.Wait()
				b.conn.Close()
				<-done
				return ErrServerSilent
			}
			seq++
			cmd := protocol.UserCmd{
				PlayerID: b.playerID,
				Seq:      seq,
				Buttons:  uint16(b.rng.Uint64()),
				Pitch:    int16(b.rng.Uint64()),
				Yaw:      int16(b.rng.Uint64()),
				MoveX:    int8(b.rng.Intn(3) - 1),
				MoveY:    int8(b.rng.Intn(3) - 1),
			}
			if b.cfg.Drop > 0 && b.rng.Float64() < b.cfg.Drop {
				b.statsMu.Lock()
				b.stats.CmdsDropped++
				b.statsMu.Unlock()
				continue
			}
			msg, err := cmd.Marshal(nil)
			if err != nil {
				continue
			}
			if b.cfg.Jitter > 0 {
				j := b.rng.NormFloat64() * float64(b.cfg.Jitter)
				if j < 0 {
					j = -j
				}
				pending.Add(1)
				time.AfterFunc(time.Duration(j), func() {
					defer pending.Done()
					send(msg)
				})
			} else {
				send(msg)
			}
		}
	}
}

// sendDisconnect announces a clean leave. It bypasses the Drop/Jitter
// injection: the disturbances model the data path, not the client's intent
// to leave, and a swallowed disconnect would turn every shutdown into a
// server-side timeout.
func (b *Bot) sendDisconnect() {
	msg, err := (&protocol.Disconnect{PlayerID: b.playerID, Reason: "done"}).Marshal(nil)
	if err == nil {
		_, _ = b.conn.Write(msg)
	}
}

// Stats returns a snapshot of the bot's counters.
func (b *Bot) Stats() BotStats {
	b.statsMu.Lock()
	defer b.statsMu.Unlock()
	return b.stats
}
