package discovery

import (
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock for TTL tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newMaster(t *testing.T, ttl time.Duration, clock func() time.Time) *Master {
	t.Helper()
	m, err := ListenMaster(MasterConfig{TTL: ttl, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// waitFor polls cond until true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestRegisterAndQuery(t *testing.T) {
	m := newMaster(t, time.Minute, nil)
	r, err := Register(m.Addr().String(), 27015, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	waitFor(t, "registration", func() bool { return len(m.Servers()) == 1 })

	list, err := Query(m.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Fatalf("list = %v", list)
	}
	if list[0].Port() != 27015 {
		t.Errorf("port = %d, want 27015 (game port, not heartbeat source port)", list[0].Port())
	}
	if !list[0].Addr().IsLoopback() {
		t.Errorf("addr = %v, want loopback", list[0].Addr())
	}
}

func TestByeDeregisters(t *testing.T) {
	m := newMaster(t, time.Minute, nil)
	r, err := Register(m.Addr().String(), 27016, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "registration", func() bool { return len(m.Servers()) == 1 })
	r.Stop()
	waitFor(t, "deregistration", func() bool { return len(m.Servers()) == 0 })
	st := m.Stats()
	if st.Byes != 1 {
		t.Errorf("byes = %d", st.Byes)
	}
}

func TestTTLExpiry(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1018515304, 0)}
	m := newMaster(t, time.Minute, clock.Now)
	r, err := Register(m.Addr().String(), 27017, time.Hour /* no refresh */)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	waitFor(t, "registration", func() bool { return len(m.Servers()) == 1 })

	clock.Advance(2 * time.Minute)
	if n := len(m.Servers()); n != 0 {
		t.Errorf("servers after TTL = %d, want 0", n)
	}
	list, err := Query(m.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Errorf("query after TTL = %v, want empty", list)
	}
}

func TestPauseAgesOut(t *testing.T) {
	// The outage scenario: heartbeats stop and the registration ages out,
	// so the server is invisible to browsers — the paper's minutes-long
	// player dip from a seconds-long outage.
	clock := &fakeClock{now: time.Unix(1018515304, 0)}
	m := newMaster(t, 30*time.Second, clock.Now)
	r, err := Register(m.Addr().String(), 27018, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	waitFor(t, "registration", func() bool { return len(m.Servers()) == 1 })

	r.Pause()
	clock.Advance(time.Minute)
	waitFor(t, "expiry during outage", func() bool { return len(m.Servers()) == 0 })
}

func TestQueryEmptyMaster(t *testing.T) {
	m := newMaster(t, time.Minute, nil)
	list, err := Query(m.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Errorf("list = %v", list)
	}
}

func TestMultipleServersSorted(t *testing.T) {
	m := newMaster(t, time.Minute, nil)
	ports := []uint16{27021, 27019, 27020}
	for _, p := range ports {
		r, err := Register(m.Addr().String(), p, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Stop()
	}
	waitFor(t, "3 registrations", func() bool { return len(m.Servers()) == 3 })
	list, err := Query(m.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("list = %v", list)
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].String() > list[i].String() {
			t.Errorf("list not sorted: %v", list)
		}
	}
}

func TestMalformedPacketsIgnored(t *testing.T) {
	m := newMaster(t, time.Minute, nil)
	// Short heartbeat, unknown opcode, empty packet: all must be dropped
	// without a reply and without disturbing the registry.
	for _, b := range [][]byte{{opHeartbeat}, {0xff, 1, 2}, {}} {
		conn, err := netDial(m.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(b)
		conn.Close()
	}
	time.Sleep(20 * time.Millisecond)
	if n := len(m.Servers()); n != 0 {
		t.Errorf("registry polluted: %d entries", n)
	}
}

func TestDecodeListErrors(t *testing.T) {
	if _, err := decodeList([]byte{}); err != ErrBadPacket {
		t.Errorf("empty: %v", err)
	}
	if _, err := decodeList([]byte{opQuery, 0, 0}); err != ErrBadPacket {
		t.Errorf("wrong opcode: %v", err)
	}
	// Count says 2 entries but only 1 present.
	b := encodeList([]netip.AddrPort{netip.MustParseAddrPort("10.0.0.1:27015")})
	b[2] = 2
	if _, err := decodeList(b); err != ErrBadPacket {
		t.Errorf("short list: %v", err)
	}
}

func TestEncodeDecodeListRoundTrip(t *testing.T) {
	in := []netip.AddrPort{
		netip.MustParseAddrPort("10.0.0.1:27015"),
		netip.MustParseAddrPort("192.168.1.50:27016"),
		netip.MustParseAddrPort("172.16.3.4:1"),
	}
	out, err := decodeList(encodeList(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d", len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("entry %d: %v != %v", i, in[i], out[i])
		}
	}
}

// netDial is a test helper returning a UDP connection to addr.
func netDial(addr string) (net.Conn, error) {
	return net.Dial("udp", addr)
}

func TestStopAfterPause(t *testing.T) {
	m := newMaster(t, time.Minute, nil)
	r, err := Register(m.Addr().String(), 27030, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	r.Pause()
	r.Pause() // idempotent
	r.Stop()  // must not panic on the already-closed stop channel
	r.Stop()  // idempotent
	waitFor(t, "deregistration", func() bool { return len(m.Servers()) == 0 })
}
