package packet

import (
	"net/netip"
	"testing"
)

func TestEndpointString(t *testing.T) {
	e := Endpoint{Addr: netip.AddrFrom4([4]byte{192, 168, 1, 10}), Port: 27015}
	if e.String() != "192.168.1.10:27015" {
		t.Errorf("String = %q", e.String())
	}
}
