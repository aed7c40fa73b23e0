package packet

import "net/netip"

// Endpoint is a hashable transport endpoint: an IPv4 address and UDP port.
// Endpoints are comparable and usable as map keys, in the manner of
// gopacket's Endpoint.
type Endpoint struct {
	Addr netip.Addr
	Port uint16
}
