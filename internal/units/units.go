// Package units provides the size, rate and overhead conventions used
// throughout the trace analysis.
//
// The paper's byte accounting ("Total Bytes" in its Table II) counts bytes on
// the wire: application payload plus the full Ethernet/IP/UDP framing
// including preamble and FCS. Its "GB" is the binary gibibyte, and its "kbs"
// is decimal kilobits per second. This package pins those conventions down in
// one place so every module agrees with the paper and with each other.
package units

import "fmt"

// Per-packet framing overhead above the UDP payload, in bytes. The paper's
// tables imply exactly 58 bytes/packet of overhead, consistently in both
// directions: (64.42-37.41) GiB / 500e6 pkts = (24.92-10.13) GiB / 273.85e6
// = (39.49-27.28) GiB / 226.15e6 = 58.0. That is Ethernet on the wire
// (preamble+SFD 8, MAC header 14, 802.1Q VLAN tag 4, FCS 4) plus IPv4 (20)
// and UDP (8); the capture link was evidently VLAN-tagged.
const (
	EthernetPreambleSFD = 8  // preamble + start frame delimiter
	EthernetHeader      = 14 // dst MAC, src MAC, ethertype
	EthernetVLANTag     = 4  // 802.1Q tag present on the capture link
	EthernetFCS         = 4  // frame check sequence
	IPv4Header          = 20 // no options
	UDPHeader           = 8

	// WireOverhead is the total per-packet overhead added to the
	// application payload when counting wire bytes.
	WireOverhead = EthernetPreambleSFD + EthernetHeader + EthernetVLANTag +
		EthernetFCS + IPv4Header + UDPHeader
)

// Binary byte multiples (the paper's "GB" is GiB).
const (
	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30
)

// Bytes is a byte count that formats itself in the paper's binary units.
type Bytes int64

// String renders the count the way the paper's tables do ("64.42 GB").
func (b Bytes) String() string {
	v := float64(b)
	switch {
	case v >= GiB:
		return fmt.Sprintf("%.2f GB", v/GiB)
	case v >= MiB:
		return fmt.Sprintf("%.2f MB", v/MiB)
	case v >= KiB:
		return fmt.Sprintf("%.2f KB", v/KiB)
	}
	return fmt.Sprintf("%d B", int64(b))
}

// BitsPerSecond is a data rate. The paper reports rates in decimal kilobits
// per second, written "kbs".
type BitsPerSecond float64

// Kbs returns the rate in decimal kilobits per second.
func (r BitsPerSecond) Kbs() float64 { return float64(r) / 1e3 }

// Mbs returns the rate in decimal megabits per second.
func (r BitsPerSecond) Mbs() float64 { return float64(r) / 1e6 }

// String renders the rate as the paper does ("883 kbs").
func (r BitsPerSecond) String() string {
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.2f Mbs", r.Mbs())
	case r >= 1e3:
		return fmt.Sprintf("%.0f kbs", r.Kbs())
	}
	return fmt.Sprintf("%.0f bs", float64(r))
}

// Rate converts a byte count over a duration in seconds to a bit rate.
func Rate(bytes Bytes, seconds float64) BitsPerSecond {
	if seconds <= 0 {
		return 0
	}
	return BitsPerSecond(float64(bytes) * 8 / seconds)
}

// PacketsPerSecond is a packet rate.
type PacketsPerSecond float64

// String renders the rate as the paper does ("798.11 pkts/sec").
func (r PacketsPerSecond) String() string {
	return fmt.Sprintf("%.2f pkts/sec", float64(r))
}

// PacketRate converts a packet count over a duration in seconds to a rate.
func PacketRate(packets int64, seconds float64) PacketsPerSecond {
	if seconds <= 0 {
		return 0
	}
	return PacketsPerSecond(float64(packets) / seconds)
}

// Duration formatting: the paper writes the trace length as
// "7 d, 6 h, 1 m, 17.03 s".
func FormatDuration(seconds float64) string {
	d := int64(seconds) / 86400
	rem := seconds - float64(d*86400)
	h := int64(rem) / 3600
	rem -= float64(h * 3600)
	m := int64(rem) / 60
	rem -= float64(m * 60)
	return fmt.Sprintf("%d d, %d h, %d m, %.2f s", d, h, m, rem)
}
