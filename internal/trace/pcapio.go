package trace

import (
	"io"
	"net/netip"
	"time"

	"cstrace/internal/packet"
	"cstrace/internal/pcap"
	"cstrace/internal/units"
)

// Default addressing used when materializing records as packets. The game
// port is Half-Life's standard 27015; clients get synthetic addresses
// derived from their id.
var (
	DefaultServerAddr = netip.AddrFrom4([4]byte{10, 10, 0, 1})
	DefaultServerPort = uint16(27015)
)

// ClientAddr maps a client id to a stable synthetic IPv4 address outside the
// server's subnet.
func ClientAddr(client uint32) netip.Addr {
	// Spread ids across 172.16.0.0/12-style space, avoiding .0 and .255.
	b := [4]byte{
		172,
		byte(16 + (client>>16)&0x0f),
		byte(client >> 8),
		byte(client),
	}
	if b[3] == 0 {
		b[3] = 1
	}
	if b[3] == 255 {
		b[3] = 254
	}
	return netip.AddrFrom4(b)
}

// ClientPort maps a client id to a stable synthetic UDP source port.
func ClientPort(client uint32) uint16 {
	return uint16(20000 + client%40000)
}

// PCAPWriter materializes records as Ethernet/IPv4/UDP frames in a classic
// pcap file. Payload bytes are zero-filled: the study analyzes sizes and
// timing, not payload content.
type PCAPWriter struct {
	w          *pcap.Writer
	ser        packet.Serializer
	start      time.Time
	serverAddr netip.Addr
	serverPort uint16
	payload    []byte
}

// NewPCAPWriter creates a PCAPWriter emitting the classic libpcap format.
// start anchors record offsets to absolute capture timestamps.
func NewPCAPWriter(w io.Writer, start time.Time) *PCAPWriter {
	return &PCAPWriter{
		w:          pcap.NewWriter(w, pcap.LinkTypeEthernet, 65535),
		start:      start,
		serverAddr: DefaultServerAddr,
		serverPort: DefaultServerPort,
		payload:    make([]byte, 65535),
	}
}

// Write materializes one record.
func (pw *PCAPWriter) Write(r Record) error {
	eth := packet.Ethernet{HasVLAN: true, VLANID: 2}
	ip := packet.IPv4{TTL: 64}
	udp := packet.UDP{}
	if r.Dir == In {
		ip.Src = ClientAddr(r.Client)
		ip.Dst = pw.serverAddr
		udp.SrcPort = ClientPort(r.Client)
		udp.DstPort = pw.serverPort
	} else {
		ip.Src = pw.serverAddr
		ip.Dst = ClientAddr(r.Client)
		udp.SrcPort = pw.serverPort
		udp.DstPort = ClientPort(r.Client)
	}
	frame, err := pw.ser.Frame(&eth, &ip, &udp, pw.payload[:r.App])
	if err != nil {
		return err
	}
	ci := pcap.CaptureInfo{
		Timestamp:     pw.start.Add(r.T),
		CaptureLength: len(frame),
		// The frame on disk omits preamble/SFD/FCS; wire length per the
		// paper's accounting includes them.
		Length: r.Wire() - units.EthernetPreambleSFD - units.EthernetFCS,
	}
	return pw.w.WritePacket(ci, frame)
}

// ReadPCAP parses a classic pcap file of game traffic, classifying direction
// by the server endpoint, and feeds records to h. Packets that do not decode
// as Ethernet/IPv4/UDP or that do not involve serverAddr are skipped; the
// skip count is returned alongside the record count.
func ReadPCAP(r io.Reader, serverAddr netip.Addr, serverPort uint16, h Handler) (records, skipped int64, err error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return 0, 0, err
	}
	var parser packet.Parser
	var decoded []packet.LayerType
	var start time.Time
	clientIDs := make(map[packet.Endpoint]uint32)
	bat := NewBatcher(Batch(h))
	defer bat.Close()
	for {
		ci, data, err := pr.ReadPacket()
		if err == io.EOF {
			return records, skipped, nil
		}
		if err != nil {
			return records, skipped, err
		}
		if parser.DecodeLayers(data, &decoded) != nil ||
			len(decoded) < 3 || decoded[2] != packet.LayerTypeUDP {
			skipped++
			continue
		}
		var dir Direction
		var remote packet.Endpoint
		switch {
		case parser.IP.Dst == serverAddr && parser.UDP.DstPort == serverPort:
			dir = In
			remote = packet.Endpoint{Addr: parser.IP.Src, Port: parser.UDP.SrcPort}
		case parser.IP.Src == serverAddr && parser.UDP.SrcPort == serverPort:
			dir = Out
			remote = packet.Endpoint{Addr: parser.IP.Dst, Port: parser.UDP.DstPort}
		default:
			skipped++
			continue
		}
		id, ok := clientIDs[remote]
		if !ok {
			id = uint32(len(clientIDs) + 1)
			clientIDs[remote] = id
		}
		if start.IsZero() {
			start = ci.Timestamp
		}
		bat.Handle(Record{
			T:      ci.Timestamp.Sub(start),
			Dir:    dir,
			Client: id,
			App:    uint16(len(parser.AppPayload)),
		})
		records++
	}
}
