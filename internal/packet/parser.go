package packet

// Parser decodes an Ethernet frame into preallocated layers without
// allocating, in the manner of gopacket's DecodingLayerParser. It handles
// the stack the trace tooling processes: Ethernet(+802.1Q)/IPv4 over UDP
// (game traffic).
type Parser struct {
	Eth Ethernet
	IP  IPv4
	UDP UDP
	// AppPayload aliases into the most recent packet's application bytes.
	AppPayload []byte
}

// DecodeLayers parses data starting at the Ethernet layer, appending the
// types of successfully decoded layers to decoded (which is reset first).
// Decoding stops without error at the first layer type the parser does not
// handle; the undecoded remainder is left in AppPayload.
func (p *Parser) DecodeLayers(data []byte, decoded *[]LayerType) error {
	*decoded = (*decoded)[:0]
	p.AppPayload = nil

	if err := p.Eth.DecodeFromBytes(data); err != nil {
		return err
	}
	*decoded = append(*decoded, LayerTypeEthernet)
	if p.Eth.NextLayerType() != LayerTypeIPv4 {
		p.AppPayload = p.Eth.LayerPayload()
		return nil
	}

	if err := p.IP.DecodeFromBytes(p.Eth.LayerPayload()); err != nil {
		return err
	}
	*decoded = append(*decoded, LayerTypeIPv4)

	if p.IP.NextLayerType() != LayerTypeUDP {
		p.AppPayload = p.IP.LayerPayload()
		return nil
	}
	if err := p.UDP.DecodeFromBytes(p.IP.LayerPayload()); err != nil {
		return err
	}
	*decoded = append(*decoded, LayerTypeUDP)
	p.AppPayload = p.UDP.LayerPayload()
	if len(p.AppPayload) > 0 {
		*decoded = append(*decoded, LayerTypePayload)
	}
	return nil
}

// Serializer builds Ethernet/IPv4/UDP frames into a reusable buffer. Lengths
// and checksums are fixed up automatically, so callers only set addressing
// fields and the payload.
type Serializer struct {
	buf []byte
}

// Frame assembles a frame from the given layers and payload and returns a
// slice owned by the Serializer (valid until the next call).
//
// eth.EtherType, ip.TotalLen, ip.Protocol and udp.Length are set by Frame.
func (s *Serializer) Frame(eth *Ethernet, ip *IPv4, udp *UDP, payload []byte) ([]byte, error) {
	ethLen := eth.HeaderLen()
	total := ethLen + ip.HeaderLen() + udp.HeaderLen() + len(payload)
	if cap(s.buf) < total {
		s.buf = make([]byte, total)
	}
	b := s.buf[:total]

	eth.EtherType = EtherTypeIPv4
	ip.Protocol = IPProtoUDP
	ip.TotalLen = uint16(ip.HeaderLen() + udp.HeaderLen() + len(payload))
	udp.Length = uint16(udp.HeaderLen() + len(payload))

	if _, err := eth.SerializeTo(b); err != nil {
		return nil, err
	}
	if _, err := ip.SerializeTo(b[ethLen:]); err != nil {
		return nil, err
	}
	off := ethLen + ip.HeaderLen()
	if _, err := udp.SerializeTo(b[off:]); err != nil {
		return nil, err
	}
	copy(b[off+udp.HeaderLen():], payload)
	return b, nil
}
