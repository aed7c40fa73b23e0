package packet

import (
	"testing"
	"testing/quick"
)

// TestDecodersNeverPanicOnRandomBytes drives every decoder with arbitrary
// input. Decoders must reject garbage with an error — never panic and never
// read out of bounds — because the capture path feeds them raw bytes from
// disk and from the wire.
func TestDecodersNeverPanicOnRandomBytes(t *testing.T) {
	f := func(data []byte) bool {
		var p Parser
		var decoded []LayerType
		_ = p.DecodeLayers(data, &decoded)

		var eth Ethernet
		_ = eth.DecodeFromBytes(data)
		var ip IPv4
		_ = ip.DecodeFromBytes(data)
		var udp UDP
		_ = udp.DecodeFromBytes(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDecodersNeverPanicOnTruncatedValidFrames is the nastier variant:
// structurally valid prefixes, every possible cut point.
func TestDecodersNeverPanicOnTruncatedValidFrames(t *testing.T) {
	frame := mkFrame(t, true, []byte("valid game payload 1234567890"))
	for cut := 0; cut <= len(frame); cut++ {
		var p Parser
		var decoded []LayerType
		_ = p.DecodeLayers(frame[:cut], &decoded)
	}
}
