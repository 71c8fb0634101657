package netparse

import (
	"testing"
)

// FuzzDecodePacket throws arbitrary bytes at the parser: any input must
// produce a clean error or a decoded packet, never a panic, and decoded
// lengths must stay within bounds.
func FuzzDecodePacket(f *testing.F) {
	// Seed corpus: valid TCP, valid UDP, snapped TCP, and junk.
	buf := make([]byte, 2048)
	n, _ := BuildTCPv4(buf, [4]byte{10, 0, 0, 1}, [4]byte{23, 0, 0, 1}, 1234, 443, 7, TCPAck, 64)
	f.Add(append([]byte(nil), buf[:n]...))
	n, _ = BuildUDPv4(buf, [4]byte{10, 0, 0, 1}, [4]byte{8, 8, 8, 8}, 5353, 53, 32)
	f.Add(append([]byte(nil), buf[:n]...))
	s, _, _ := BuildTCPv4Snapped(buf, [4]byte{10, 0, 0, 1}, [4]byte{23, 0, 0, 1}, 1234, 443, 7, TCPAck, 5000, 96)
	f.Add(append([]byte(nil), buf[:s]...))
	f.Add([]byte{})
	f.Add([]byte{0x45})
	f.Add([]byte{0x60, 0, 0, 0})

	var p Parser
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := p.DecodePacket(data)
		if err != nil {
			return
		}
		if d.WireLen < 0 || d.WireLen > 0xffff+40 {
			t.Fatalf("wire length out of bounds: %d", d.WireLen)
		}
		if len(d.Payload) > len(data) {
			t.Fatalf("payload longer than input: %d > %d", len(d.Payload), len(data))
		}
	})
}
