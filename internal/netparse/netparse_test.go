package netparse

import (
	"bytes"
	"testing"
	"testing/quick"

	"netenergy/internal/rng"
)

func TestEndpointString(t *testing.T) {
	e4 := NewEndpoint(EndpointIPv4, []byte{10, 0, 0, 1})
	if e4.String() != "10.0.0.1" {
		t.Errorf("IPv4 endpoint = %q", e4.String())
	}
	ep := NewEndpoint(EndpointPort, []byte{0x01, 0xbb})
	if ep.String() != "443" {
		t.Errorf("port endpoint = %q", ep.String())
	}
	var v6 [16]byte
	v6[15] = 1
	e6 := NewEndpoint(EndpointIPv6, v6[:])
	if e6.String() != "0:0:0:0:0:0:0:1" {
		t.Errorf("IPv6 endpoint = %q", e6.String())
	}
	bad := NewEndpoint(EndpointIPv4, make([]byte, 17))
	if bad.typ != EndpointInvalid || bad.String() != "invalid" {
		t.Errorf("oversized raw should yield invalid endpoint, got %v", bad)
	}
}

func TestEndpointRawCopy(t *testing.T) {
	raw := []byte{1, 2, 3, 4}
	e := NewEndpoint(EndpointIPv4, raw)
	got := e.Raw()
	got[0] = 99
	if e.Raw()[0] != 1 {
		t.Error("Raw must return a copy")
	}
}

func TestEndpointHashable(t *testing.T) {
	m := map[Endpoint]int{}
	a := NewEndpoint(EndpointIPv4, []byte{1, 2, 3, 4})
	b := NewEndpoint(EndpointIPv4, []byte{1, 2, 3, 4})
	m[a] = 1
	if m[b] != 1 {
		t.Error("equal endpoints must be equal map keys")
	}
}

func TestFlowReverse(t *testing.T) {
	a := NewEndpoint(EndpointIPv4, []byte{1, 1, 1, 1})
	b := NewEndpoint(EndpointIPv4, []byte{2, 2, 2, 2})
	f := NewFlow(a, b)
	r := f.Reverse()
	if r.Src() != b || r.Dst() != a {
		t.Error("Reverse did not swap endpoints")
	}
	if f.String() != "1.1.1.1->2.2.2.2" {
		t.Errorf("flow string = %q", f.String())
	}
}

func TestFiveTupleCanonicalSymmetric(t *testing.T) {
	a := NewEndpoint(EndpointIPv4, []byte{10, 0, 0, 1})
	b := NewEndpoint(EndpointIPv4, []byte{93, 184, 216, 34})
	fwd := FiveTuple{AddrA: a, AddrB: b, PortA: 49152, PortB: 443, Proto: IPProtoTCP}
	rev := FiveTuple{AddrA: b, AddrB: a, PortA: 443, PortB: 49152, Proto: IPProtoTCP}
	if fwd.Canonical() != rev.Canonical() {
		t.Error("canonical tuples differ across directions")
	}
	if fwd.FastHash() != rev.FastHash() {
		t.Error("FastHash not symmetric")
	}
}

func TestFiveTupleHashDistinguishes(t *testing.T) {
	a := NewEndpoint(EndpointIPv4, []byte{10, 0, 0, 1})
	b := NewEndpoint(EndpointIPv4, []byte{10, 0, 0, 2})
	t1 := FiveTuple{AddrA: a, AddrB: b, PortA: 1000, PortB: 443, Proto: IPProtoTCP}
	t2 := FiveTuple{AddrA: a, AddrB: b, PortA: 1001, PortB: 443, Proto: IPProtoTCP}
	if t1.FastHash() == t2.FastHash() {
		t.Error("distinct tuples should (almost surely) hash differently")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 style example.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := checksum(data, 0); got != ^uint16(0xddf2) {
		t.Errorf("checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
	// Odd length.
	if got := checksum([]byte{0xab}, 0); got != ^uint16(0xab00) {
		t.Errorf("odd checksum = %#x", got)
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	ip := IPv4{TOS: 0x10, ID: 0x1234, TTL: 61, Protocol: IPProtoTCP,
		SrcIP: [4]byte{192, 168, 1, 10}, DstIP: [4]byte{8, 8, 8, 8}}
	payload := []byte{1, 2, 3, 4, 5}
	buf := make([]byte, 64)
	n, err := ip.SerializeTo(buf, payload)
	if err != nil {
		t.Fatal(err)
	}
	if n != 25 {
		t.Fatalf("serialised %d bytes", n)
	}
	var got IPv4
	pl, err := got.DecodeFromBytes(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pl, payload) {
		t.Errorf("payload = %v", pl)
	}
	if got.SrcIP != ip.SrcIP || got.DstIP != ip.DstIP || got.TTL != 61 || got.ID != 0x1234 || got.Protocol != IPProtoTCP || got.TOS != 0x10 {
		t.Errorf("decoded header mismatch: %+v", got)
	}
}

func TestIPv4DecodeErrors(t *testing.T) {
	var ip IPv4
	if _, err := ip.DecodeFromBytes(make([]byte, 10)); err != ErrTruncated {
		t.Errorf("short packet: %v", err)
	}
	buf := make([]byte, 64)
	good := IPv4{TTL: 64, Protocol: IPProtoUDP, SrcIP: [4]byte{1, 2, 3, 4}, DstIP: [4]byte{5, 6, 7, 8}}
	n, _ := good.SerializeTo(buf, []byte{9, 9})
	// Corrupt a header byte -> checksum error.
	corrupt := append([]byte(nil), buf[:n]...)
	corrupt[8] ^= 0xff
	if _, err := ip.DecodeFromBytes(corrupt); err != ErrBadChecksum {
		t.Errorf("corrupt header: %v", err)
	}
	// Wrong version nibble.
	v := append([]byte(nil), buf[:n]...)
	v[0] = 0x55
	if _, err := ip.DecodeFromBytes(v); err != ErrBadVersion {
		t.Errorf("bad version: %v", err)
	}
	// Total length beyond buffer.
	short := append([]byte(nil), buf[:n]...)
	if _, err := ip.DecodeFromBytes(short[:n-1]); err != ErrTruncated {
		t.Errorf("truncated body: %v", err)
	}
}

func TestIPv6RoundTrip(t *testing.T) {
	var src, dst [16]byte
	src[15], dst[15] = 1, 2
	ip := IPv6{TrafficClass: 3, NextHeader: IPProtoUDP, HopLimit: 60, SrcIP: src, DstIP: dst}
	payload := []byte{0xaa, 0xbb}
	buf := make([]byte, 64)
	n, err := ip.SerializeTo(buf, payload)
	if err != nil {
		t.Fatal(err)
	}
	var got IPv6
	pl, err := got.DecodeFromBytes(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pl, payload) || got.SrcIP != src || got.DstIP != dst ||
		got.HopLimit != 60 || got.NextHeader != IPProtoUDP || got.TrafficClass != 3 {
		t.Errorf("round trip mismatch: %+v payload=%v", got, pl)
	}
}

func TestTCPRoundTripWithChecksum(t *testing.T) {
	ip := IPv4{TTL: 64, Protocol: IPProtoTCP, SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2}}
	tcp := TCP{SrcPort: 5000, DstPort: 443, Seq: 7, Ack: 9, Flags: TCPAck | TCPPsh, Window: 1024}
	payload := []byte("hello")
	buf := make([]byte, 128)
	n, err := tcp.SerializeTo(buf, payload, &ip)
	if err != nil {
		t.Fatal(err)
	}
	var got TCP
	pl, err := got.DecodeFromBytes(buf[:n], &ip)
	if err != nil {
		t.Fatal(err)
	}
	if string(pl) != "hello" || got.SrcPort != 5000 || got.DstPort != 443 ||
		got.Seq != 7 || got.Ack != 9 || got.Flags != TCPAck|TCPPsh || got.Window != 1024 {
		t.Errorf("mismatch: %+v payload=%q", got, pl)
	}
	// Flip a payload bit: checksum must fail.
	buf[n-1] ^= 1
	if _, err := got.DecodeFromBytes(buf[:n], &ip); err != ErrBadChecksum {
		t.Errorf("corrupted payload: %v", err)
	}
}

func TestUDPRoundTripWithChecksum(t *testing.T) {
	ip := IPv4{TTL: 64, Protocol: IPProtoUDP, SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 9}}
	udp := UDP{SrcPort: 1234, DstPort: 53}
	payload := []byte{1, 2, 3}
	buf := make([]byte, 64)
	n, err := udp.SerializeTo(buf, payload, &ip)
	if err != nil {
		t.Fatal(err)
	}
	var got UDP
	pl, err := got.DecodeFromBytes(buf[:n], &ip)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pl, payload) || got.SrcPort != 1234 || got.DstPort != 53 {
		t.Errorf("mismatch: %+v %v", got, pl)
	}
	buf[n-1] ^= 1
	if _, err := got.DecodeFromBytes(buf[:n], &ip); err != ErrBadChecksum {
		t.Errorf("corrupted payload: %v", err)
	}
}

func TestParserTCPv4(t *testing.T) {
	buf := make([]byte, 2048)
	n, err := BuildTCPv4(buf, [4]byte{10, 0, 0, 5}, [4]byte{93, 184, 216, 34}, 40000, 443, 100, TCPAck, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1040 {
		t.Fatalf("built %d bytes, want 1040", n)
	}
	p := new(Parser)
	d, err := p.DecodePacket(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if d.Network != LayerTypeIPv4 || d.Transport != LayerTypeTCP {
		t.Errorf("layers = %v/%v", d.Network, d.Transport)
	}
	if d.Tuple.PortA != 40000 || d.Tuple.PortB != 443 || d.Tuple.Proto != IPProtoTCP {
		t.Errorf("tuple = %+v", d.Tuple)
	}
	if len(d.Payload) != 1000 || d.WireLen != 1040 {
		t.Errorf("payload=%d wire=%d", len(d.Payload), d.WireLen)
	}
}

func TestParserUDPv4(t *testing.T) {
	buf := make([]byte, 256)
	n, err := BuildUDPv4(buf, [4]byte{10, 0, 0, 5}, [4]byte{8, 8, 4, 4}, 9999, 53, 64)
	if err != nil {
		t.Fatal(err)
	}
	p := new(Parser)
	d, err := p.DecodePacket(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if d.Transport != LayerTypeUDP || d.Tuple.PortB != 53 || len(d.Payload) != 64 {
		t.Errorf("decoded %+v payload=%d", d.Tuple, len(d.Payload))
	}
}

func TestParserErrors(t *testing.T) {
	p := new(Parser)
	if _, err := p.DecodePacket(nil); err != ErrTruncated {
		t.Errorf("empty: %v", err)
	}
	if _, err := p.DecodePacket([]byte{0x00}); err != ErrBadVersion {
		t.Errorf("bad version: %v", err)
	}
	// Unsupported transport protocol.
	ip := IPv4{TTL: 64, Protocol: 47 /* GRE */, SrcIP: [4]byte{1, 1, 1, 1}, DstIP: [4]byte{2, 2, 2, 2}}
	buf := make([]byte, 64)
	n, _ := ip.SerializeTo(buf, []byte{0, 0, 0, 0})
	if _, err := p.DecodePacket(buf[:n]); err != ErrUnsupported {
		t.Errorf("unsupported proto: %v", err)
	}
}

func TestParserReusesDecoded(t *testing.T) {
	p := new(Parser)
	buf := make([]byte, 256)
	n, _ := BuildTCPv4(buf, [4]byte{1, 0, 0, 1}, [4]byte{2, 0, 0, 2}, 1, 2, 0, TCPSyn, 10)
	d1, err := p.DecodePacket(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	d2, err := p.DecodePacket(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("parser should reuse its Decoded struct")
	}
}

func TestBuildRoundTripProperty(t *testing.T) {
	src := rng.New(99)
	p := new(Parser)
	buf := make([]byte, 65536)
	f := func(sp, dp uint16, plen uint16) bool {
		n := int(plen) % 1400
		var a, b [4]byte
		a[0], a[1], a[2], a[3] = byte(src.Intn(256)), byte(src.Intn(256)), byte(src.Intn(256)), byte(src.Intn(256))
		b[0], b[1], b[2], b[3] = byte(src.Intn(256)), byte(src.Intn(256)), byte(src.Intn(256)), byte(src.Intn(256))
		var wire int
		var err error
		if src.Bool(0.5) {
			wire, err = BuildTCPv4(buf, a, b, sp, dp, uint32(plen), TCPAck, n)
		} else {
			wire, err = BuildUDPv4(buf, a, b, sp, dp, n)
		}
		if err != nil {
			return false
		}
		d, err := p.DecodePacket(buf[:wire])
		if err != nil {
			return false
		}
		return d.Tuple.PortA == sp && d.Tuple.PortB == dp && len(d.Payload) == n &&
			d.Tuple.AddrA == NewEndpoint(EndpointIPv4, a[:]) &&
			d.Tuple.AddrB == NewEndpoint(EndpointIPv4, b[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTruncationNeverPanics(t *testing.T) {
	p := new(Parser)
	buf := make([]byte, 256)
	n, _ := BuildTCPv4(buf, [4]byte{1, 2, 3, 4}, [4]byte{5, 6, 7, 8}, 10, 20, 0, TCPAck, 50)
	for cut := 0; cut < n; cut++ {
		// Any prefix must decode cleanly or error, never panic.
		p.DecodePacket(buf[:cut])
	}
}

func BenchmarkDecodeTCPv4(b *testing.B) {
	buf := make([]byte, 2048)
	n, _ := BuildTCPv4(buf, [4]byte{10, 0, 0, 5}, [4]byte{93, 184, 216, 34}, 40000, 443, 100, TCPAck, 1200)
	p := new(Parser)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.DecodePacket(buf[:n]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildTCPv4(b *testing.B) {
	buf := make([]byte, 2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildTCPv4(buf, [4]byte{10, 0, 0, 5}, [4]byte{93, 184, 216, 34}, 40000, 443, uint32(i), TCPAck, 1200); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSnapDecode(t *testing.T) {
	buf := make([]byte, 4096)
	n, err := BuildTCPv4(buf, [4]byte{10, 0, 0, 7}, [4]byte{1, 2, 3, 4}, 1111, 443, 5, TCPAck, 3000)
	if err != nil {
		t.Fatal(err)
	}
	snapped := Snap(buf[:n], 64)
	if len(snapped) != 64 {
		t.Fatalf("snapped to %d", len(snapped))
	}
	p := new(Parser)
	d, err := p.DecodePacket(snapped)
	if err != nil {
		t.Fatal(err)
	}
	if d.WireLen != n {
		t.Errorf("WireLen = %d, want %d", d.WireLen, n)
	}
	if d.Tuple.PortA != 1111 || d.Tuple.PortB != 443 {
		t.Errorf("tuple = %+v", d.Tuple)
	}
	if len(d.Payload) != 64-40 {
		t.Errorf("captured payload = %d", len(d.Payload))
	}
}

func TestSnapDecodeUDP(t *testing.T) {
	buf := make([]byte, 4096)
	n, err := BuildUDPv4(buf, [4]byte{10, 0, 0, 7}, [4]byte{8, 8, 8, 8}, 5353, 53, 2000)
	if err != nil {
		t.Fatal(err)
	}
	p := new(Parser)
	d, err := p.DecodePacket(Snap(buf[:n], 48))
	if err != nil {
		t.Fatal(err)
	}
	if d.WireLen != n || d.Transport != LayerTypeUDP || d.Tuple.PortB != 53 {
		t.Errorf("snap UDP: wire=%d transport=%v tuple=%+v", d.WireLen, d.Transport, d.Tuple)
	}
}

func TestSnapFullPacketStillVerified(t *testing.T) {
	// The parser accepts snapped captures but still fully verifies packets
	// that are complete.
	buf := make([]byte, 256)
	n, _ := BuildTCPv4(buf, [4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}, 1, 2, 0, TCPAck, 20)
	p := new(Parser)
	if _, err := p.DecodePacket(buf[:n]); err != nil {
		t.Fatalf("full packet: %v", err)
	}
	buf[n-1] ^= 1
	if _, err := p.DecodePacket(buf[:n]); err != ErrBadChecksum {
		t.Errorf("corrupt full packet in snap mode: %v", err)
	}
}

func TestSnapTooShortForHeaders(t *testing.T) {
	buf := make([]byte, 256)
	n, _ := BuildTCPv4(buf, [4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}, 1, 2, 0, TCPAck, 100)
	p := new(Parser)
	// 30 bytes: IP header complete, TCP header truncated.
	if _, err := p.DecodePacket(Snap(buf[:n], 30)); err != ErrTruncated {
		t.Errorf("truncated transport header: %v", err)
	}
}

func TestSnapHelper(t *testing.T) {
	pkt := []byte{1, 2, 3, 4}
	if got := Snap(pkt, 0); len(got) != 4 {
		t.Error("snaplen 0 means no truncation")
	}
	if got := Snap(pkt, 10); len(got) != 4 {
		t.Error("snaplen beyond packet is identity")
	}
	if got := Snap(pkt, 2); len(got) != 2 {
		t.Error("snap failed")
	}
}

func TestBuildTCPv4SnappedMatchesFull(t *testing.T) {
	// The snapped builder must produce byte-identical output to the full
	// builder over the captured prefix, including a checksum that verifies
	// when the packet is small enough to be complete.
	full := make([]byte, 65536)
	snap := make([]byte, 65536)
	for _, plen := range []int{0, 1, 56, 1000, 60000} {
		n, err := BuildTCPv4(full, [4]byte{10, 1, 2, 3}, [4]byte{23, 4, 5, 6}, 40000, 443, 77, TCPAck, plen)
		if err != nil {
			t.Fatal(err)
		}
		stored, wire, err := BuildTCPv4Snapped(snap, [4]byte{10, 1, 2, 3}, [4]byte{23, 4, 5, 6}, 40000, 443, 77, TCPAck, plen, 96)
		if err != nil {
			t.Fatal(err)
		}
		if wire != n {
			t.Fatalf("plen %d: wire %d != full %d", plen, wire, n)
		}
		// The full builder uses window 65535 too? No - it uses the TCP
		// struct default from BuildTCPv4 (65535). Compare prefixes.
		if !bytes.Equal(full[:stored], snap[:stored]) {
			t.Errorf("plen %d: stored bytes differ from full build", plen)
		}
	}
}

func TestBuildTCPv4SnappedDecodes(t *testing.T) {
	buf := make([]byte, 4096)
	stored, wire, err := BuildTCPv4Snapped(buf, [4]byte{10, 0, 0, 1}, [4]byte{23, 0, 0, 1}, 5555, 80, 0, TCPPsh|TCPAck, 50000, 96)
	if err != nil {
		t.Fatal(err)
	}
	if stored != 96 || wire != 50040 {
		t.Fatalf("stored=%d wire=%d", stored, wire)
	}
	p := new(Parser)
	d, err := p.DecodePacket(buf[:stored])
	if err != nil {
		t.Fatal(err)
	}
	if d.WireLen != 50040 || d.Tuple.PortA != 5555 {
		t.Errorf("decoded wire=%d tuple=%+v", d.WireLen, d.Tuple)
	}
	// A small packet is complete and must checksum-verify.
	stored, wire, err = BuildTCPv4Snapped(buf, [4]byte{10, 0, 0, 1}, [4]byte{23, 0, 0, 1}, 5555, 80, 0, TCPAck, 20, 96)
	if err != nil {
		t.Fatal(err)
	}
	if stored != wire {
		t.Fatalf("small packet should be complete: %d vs %d", stored, wire)
	}
	if _, err := p.DecodePacket(buf[:stored]); err != nil {
		t.Errorf("small snapped packet failed to verify: %v", err)
	}
}

func TestBuildTCPv4SnappedTooBig(t *testing.T) {
	buf := make([]byte, 4096)
	if _, _, err := BuildTCPv4Snapped(buf, [4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}, 1, 2, 0, TCPAck, 70000, 96); err != ErrBadHeader {
		t.Errorf("oversized payload: %v", err)
	}
	if _, _, err := BuildTCPv4Snapped(buf[:10], [4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}, 1, 2, 0, TCPAck, 100, 96); err != ErrTruncated {
		t.Errorf("small buffer: %v", err)
	}
}

func TestParserIPv6TCP(t *testing.T) {
	var src, dst [16]byte
	src[0], dst[0] = 0x20, 0x20
	src[15], dst[15] = 1, 2
	ip := IPv6{NextHeader: IPProtoTCP, HopLimit: 64, SrcIP: src, DstIP: dst}
	tcp := TCP{SrcPort: 1234, DstPort: 443, Flags: TCPAck, Window: 1000}
	seg := make([]byte, 256)
	segLen, err := tcp.SerializeTo(seg, []byte("payload"), &ip)
	if err != nil {
		t.Fatal(err)
	}
	pkt := make([]byte, 512)
	n, err := ip.SerializeTo(pkt, seg[:segLen])
	if err != nil {
		t.Fatal(err)
	}
	p := new(Parser)
	d, err := p.DecodePacket(pkt[:n])
	if err != nil {
		t.Fatal(err)
	}
	if d.Network != LayerTypeIPv6 || d.Transport != LayerTypeTCP {
		t.Errorf("layers = %v/%v", d.Network, d.Transport)
	}
	if d.WireLen != n || string(d.Payload) != "payload" {
		t.Errorf("wire=%d payload=%q", d.WireLen, d.Payload)
	}
	if d.Tuple.AddrA.typ != EndpointIPv6 {
		t.Errorf("addr family = %v", d.Tuple.AddrA.typ)
	}
}

func TestParserIPv6UDP(t *testing.T) {
	var src, dst [16]byte
	src[15], dst[15] = 3, 4
	ip := IPv6{NextHeader: IPProtoUDP, HopLimit: 64, SrcIP: src, DstIP: dst}
	udp := UDP{SrcPort: 5353, DstPort: 53}
	seg := make([]byte, 64)
	segLen, err := udp.SerializeTo(seg, []byte{1, 2, 3}, &ip)
	if err != nil {
		t.Fatal(err)
	}
	pkt := make([]byte, 128)
	n, err := ip.SerializeTo(pkt, seg[:segLen])
	if err != nil {
		t.Fatal(err)
	}
	p := new(Parser)
	d, err := p.DecodePacket(pkt[:n])
	if err != nil {
		t.Fatal(err)
	}
	if d.Transport != LayerTypeUDP || d.Tuple.PortA != 5353 || len(d.Payload) != 3 {
		t.Errorf("decoded %+v payload=%d", d.Tuple, len(d.Payload))
	}
}

func TestLayerTypeStrings(t *testing.T) {
	for lt, want := range map[LayerType]string{
		LayerTypeIPv4: "IPv4", LayerTypeIPv6: "IPv6", LayerTypeTCP: "TCP",
		LayerTypeUDP: "UDP", LayerTypePayload: "Payload", LayerTypeZero: "Unknown",
	} {
		if lt.String() != want {
			t.Errorf("%d.String() = %q, want %q", lt, lt.String(), want)
		}
	}
}

func TestFiveTupleString(t *testing.T) {
	a := NewEndpoint(EndpointIPv4, []byte{10, 0, 0, 1})
	b := NewEndpoint(EndpointIPv4, []byte{8, 8, 8, 8})
	ft := FiveTuple{AddrA: a, AddrB: b, PortA: 1000, PortB: 53, Proto: IPProtoUDP}
	if got := ft.String(); got != "10.0.0.1:1000<->8.8.8.8:53/17" {
		t.Errorf("tuple string = %q", got)
	}
}

func TestBuildTCPv4SnappedPayload(t *testing.T) {
	buf := make([]byte, 4096)
	prefix := []byte("GET /poll HTTP/1.1\r\nHost: api.example.com\r\n\r\n")
	// Complete packet (payload = prefix only): must strictly verify.
	stored, wire, err := BuildTCPv4SnappedPayload(buf, [4]byte{10, 0, 0, 1}, [4]byte{23, 0, 0, 9},
		40001, 80, 7, TCPPsh|TCPAck, prefix, len(prefix), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if stored != wire || wire != 40+len(prefix) {
		t.Fatalf("stored=%d wire=%d", stored, wire)
	}
	p := new(Parser)
	d, err := p.DecodePacket(buf[:stored])
	if err != nil {
		t.Fatalf("verified decode: %v", err)
	}
	if string(d.Payload) != string(prefix) {
		t.Errorf("payload = %q", d.Payload)
	}

	// Odd-length prefix: checksum composition must still hold.
	odd := []byte("GET / HTTP/1.1\r\nHost: x.y\r\n")
	if len(odd)%2 == 0 {
		odd = append(odd, '\n')
	}
	stored, wire, err = BuildTCPv4SnappedPayload(buf, [4]byte{10, 0, 0, 1}, [4]byte{23, 0, 0, 9},
		40002, 80, 0, TCPAck, odd, len(odd), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.DecodePacket(buf[:stored]); err != nil {
		t.Fatalf("odd prefix decode: %v", err)
	}

	// Large payload snapped: prefix is always fully captured and the wire
	// length preserved; checksum covers prefix + implicit zeros.
	stored, wire, err = BuildTCPv4SnappedPayload(buf, [4]byte{10, 0, 0, 1}, [4]byte{23, 0, 0, 9},
		40003, 80, 0, TCPAck, prefix, 50000, 96)
	if err != nil {
		t.Fatal(err)
	}
	if wire != 40+50000 {
		t.Fatalf("wire = %d", wire)
	}
	if stored < 40+len(prefix) {
		t.Fatalf("prefix truncated: stored=%d", stored)
	}
	d, err = p.DecodePacket(buf[:stored])
	if err != nil {
		t.Fatal(err)
	}
	if d.WireLen != wire {
		t.Errorf("wirelen = %d", d.WireLen)
	}
	if string(d.Payload[:len(prefix)]) != string(prefix) {
		t.Errorf("captured prefix = %q", d.Payload[:len(prefix)])
	}

	// Zero-fill equivalence: with an empty prefix the output matches
	// BuildTCPv4Snapped byte for byte.
	a := make([]byte, 4096)
	bb := make([]byte, 4096)
	sa, wa, _ := BuildTCPv4SnappedPayload(a, [4]byte{1, 2, 3, 4}, [4]byte{5, 6, 7, 8}, 1, 2, 3, TCPAck, nil, 500, 96)
	sb, wb, _ := BuildTCPv4Snapped(bb, [4]byte{1, 2, 3, 4}, [4]byte{5, 6, 7, 8}, 1, 2, 3, TCPAck, 500, 96)
	if sa != sb || wa != wb || !bytes.Equal(a[:sa], bb[:sb]) {
		t.Error("empty-prefix build differs from zero build")
	}
}

func TestCanonicalIdempotentProperty(t *testing.T) {
	src := rng.New(44)
	f := func(pa, pb uint16, proto uint8) bool {
		mk := func() Endpoint {
			raw := make([]byte, 4)
			for i := range raw {
				raw[i] = byte(src.Intn(256))
			}
			return NewEndpoint(EndpointIPv4, raw)
		}
		ft := FiveTuple{AddrA: mk(), AddrB: mk(), PortA: pa, PortB: pb, Proto: proto}
		c := ft.Canonical()
		if c.Canonical() != c {
			return false // idempotence
		}
		rev := FiveTuple{AddrA: ft.AddrB, AddrB: ft.AddrA, PortA: ft.PortB, PortB: ft.PortA, Proto: proto}
		return rev.Canonical() == c // direction symmetry
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
