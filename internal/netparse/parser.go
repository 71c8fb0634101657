package netparse

import "encoding/binary"

// Decoded is the result of parsing one packet with Parser: which layers were
// present, the five-tuple, and payload length. The struct is reused across
// DecodePacket calls, in the DecodingLayerParser style — callers must copy
// anything they want to keep.
type Decoded struct {
	Network   LayerType // LayerTypeIPv4 or LayerTypeIPv6
	Transport LayerType // LayerTypeTCP or LayerTypeUDP
	IPv4      IPv4
	IPv6      IPv6
	TCP       TCP
	UDP       UDP
	Tuple     FiveTuple
	Payload   []byte // sub-slice of the input packet; valid until next decode
	WireLen   int    // total bytes consumed from the input
}

// Parser decodes packets into preallocated layers without per-packet
// allocation. It verifies IP/TCP/UDP checksums, and it accepts
// snap-length-truncated captures: packets whose stored bytes are shorter
// than the IP header's total length decode normally (headers must be
// complete), Payload holds only the captured bytes, WireLen reports the true
// on-wire size, and checksums are skipped for truncated packets (they cannot
// be verified without the full body). The zero value is ready to use. A
// Parser is not safe for concurrent use; create one per goroutine.
type Parser struct {
	dec Decoded
}

// DecodePacket parses a raw IP packet (IPv4 or IPv6, selected by the
// version nibble) down to its transport layer. The returned Decoded is
// owned by the Parser and overwritten by the next call.
func (p *Parser) DecodePacket(data []byte) (*Decoded, error) {
	d := &p.dec
	*d = Decoded{}
	if len(data) == 0 {
		return nil, ErrTruncated
	}
	if data[0]>>4 == 4 && len(data) >= 20 {
		if total := int(binary.BigEndian.Uint16(data[2:4])); total > len(data) {
			return p.decodeSnappedV4(data)
		}
	}
	var (
		transport []byte
		err       error
		proto     uint8
		net       pseudoHeader
	)
	switch data[0] >> 4 {
	case 4:
		transport, err = d.IPv4.DecodeFromBytes(data)
		if err != nil {
			return nil, err
		}
		d.Network = LayerTypeIPv4
		proto = d.IPv4.Protocol
		d.Tuple.AddrA = d.IPv4.SrcEndpoint()
		d.Tuple.AddrB = d.IPv4.DstEndpoint()
		d.WireLen = int(d.IPv4.Length)
		net = &d.IPv4
	case 6:
		transport, err = d.IPv6.DecodeFromBytes(data)
		if err != nil {
			return nil, err
		}
		d.Network = LayerTypeIPv6
		proto = d.IPv6.NextHeader
		d.Tuple.AddrA = d.IPv6.SrcEndpoint()
		d.Tuple.AddrB = d.IPv6.DstEndpoint()
		d.WireLen = 40 + int(d.IPv6.PayloadLen)
		net = &d.IPv6
	default:
		return nil, ErrBadVersion
	}
	d.Tuple.Proto = proto
	switch proto {
	case IPProtoTCP:
		d.Payload, err = d.TCP.DecodeFromBytes(transport, net)
		if err != nil {
			return nil, err
		}
		d.Transport = LayerTypeTCP
		d.Tuple.PortA = d.TCP.SrcPort
		d.Tuple.PortB = d.TCP.DstPort
	case IPProtoUDP:
		d.Payload, err = d.UDP.DecodeFromBytes(transport, net)
		if err != nil {
			return nil, err
		}
		d.Transport = LayerTypeUDP
		d.Tuple.PortA = d.UDP.SrcPort
		d.Tuple.PortB = d.UDP.DstPort
	default:
		return nil, ErrUnsupported
	}
	return d, nil
}

// decodeSnappedV4 handles an IPv4 packet whose capture was cut short of the
// wire length by a snap limit. All headers must be present; checksums are
// not verified (the body they cover is missing).
func (p *Parser) decodeSnappedV4(data []byte) (*Decoded, error) {
	d := &p.dec
	ihl := int(data[0]&0x0f) * 4
	if ihl < 20 || len(data) < ihl {
		return nil, ErrBadHeader
	}
	total := int(binary.BigEndian.Uint16(data[2:4]))
	if total < ihl {
		return nil, ErrBadHeader
	}
	ip := &d.IPv4
	ip.TOS = data[1]
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ip.TTL = data[8]
	ip.Protocol = data[9]
	copy(ip.SrcIP[:], data[12:16])
	copy(ip.DstIP[:], data[16:20])
	ip.Length = uint16(total)
	d.Network = LayerTypeIPv4
	d.WireLen = total
	d.Tuple.AddrA = ip.SrcEndpoint()
	d.Tuple.AddrB = ip.DstEndpoint()
	d.Tuple.Proto = ip.Protocol
	seg := data[ihl:]
	switch ip.Protocol {
	case IPProtoTCP:
		if len(seg) < 20 {
			return nil, ErrTruncated
		}
		t := &d.TCP
		t.SrcPort = binary.BigEndian.Uint16(seg[0:2])
		t.DstPort = binary.BigEndian.Uint16(seg[2:4])
		t.Seq = binary.BigEndian.Uint32(seg[4:8])
		t.Ack = binary.BigEndian.Uint32(seg[8:12])
		off := int(seg[12]>>4) * 4
		if off < 20 {
			return nil, ErrBadHeader
		}
		t.Flags = seg[13] & 0x1f
		t.Window = binary.BigEndian.Uint16(seg[14:16])
		d.Transport = LayerTypeTCP
		d.Tuple.PortA, d.Tuple.PortB = t.SrcPort, t.DstPort
		if len(seg) > off {
			d.Payload = seg[off:]
		}
	case IPProtoUDP:
		if len(seg) < 8 {
			return nil, ErrTruncated
		}
		u := &d.UDP
		u.SrcPort = binary.BigEndian.Uint16(seg[0:2])
		u.DstPort = binary.BigEndian.Uint16(seg[2:4])
		u.Length = binary.BigEndian.Uint16(seg[4:6])
		d.Transport = LayerTypeUDP
		d.Tuple.PortA, d.Tuple.PortB = u.SrcPort, u.DstPort
		if len(seg) > 8 {
			d.Payload = seg[8:]
		}
	default:
		return nil, ErrUnsupported
	}
	return d, nil
}

// Snap truncates a serialised packet to at most snaplen captured bytes,
// mirroring tcpdump's -s flag. The returned slice aliases pkt.
func Snap(pkt []byte, snaplen int) []byte {
	if snaplen <= 0 || len(pkt) <= snaplen {
		return pkt
	}
	return pkt[:snaplen]
}

// BuildTCPv4 serialises an IPv4+TCP packet with the given addressing and a
// zero-filled payload of payloadLen bytes into buf, returning the bytes
// written. buf must hold at least 40+payloadLen bytes.
func BuildTCPv4(buf []byte, src, dst [4]byte, srcPort, dstPort uint16, seq uint32, flags uint8, payloadLen int) (int, error) {
	total := 40 + payloadLen
	if len(buf) < total {
		return 0, ErrTruncated
	}
	ip := IPv4{TTL: 64, Protocol: IPProtoTCP, SrcIP: src, DstIP: dst}
	tcp := TCP{SrcPort: srcPort, DstPort: dstPort, Seq: seq, Flags: flags, Window: 65535}
	// Serialise the transport segment directly into its final position so
	// the checksum covers the real payload bytes.
	seg := buf[20:total]
	if _, err := tcp.SerializeTo(seg, zeroPayload(buf[40:total]), &ip); err != nil {
		return 0, err
	}
	return serializeIPv4WithSegment(buf, &ip, total-20)
}

// BuildUDPv4 serialises an IPv4+UDP packet analogous to BuildTCPv4.
func BuildUDPv4(buf []byte, src, dst [4]byte, srcPort, dstPort uint16, payloadLen int) (int, error) {
	total := 28 + payloadLen
	if len(buf) < total {
		return 0, ErrTruncated
	}
	ip := IPv4{TTL: 64, Protocol: IPProtoUDP, SrcIP: src, DstIP: dst}
	udp := UDP{SrcPort: srcPort, DstPort: dstPort}
	seg := buf[20:total]
	if _, err := udp.SerializeTo(seg, zeroPayload(buf[28:total]), &ip); err != nil {
		return 0, err
	}
	return serializeIPv4WithSegment(buf, &ip, total-20)
}

// serializeIPv4WithSegment writes the IPv4 header into buf[:20] assuming the
// transport segment of segLen bytes is already in place at buf[20:].
func serializeIPv4WithSegment(buf []byte, ip *IPv4, segLen int) (int, error) {
	total := 20 + segLen
	if total > 0xffff {
		return 0, ErrBadHeader
	}
	var binb = buf[:20]
	binb[0] = 0x45
	binb[1] = ip.TOS
	binb[2] = byte(total >> 8)
	binb[3] = byte(total)
	binb[4] = byte(ip.ID >> 8)
	binb[5] = byte(ip.ID)
	binb[6], binb[7] = 0x40, 0x00
	binb[8] = ip.TTL
	binb[9] = ip.Protocol
	binb[10], binb[11] = 0, 0
	copy(binb[12:16], ip.SrcIP[:])
	copy(binb[16:20], ip.DstIP[:])
	cs := checksum(binb, 0)
	binb[10] = byte(cs >> 8)
	binb[11] = byte(cs)
	ip.Length = uint16(total)
	return total, nil
}

// BuildTCPv4Snapped serialises an IPv4+TCP packet with a zero payload of
// payloadLen bytes, storing at most snaplen captured bytes (like a capture
// taken with tcpdump -s). The IP total-length field carries the true wire
// size; the TCP checksum is valid for the full (all-zero) payload because
// zero bytes contribute nothing to the one's-complement sum. It returns the
// stored byte count and the wire length. Runtime is O(snaplen), which is
// what makes generating multi-month traces practical.
func BuildTCPv4Snapped(buf []byte, src, dst [4]byte, srcPort, dstPort uint16,
	seq uint32, flags uint8, payloadLen, snaplen int) (stored, wire int, err error) {
	wire = 40 + payloadLen
	if wire > 0xffff {
		return 0, 0, ErrBadHeader
	}
	stored = wire
	if snaplen > 0 && stored > snaplen {
		stored = snaplen
	}
	if stored < 40 {
		stored = 40 // headers are always captured in full
	}
	if len(buf) < stored {
		return 0, 0, ErrTruncated
	}
	ip := IPv4{TTL: 64, Protocol: IPProtoTCP, SrcIP: src, DstIP: dst}

	// TCP header at buf[20:40].
	t := buf[20:40]
	t[0], t[1] = byte(srcPort>>8), byte(srcPort)
	t[2], t[3] = byte(dstPort>>8), byte(dstPort)
	t[4], t[5], t[6], t[7] = byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq)
	t[8], t[9], t[10], t[11] = 0, 0, 0, 0
	t[12] = 5 << 4
	t[13] = flags
	t[14], t[15] = 0xff, 0xff // window 65535
	t[16], t[17] = 0, 0
	t[18], t[19] = 0, 0
	cs := checksum(t, ip.pseudoHeaderSum(IPProtoTCP, 20+payloadLen))
	t[16], t[17] = byte(cs>>8), byte(cs)

	// Captured payload slice is zeroed (matches the checksum above).
	for i := 40; i < stored; i++ {
		buf[i] = 0
	}
	if _, err := serializeIPv4WithSegment(buf, &ip, 20+payloadLen); err != nil {
		return 0, 0, err
	}
	return stored, wire, nil
}

// BuildTCPv4SnappedPayload is BuildTCPv4Snapped with an application-layer
// prefix: the payload consists of prefix followed by zeros up to
// payloadLen bytes. The TCP checksum covers the real prefix bytes (the
// zero remainder contributes nothing), so complete packets still verify.
// Runtime is O(snaplen + len(prefix)).
func BuildTCPv4SnappedPayload(buf []byte, src, dst [4]byte, srcPort, dstPort uint16,
	seq uint32, flags uint8, prefix []byte, payloadLen, snaplen int) (stored, wire int, err error) {
	if len(prefix) > payloadLen {
		payloadLen = len(prefix)
	}
	wire = 40 + payloadLen
	if wire > 0xffff {
		return 0, 0, ErrBadHeader
	}
	stored = wire
	if snaplen > 0 && stored > snaplen {
		stored = snaplen
	}
	if stored < 40 {
		stored = 40
	}
	if min := 40 + len(prefix); stored < min && wire >= min {
		stored = min // always capture the full application prefix
	}
	if len(buf) < stored {
		return 0, 0, ErrTruncated
	}
	ip := IPv4{TTL: 64, Protocol: IPProtoTCP, SrcIP: src, DstIP: dst}

	t := buf[20:40]
	t[0], t[1] = byte(srcPort>>8), byte(srcPort)
	t[2], t[3] = byte(dstPort>>8), byte(dstPort)
	t[4], t[5], t[6], t[7] = byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq)
	t[8], t[9], t[10], t[11] = 0, 0, 0, 0
	t[12] = 5 << 4
	t[13] = flags
	t[14], t[15] = 0xff, 0xff
	t[16], t[17] = 0, 0
	t[18], t[19] = 0, 0
	copy(buf[40:], prefix)
	for i := 40 + len(prefix); i < stored; i++ {
		buf[i] = 0
	}
	sum := ip.pseudoHeaderSum(IPProtoTCP, 20+payloadLen)
	sum += uint32(0xffff ^ checksum(t, 0)) // fold header words
	cs := checksum(prefix, sum)
	t[16], t[17] = byte(cs>>8), byte(cs)
	if _, err := serializeIPv4WithSegment(buf, &ip, 20+payloadLen); err != nil {
		return 0, 0, err
	}
	return stored, wire, nil
}

// zeroPayload zeroes b and returns it, so builders produce deterministic
// packet bytes regardless of buffer reuse.
func zeroPayload(b []byte) []byte {
	for i := range b {
		b[i] = 0
	}
	return b
}
