package netparse

import "encoding/binary"

// IPv4 is a decoded (or to-be-serialised) IPv4 header. Options are not
// supported; IHL is always 5 on serialisation and options are skipped on
// decode.
type IPv4 struct {
	TOS      uint8
	ID       uint16
	TTL      uint8
	Protocol uint8
	SrcIP    [4]byte
	DstIP    [4]byte
	Length   uint16 // total length incl. header, filled on decode/serialise
}

// SrcEndpoint returns the source address as a hashable Endpoint.
func (ip *IPv4) SrcEndpoint() Endpoint { return NewEndpoint(EndpointIPv4, ip.SrcIP[:]) }

// DstEndpoint returns the destination address as a hashable Endpoint.
func (ip *IPv4) DstEndpoint() Endpoint { return NewEndpoint(EndpointIPv4, ip.DstIP[:]) }

// DecodeFromBytes parses an IPv4 header from data, returning the payload.
func (ip *IPv4) DecodeFromBytes(data []byte) (payload []byte, err error) {
	if len(data) < 20 {
		return nil, ErrTruncated
	}
	if data[0]>>4 != 4 {
		return nil, ErrBadVersion
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < 20 || len(data) < ihl {
		return nil, ErrBadHeader
	}
	total := int(binary.BigEndian.Uint16(data[2:4]))
	if total < ihl || total > len(data) {
		return nil, ErrTruncated
	}
	if checksum(data[:ihl], 0) != 0 {
		return nil, ErrBadChecksum
	}
	ip.TOS = data[1]
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ip.TTL = data[8]
	ip.Protocol = data[9]
	copy(ip.SrcIP[:], data[12:16])
	copy(ip.DstIP[:], data[16:20])
	ip.Length = uint16(total)
	return data[ihl:total], nil
}

// SerializeTo writes a 20-byte header followed by payload into buf, which
// must be at least 20+len(payload) bytes. It returns the bytes written.
func (ip *IPv4) SerializeTo(buf []byte, payload []byte) (int, error) {
	total := 20 + len(payload)
	if len(buf) < total {
		return 0, ErrTruncated
	}
	if total > 0xffff {
		return 0, ErrBadHeader
	}
	b := buf[:20]
	b[0] = 0x45 // version 4, IHL 5
	b[1] = ip.TOS
	binary.BigEndian.PutUint16(b[2:4], uint16(total))
	binary.BigEndian.PutUint16(b[4:6], ip.ID)
	binary.BigEndian.PutUint16(b[6:8], 0x4000) // DF, no fragmentation
	b[8] = ip.TTL
	b[9] = ip.Protocol
	b[10], b[11] = 0, 0
	copy(b[12:16], ip.SrcIP[:])
	copy(b[16:20], ip.DstIP[:])
	cs := checksum(b, 0)
	binary.BigEndian.PutUint16(b[10:12], cs)
	copy(buf[20:total], payload)
	ip.Length = uint16(total)
	return total, nil
}

// pseudoHeaderSum computes the IPv4 pseudo-header partial checksum used by
// TCP and UDP.
func (ip *IPv4) pseudoHeaderSum(proto uint8, segLen int) uint32 {
	var sum uint32
	sum += uint32(ip.SrcIP[0])<<8 | uint32(ip.SrcIP[1])
	sum += uint32(ip.SrcIP[2])<<8 | uint32(ip.SrcIP[3])
	sum += uint32(ip.DstIP[0])<<8 | uint32(ip.DstIP[1])
	sum += uint32(ip.DstIP[2])<<8 | uint32(ip.DstIP[3])
	sum += uint32(proto)
	sum += uint32(segLen)
	return sum
}

// IPv6 is a decoded/serialisable IPv6 fixed header (no extension headers).
type IPv6 struct {
	TrafficClass uint8
	NextHeader   uint8
	HopLimit     uint8
	SrcIP        [16]byte
	DstIP        [16]byte
	PayloadLen   uint16
}

// SrcEndpoint returns the source address as a hashable Endpoint.
func (ip *IPv6) SrcEndpoint() Endpoint { return NewEndpoint(EndpointIPv6, ip.SrcIP[:]) }

// DstEndpoint returns the destination address as a hashable Endpoint.
func (ip *IPv6) DstEndpoint() Endpoint { return NewEndpoint(EndpointIPv6, ip.DstIP[:]) }

// DecodeFromBytes parses an IPv6 fixed header, returning the payload.
func (ip *IPv6) DecodeFromBytes(data []byte) (payload []byte, err error) {
	if len(data) < 40 {
		return nil, ErrTruncated
	}
	if data[0]>>4 != 6 {
		return nil, ErrBadVersion
	}
	plen := int(binary.BigEndian.Uint16(data[4:6]))
	if len(data) < 40+plen {
		return nil, ErrTruncated
	}
	ip.TrafficClass = data[0]<<4 | data[1]>>4
	ip.PayloadLen = uint16(plen)
	ip.NextHeader = data[6]
	ip.HopLimit = data[7]
	copy(ip.SrcIP[:], data[8:24])
	copy(ip.DstIP[:], data[24:40])
	return data[40 : 40+plen], nil
}

// SerializeTo writes the 40-byte header followed by payload into buf.
func (ip *IPv6) SerializeTo(buf []byte, payload []byte) (int, error) {
	total := 40 + len(payload)
	if len(buf) < total {
		return 0, ErrTruncated
	}
	if len(payload) > 0xffff {
		return 0, ErrBadHeader
	}
	b := buf[:40]
	b[0] = 0x60 | ip.TrafficClass>>4
	b[1] = ip.TrafficClass << 4
	b[2], b[3] = 0, 0
	binary.BigEndian.PutUint16(b[4:6], uint16(len(payload)))
	b[6] = ip.NextHeader
	b[7] = ip.HopLimit
	copy(b[8:24], ip.SrcIP[:])
	copy(b[24:40], ip.DstIP[:])
	copy(buf[40:total], payload)
	ip.PayloadLen = uint16(len(payload))
	return total, nil
}

func (ip *IPv6) pseudoHeaderSum(proto uint8, segLen int) uint32 {
	var sum uint32
	for i := 0; i < 16; i += 2 {
		sum += uint32(ip.SrcIP[i])<<8 | uint32(ip.SrcIP[i+1])
		sum += uint32(ip.DstIP[i])<<8 | uint32(ip.DstIP[i+1])
	}
	sum += uint32(segLen)
	sum += uint32(proto)
	return sum
}

// TCP flag bits.
const (
	TCPFin uint8 = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
)

// TCP is a decoded/serialisable TCP header (no options on serialisation).
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
}

// DecodeFromBytes parses a TCP header from data, verifying the checksum
// against the enclosing IP pseudo-header.
func (t *TCP) DecodeFromBytes(data []byte, net pseudoHeader) (payload []byte, err error) {
	if len(data) < 20 {
		return nil, ErrTruncated
	}
	off := int(data[12]>>4) * 4
	if off < 20 || len(data) < off {
		return nil, ErrBadHeader
	}
	if checksum(data, net.pseudoHeaderSum(IPProtoTCP, len(data))) != 0 {
		return nil, ErrBadChecksum
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	t.Flags = data[13] & 0x1f
	t.Window = binary.BigEndian.Uint16(data[14:16])
	return data[off:], nil
}

// SerializeTo writes a 20-byte TCP header plus payload into buf and fills
// in the checksum using the enclosing IP header.
func (t *TCP) SerializeTo(buf []byte, payload []byte, net pseudoHeader) (int, error) {
	total := 20 + len(payload)
	if len(buf) < total {
		return 0, ErrTruncated
	}
	b := buf[:total]
	binary.BigEndian.PutUint16(b[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], t.DstPort)
	binary.BigEndian.PutUint32(b[4:8], t.Seq)
	binary.BigEndian.PutUint32(b[8:12], t.Ack)
	b[12] = 5 << 4
	b[13] = t.Flags
	binary.BigEndian.PutUint16(b[14:16], t.Window)
	b[16], b[17] = 0, 0 // checksum placeholder
	b[18], b[19] = 0, 0 // urgent pointer
	copy(b[20:], payload)
	if net != nil {
		cs := checksum(b, net.pseudoHeaderSum(IPProtoTCP, total))
		binary.BigEndian.PutUint16(b[16:18], cs)
	}
	return total, nil
}

// UDP is a decoded/serialisable UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
}

// DecodeFromBytes parses a UDP header, verifying the checksum against the
// enclosing IP pseudo-header when the packet carries one (checksum != 0).
func (u *UDP) DecodeFromBytes(data []byte, net pseudoHeader) (payload []byte, err error) {
	if len(data) < 8 {
		return nil, ErrTruncated
	}
	ulen := int(binary.BigEndian.Uint16(data[4:6]))
	if ulen < 8 || ulen > len(data) {
		return nil, ErrBadHeader
	}
	if binary.BigEndian.Uint16(data[6:8]) != 0 {
		if checksum(data[:ulen], net.pseudoHeaderSum(IPProtoUDP, ulen)) != 0 {
			return nil, ErrBadChecksum
		}
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.Length = uint16(ulen)
	return data[8:ulen], nil
}

// SerializeTo writes an 8-byte UDP header plus payload into buf.
func (u *UDP) SerializeTo(buf []byte, payload []byte, net pseudoHeader) (int, error) {
	total := 8 + len(payload)
	if len(buf) < total {
		return 0, ErrTruncated
	}
	if total > 0xffff {
		return 0, ErrBadHeader
	}
	b := buf[:total]
	binary.BigEndian.PutUint16(b[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], u.DstPort)
	binary.BigEndian.PutUint16(b[4:6], uint16(total))
	b[6], b[7] = 0, 0
	copy(b[8:], payload)
	if net != nil {
		cs := checksum(b, net.pseudoHeaderSum(IPProtoUDP, total))
		if cs == 0 {
			cs = 0xffff // RFC 768: transmitted zero checksum means "none"
		}
		binary.BigEndian.PutUint16(b[6:8], cs)
	}
	u.Length = uint16(total)
	return total, nil
}

// pseudoHeader is implemented by IPv4 and IPv6 headers to supply the
// transport checksum pseudo-header sum.
type pseudoHeader interface {
	pseudoHeaderSum(proto uint8, segLen int) uint32
}
