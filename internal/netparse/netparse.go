// Package netparse is a small, allocation-free packet layer codec in the
// style of gopacket: packets are decoded layer by layer into preallocated
// structs, and flows are identified by hashable Endpoint/Flow values.
//
// The synthetic trace generator serialises real IPv4/IPv6 + TCP/UDP headers
// with this package, and the analysis pipeline decodes those bytes back —
// the analyzer therefore exercises a genuine wire-format path rather than
// passing structs around in memory.
package netparse

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// LayerType identifies a protocol layer.
type LayerType uint8

// Known layer types.
const (
	LayerTypeZero LayerType = iota
	LayerTypeIPv4
	LayerTypeIPv6
	LayerTypeTCP
	LayerTypeUDP
	LayerTypePayload
)

// String returns the conventional protocol name.
func (t LayerType) String() string {
	switch t {
	case LayerTypeIPv4:
		return "IPv4"
	case LayerTypeIPv6:
		return "IPv6"
	case LayerTypeTCP:
		return "TCP"
	case LayerTypeUDP:
		return "UDP"
	case LayerTypePayload:
		return "Payload"
	default:
		return "Unknown"
	}
}

// Decoding errors.
var (
	ErrTruncated   = errors.New("netparse: packet truncated")
	ErrBadVersion  = errors.New("netparse: unexpected IP version")
	ErrBadHeader   = errors.New("netparse: malformed header")
	ErrBadChecksum = errors.New("netparse: checksum mismatch")
	ErrUnsupported = errors.New("netparse: unsupported next protocol")
)

// IP protocol numbers used by this codec.
const (
	IPProtoTCP = 6
	IPProtoUDP = 17
)

// EndpointType distinguishes address families within Endpoint values.
type EndpointType uint8

// Endpoint address families.
const (
	EndpointInvalid EndpointType = iota
	EndpointIPv4
	EndpointIPv6
	EndpointPort
)

// Endpoint is a hashable network address: a fixed-size array plus length,
// usable as a map key (the same trick gopacket uses to avoid allocating).
type Endpoint struct {
	typ EndpointType
	len uint8
	raw [16]byte
}

// NewEndpoint builds an Endpoint from raw bytes. Raw longer than 16 bytes
// is rejected by returning the invalid endpoint.
func NewEndpoint(typ EndpointType, raw []byte) Endpoint {
	var e Endpoint
	if len(raw) > len(e.raw) {
		return Endpoint{}
	}
	e.typ = typ
	e.len = uint8(len(raw))
	copy(e.raw[:], raw)
	return e
}

// Raw returns a copy of the endpoint's address bytes.
func (e Endpoint) Raw() []byte {
	out := make([]byte, e.len)
	copy(out, e.raw[:e.len])
	return out
}

// String renders the endpoint in conventional notation.
func (e Endpoint) String() string {
	switch e.typ {
	case EndpointIPv4:
		if e.len == 4 {
			return fmt.Sprintf("%d.%d.%d.%d", e.raw[0], e.raw[1], e.raw[2], e.raw[3])
		}
	case EndpointIPv6:
		if e.len == 16 {
			return fmt.Sprintf("%x:%x:%x:%x:%x:%x:%x:%x",
				binary.BigEndian.Uint16(e.raw[0:]), binary.BigEndian.Uint16(e.raw[2:]),
				binary.BigEndian.Uint16(e.raw[4:]), binary.BigEndian.Uint16(e.raw[6:]),
				binary.BigEndian.Uint16(e.raw[8:]), binary.BigEndian.Uint16(e.raw[10:]),
				binary.BigEndian.Uint16(e.raw[12:]), binary.BigEndian.Uint16(e.raw[14:]))
		}
	case EndpointPort:
		if e.len == 2 {
			return fmt.Sprintf("%d", binary.BigEndian.Uint16(e.raw[:2]))
		}
	}
	return "invalid"
}

// Flow is an ordered (src, dst) pair of Endpoints; like gopacket's Flow it
// is hashable and comparable, so it can key maps directly.
type Flow struct {
	src, dst Endpoint
}

// NewFlow builds a Flow from src to dst.
func NewFlow(src, dst Endpoint) Flow { return Flow{src: src, dst: dst} }

// Src returns the flow's source endpoint.
func (f Flow) Src() Endpoint { return f.src }

// Dst returns the flow's destination endpoint.
func (f Flow) Dst() Endpoint { return f.dst }

// Reverse returns the flow with src and dst swapped.
func (f Flow) Reverse() Flow { return Flow{src: f.dst, dst: f.src} }

// String renders "src->dst".
func (f Flow) String() string { return f.src.String() + "->" + f.dst.String() }

// FiveTuple is the canonical bidirectional flow key: the (addr, port)
// pairs are ordered so that both directions of a connection map to the
// same key, plus the transport protocol.
type FiveTuple struct {
	AddrA, AddrB Endpoint
	PortA, PortB uint16
	Proto        uint8
}

// Canonical returns the five-tuple with (AddrA,PortA) <= (AddrB,PortB) in
// byte order, so both directions of a connection compare equal.
func (ft FiveTuple) Canonical() FiveTuple {
	if lessEndpointPort(ft.AddrB, ft.PortB, ft.AddrA, ft.PortA) {
		return FiveTuple{AddrA: ft.AddrB, AddrB: ft.AddrA, PortA: ft.PortB, PortB: ft.PortA, Proto: ft.Proto}
	}
	return ft
}

func lessEndpointPort(a Endpoint, ap uint16, b Endpoint, bp uint16) bool {
	if a.typ != b.typ {
		return a.typ < b.typ
	}
	n := int(a.len)
	if int(b.len) < n {
		n = int(b.len)
	}
	for i := 0; i < n; i++ {
		if a.raw[i] != b.raw[i] {
			return a.raw[i] < b.raw[i]
		}
	}
	if a.len != b.len {
		return a.len < b.len
	}
	return ap < bp
}

// String renders the canonical tuple.
func (ft FiveTuple) String() string {
	return fmt.Sprintf("%s:%d<->%s:%d/%d", ft.AddrA, ft.PortA, ft.AddrB, ft.PortB, ft.Proto)
}

// FastHash returns a 64-bit non-cryptographic hash of the canonical tuple,
// symmetric across directions (FNV-1a over canonical ordering).
func (ft FiveTuple) FastHash() uint64 {
	c := ft.Canonical()
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime
	}
	mix(byte(c.AddrA.typ))
	for i := uint8(0); i < c.AddrA.len; i++ {
		mix(c.AddrA.raw[i])
	}
	mix(byte(c.PortA >> 8))
	mix(byte(c.PortA))
	mix(byte(c.AddrB.typ))
	for i := uint8(0); i < c.AddrB.len; i++ {
		mix(c.AddrB.raw[i])
	}
	mix(byte(c.PortB >> 8))
	mix(byte(c.PortB))
	mix(c.Proto)
	return h
}

// checksum computes the 16-bit one's-complement internet checksum over data
// with an initial partial sum (for pseudo-headers).
func checksum(data []byte, initial uint32) uint16 {
	sum := initial
	for len(data) >= 2 {
		sum += uint32(data[0])<<8 | uint32(data[1])
		data = data[2:]
	}
	if len(data) == 1 {
		sum += uint32(data[0]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}
