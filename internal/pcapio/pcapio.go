// Package pcapio reads and writes classic libpcap capture files
// (the tcpdump format), so traces produced by this repository can be
// inspected with standard tools and real captures can be fed to the energy
// profiler.
//
// Only the classic format (magic 0xa1b2c3d4, microsecond timestamps,
// version 2.4) is produced; both byte orders and both microsecond and
// nanosecond variants are accepted on read. The link type used is
// LINKTYPE_RAW (101): packets begin directly with the IP header, matching
// the payloads of METR packet records.
package pcapio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"netenergy/internal/trace"
)

// LinkTypeRaw is the pcap link type for raw IP packets.
const LinkTypeRaw = 101

// Magic numbers.
const (
	magicMicro = 0xa1b2c3d4
	magicNano  = 0xa1b23c4d
)

// Format errors.
var (
	ErrBadMagic  = errors.New("pcapio: not a pcap file")
	ErrTruncated = errors.New("pcapio: truncated packet record")
)

// Packet is one captured packet.
type Packet struct {
	TS      trace.Timestamp
	OrigLen int    // length on the wire
	Data    []byte // captured bytes (may be shorter than OrigLen)
}

// Writer emits a classic pcap stream.
type Writer struct {
	w       *bufio.Writer
	snaplen uint32
	hdr     [16]byte
}

// NewWriter writes the global header and returns a Writer. snaplen is
// recorded in the header; packets are not re-truncated by the writer.
func NewWriter(w io.Writer, snaplen int) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [24]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], magicMicro)
	le.PutUint16(hdr[4:], 2) // version major
	le.PutUint16(hdr[6:], 4) // version minor
	// thiszone, sigfigs zero.
	if snaplen <= 0 {
		snaplen = 65535
	}
	le.PutUint32(hdr[16:], uint32(snaplen))
	le.PutUint32(hdr[20:], LinkTypeRaw)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw, snaplen: uint32(snaplen)}, nil
}

// WritePacket appends one packet record.
func (w *Writer) WritePacket(p Packet) error {
	le := binary.LittleEndian
	usec := int64(p.TS)
	le.PutUint32(w.hdr[0:], uint32(usec/1e6))
	le.PutUint32(w.hdr[4:], uint32(usec%1e6))
	le.PutUint32(w.hdr[8:], uint32(len(p.Data)))
	orig := p.OrigLen
	if orig < len(p.Data) {
		orig = len(p.Data)
	}
	le.PutUint32(w.hdr[12:], uint32(orig))
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		return err
	}
	_, err := w.w.Write(p.Data)
	return err
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader consumes a pcap stream.
type Reader struct {
	r        *bufio.Reader
	order    binary.ByteOrder
	nano     bool
	snaplen  int
	linkType uint32
	buf      []byte
}

// NewReader validates the global header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, ErrBadMagic
	}
	rd := &Reader{r: br}
	switch binary.LittleEndian.Uint32(hdr[0:]) {
	case magicMicro:
		rd.order = binary.LittleEndian
	case magicNano:
		rd.order, rd.nano = binary.LittleEndian, true
	default:
		switch binary.BigEndian.Uint32(hdr[0:]) {
		case magicMicro:
			rd.order = binary.BigEndian
		case magicNano:
			rd.order, rd.nano = binary.BigEndian, true
		default:
			return nil, ErrBadMagic
		}
	}
	rd.snaplen = int(rd.order.Uint32(hdr[16:]))
	rd.linkType = rd.order.Uint32(hdr[20:])
	return rd, nil
}

// SnapLen returns the capture's snap length.
func (r *Reader) SnapLen() int { return r.snaplen }

// LinkType returns the capture's link type.
func (r *Reader) LinkType() uint32 { return r.linkType }

// Next returns the next packet, or io.EOF at a clean end. The Data slice
// aliases an internal buffer overwritten by the following call.
func (r *Reader) Next() (Packet, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			return Packet{}, io.EOF
		}
		return Packet{}, ErrTruncated
	}
	sec := int64(r.order.Uint32(hdr[0:]))
	frac := int64(r.order.Uint32(hdr[4:]))
	incl := int(r.order.Uint32(hdr[8:]))
	orig := int(r.order.Uint32(hdr[12:]))
	if incl < 0 || incl > 1<<26 {
		return Packet{}, fmt.Errorf("pcapio: implausible capture length %d", incl)
	}
	if cap(r.buf) < incl {
		r.buf = make([]byte, incl)
	}
	data := r.buf[:incl]
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Packet{}, ErrTruncated
	}
	usec := frac
	if r.nano {
		usec = frac / 1000
	}
	return Packet{
		TS:      trace.Timestamp(sec*1e6 + usec),
		OrigLen: orig,
		Data:    data,
	}, nil
}

// ReadAll decodes an entire stream, copying packet data.
func ReadAll(r io.Reader) ([]Packet, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var out []Packet
	for {
		p, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		p.Data = append([]byte(nil), p.Data...)
		out = append(out, p)
	}
}

// FromTrace exports a device trace's packet records (optionally filtered to
// one network interface) as a pcap stream. Process mappings, directions and
// process states have no pcap representation and are dropped; the IP
// header's total-length field preserves the original wire size.
func FromTrace(w io.Writer, dt *trace.DeviceTrace, only trace.Network, filter bool) (int, error) {
	pw, err := NewWriter(w, 0)
	if err != nil {
		return 0, err
	}
	n := 0
	for i := range dt.Records {
		r := &dt.Records[i]
		if r.Type != trace.RecPacket {
			continue
		}
		if filter && r.Net != only {
			continue
		}
		orig := len(r.Payload)
		if len(r.Payload) >= 4 && r.Payload[0]>>4 == 4 {
			orig = int(binary.BigEndian.Uint16(r.Payload[2:4]))
		}
		if err := pw.WritePacket(Packet{TS: r.TS, OrigLen: orig, Data: r.Payload}); err != nil {
			return n, err
		}
		n++
	}
	return n, pw.Flush()
}

// ToTrace imports a pcap stream as a minimal device trace: every packet is
// assigned to a single synthetic app (pcap has no process mapping) on the
// cellular interface in an unknown process state. The result is directly
// consumable by the energy profiler.
func ToTrace(r io.Reader, device string) (*trace.DeviceTrace, error) {
	pkts, err := ReadAll(r)
	if err != nil {
		return nil, err
	}
	dt := &trace.DeviceTrace{Device: device, Apps: trace.NewAppTable()}
	app := dt.Apps.Intern("pcap.unknown")
	dt.Records = append(dt.Records, trace.Record{Type: trace.RecAppName, App: app, AppName: "pcap.unknown"})
	for _, p := range pkts {
		if dt.Start == 0 || p.TS < dt.Start {
			dt.Start = p.TS
		}
		dt.Records = append(dt.Records, trace.Record{
			Type: trace.RecPacket, TS: p.TS, App: app,
			Dir: trace.DirUp, Net: trace.NetCellular,
			State: trace.StateUnknown, Payload: p.Data,
		})
	}
	dt.Records[0].TS = dt.Start // the registration belongs to the capture's span, not to 1970
	dt.SortByTime()
	return dt, nil
}
