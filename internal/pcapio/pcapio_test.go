package pcapio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"netenergy/internal/netparse"
	"netenergy/internal/trace"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 96)
	if err != nil {
		t.Fatal(err)
	}
	pkts := []Packet{
		{TS: 1_500_000, OrigLen: 1000, Data: []byte{0x45, 1, 2, 3}},
		{TS: 2_000_001, OrigLen: 4, Data: []byte{0x45, 9, 9, 9}},
	}
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	hdr := buf.Bytes()[:24]
	if sl, lt := binary.LittleEndian.Uint32(hdr[16:]), binary.LittleEndian.Uint32(hdr[20:]); sl != 96 || lt != LinkTypeRaw {
		t.Errorf("header: snaplen=%d linktype=%d", sl, lt)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range pkts {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if got.TS != want.TS || got.OrigLen != want.OrigLen || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("packet %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestReadAllCopies(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0)
	w.WritePacket(Packet{TS: 1, Data: []byte{0x45, 1}})
	w.WritePacket(Packet{TS: 2, Data: []byte{0x45, 2}})
	w.Flush()
	pkts, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 2 || pkts[0].Data[1] != 1 || pkts[1].Data[1] != 2 {
		t.Errorf("packets = %+v", pkts)
	}
}

func TestBigEndianAndNano(t *testing.T) {
	// Hand-build a big-endian nanosecond capture with one packet.
	var buf bytes.Buffer
	be := binary.BigEndian
	hdr := make([]byte, 24)
	be.PutUint32(hdr[0:], magicNano)
	be.PutUint16(hdr[4:], 2)
	be.PutUint16(hdr[6:], 4)
	be.PutUint32(hdr[16:], 65535)
	be.PutUint32(hdr[20:], LinkTypeRaw)
	buf.Write(hdr)
	rec := make([]byte, 16)
	be.PutUint32(rec[0:], 10)          // 10 s
	be.PutUint32(rec[4:], 500_000_000) // 0.5 s in ns
	be.PutUint32(rec[8:], 2)
	be.PutUint32(rec[12:], 2)
	buf.Write(rec)
	buf.Write([]byte{0x45, 0xff})

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if p.TS != 10_500_000 {
		t.Errorf("nano timestamp = %d, want 10500000 us", p.TS)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a pcap file at all !"))); err != ErrBadMagic {
		t.Errorf("bad magic: %v", err)
	}
	if _, err := NewReader(bytes.NewReader(nil)); err != ErrBadMagic {
		t.Errorf("empty: %v", err)
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0)
	w.WritePacket(Packet{TS: 1, Data: []byte{0x45, 1, 2, 3}})
	w.Flush()
	data := buf.Bytes()
	for cut := len(data) - 1; cut > 24; cut-- {
		r, err := NewReader(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Next(); err == nil {
			t.Fatalf("cut %d: truncated record accepted", cut)
		}
	}
}

// TestImplausibleLength: a capture length past 64 MiB is refused as such,
// before a buffer is sized from it, not read as a truncated record.
func TestImplausibleLength(t *testing.T) {
	for _, incl := range []uint32{1 << 30, 1<<26 + 1} {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, 0)
		w.Flush()
		rec := make([]byte, 16)
		binary.LittleEndian.PutUint32(rec[8:], incl)
		buf.Write(rec)
		r, _ := NewReader(bytes.NewReader(buf.Bytes()))
		if _, err := r.Next(); err == nil || errors.Is(err, ErrTruncated) {
			t.Errorf("incl_len %d: %v, want it refused as implausible", incl, err)
		}
	}
}

func buildTrace(t *testing.T) *trace.DeviceTrace {
	t.Helper()
	dt := &trace.DeviceTrace{Device: "d", Start: 0, Apps: trace.NewAppTable()}
	app := dt.Apps.Intern("com.a")
	buf := make([]byte, 4096)
	add := func(ts trace.Timestamp, net trace.Network, payloadLen int) {
		stored, _, err := netparse.BuildTCPv4Snapped(buf, [4]byte{10, 0, 0, 1}, [4]byte{23, 0, 0, 1},
			40000, 443, 0, netparse.TCPAck, payloadLen, 96)
		if err != nil {
			t.Fatal(err)
		}
		dt.Records = append(dt.Records, trace.Record{
			Type: trace.RecPacket, TS: ts, App: app, Net: net,
			State: trace.StateService, Payload: append([]byte(nil), buf[:stored]...),
		})
	}
	add(1_000_000, trace.NetCellular, 2000)
	add(2_000_000, trace.NetWiFi, 100)
	add(3_000_000, trace.NetCellular, 50)
	return dt
}

func TestFromTraceFilter(t *testing.T) {
	dt := buildTrace(t)
	var buf bytes.Buffer
	n, err := FromTrace(&buf, dt, trace.NetCellular, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("exported %d packets, want 2 (cellular only)", n)
	}
	pkts, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 2 {
		t.Fatalf("read back %d packets", len(pkts))
	}
	// OrigLen must reflect the true wire size of the snapped packet.
	if pkts[0].OrigLen != 2040 {
		t.Errorf("orig len = %d, want 2040", pkts[0].OrigLen)
	}
	if len(pkts[0].Data) != 96 {
		t.Errorf("captured = %d, want 96 (snapped)", len(pkts[0].Data))
	}

	// Unfiltered export includes the WiFi packet.
	buf.Reset()
	n, err = FromTrace(&buf, dt, trace.NetCellular, false)
	if err != nil || n != 3 {
		t.Errorf("unfiltered export = %d packets (%v)", n, err)
	}
}

func TestToTraceRoundTrip(t *testing.T) {
	dt := buildTrace(t)
	var buf bytes.Buffer
	if _, err := FromTrace(&buf, dt, trace.NetCellular, true); err != nil {
		t.Fatal(err)
	}
	got, err := ToTrace(bytes.NewReader(buf.Bytes()), "imported")
	if err != nil {
		t.Fatal(err)
	}
	if got.Device != "imported" {
		t.Errorf("device = %q", got.Device)
	}
	pkts := got.Packets()
	if len(pkts) != 2 {
		t.Fatalf("imported %d packets", len(pkts))
	}
	if got.Start != 1_000_000 {
		t.Errorf("start = %d", got.Start)
	}
	if r := got.Records[0]; r.Type != trace.RecAppName || r.TS != got.Start {
		t.Errorf("first record = %v at %d, want the app registration at the capture start", r.Type, r.TS)
	}
	// The imported trace must decode with the snap-aware parser.
	p := new(netparse.Parser)
	for _, idx := range pkts {
		if _, err := p.DecodePacket(got.Records[idx].Payload); err != nil {
			t.Errorf("imported packet undecodable: %v", err)
		}
	}
}
