package ingest

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"netenergy/internal/trace"
)

func sampleRecords() []trace.Record {
	return []trace.Record{
		{Type: trace.RecAppName, TS: 1000, App: 0, AppName: "com.example.app"},
		{Type: trace.RecProcState, TS: 1500, App: 0, State: trace.StateService},
		{Type: trace.RecPacket, TS: 2000, App: 0, Dir: trace.DirUp,
			Net: trace.NetCellular, State: trace.StateService,
			Payload: []byte{0x45, 0, 0, 20, 1, 2, 3, 4}},
		{Type: trace.RecScreen, TS: 3000, ScreenOn: true},
	}
}

// batchFrame returns one batch frame carrying the encoded records from seq
// on — how every test that needs frame bytes gets them, through the one
// writer of the grammar.
func batchFrame(seq int64, records ...[]byte) []byte {
	var buf bytes.Buffer
	w := batchWriter{w: &buf}
	for i, r := range records {
		w.add(seq+int64(i), r)
	}
	w.flush() //nolint:errcheck // a bytes.Buffer does not fail
	return buf.Bytes()
}

// TestProtoRoundtrip drives the batch writer against the server-side frame
// reader, batch iterator and record decoder directly: one record a frame,
// then the rest in one.
func TestProtoRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHello(&buf, "u07", 500, 42); err != nil {
		t.Fatal(err)
	}
	enc := trace.NewRecordEncoder(500)
	recs := sampleRecords()
	var bodies [][]byte
	for i := range recs {
		body, err := enc.Encode(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, bytes.Clone(body))
	}
	buf.Write(batchFrame(42, bodies[0]))
	buf.Write(batchFrame(43, bodies[1:]...))
	buf.Write(appendFrame(nil, int64(42+len(recs)), []byte{finByte}))

	br := bufio.NewReader(&buf)
	device, start, lastSeq, err := readHello(br)
	if err != nil {
		t.Fatal(err)
	}
	if device != "u07" || start != 500 || lastSeq != 42 {
		t.Fatalf("hello = %q/%d/%d", device, start, lastSeq)
	}
	dec := trace.NewRecordDecoder(start)
	fr := newFrameReader(br)
	i := 0
	for _, wantSeq := range []int64{42, 43} {
		seq, body, err := fr.next()
		if err != nil {
			t.Fatalf("frame at record %d: %v", i, err)
		}
		if seq != wantSeq {
			t.Fatalf("frame at record %d: seq = %d, want %d", i, seq, wantSeq)
		}
		if isFin(body) {
			t.Fatalf("frame at record %d misread as FIN", i)
		}
		batch := openBatch(body)
		for ; batch.next(); i++ {
			got, err := dec.Decode(batch.record)
			if err != nil {
				t.Fatalf("decode %d: %v", i, err)
			}
			want := recs[i]
			if got.Type != want.Type || got.TS != want.TS || got.App != want.App ||
				got.State != want.State || got.ScreenOn != want.ScreenOn ||
				got.AppName != want.AppName || !bytes.Equal(got.Payload, want.Payload) {
				t.Errorf("record %d: got %v want %v", i, got, want)
			}
		}
		if batch.err != nil {
			t.Fatalf("batch at record %d: %v", i, batch.err)
		}
	}
	if i != len(recs) {
		t.Fatalf("decoded %d records, sent %d", i, len(recs))
	}
	seq, body, err := fr.next()
	if err != nil || !isFin(body) || seq != int64(42+len(recs)) {
		t.Fatalf("FIN frame: seq=%d body=%v err=%v", seq, body, err)
	}
	if _, _, err := fr.next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestHelloCRCDetected flips one bit anywhere in the hello — including
// inside the device identifier — and requires the reader to refuse it: a
// corrupted handshake must never register a phantom device.
func TestHelloCRCDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHello(&buf, "u07", 500, 42); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if dev, start, seq, err := readHello(bufio.NewReader(bytes.NewReader(good))); err != nil || dev != "u07" || start != 500 || seq != 42 {
		t.Fatalf("clean hello: %q/%d/%d %v", dev, start, seq, err)
	}
	for i := range good {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), good...)
			bad[i] ^= 1 << bit
			if _, _, _, err := readHello(bufio.NewReader(bytes.NewReader(bad))); err == nil {
				t.Fatalf("bit flip at byte %d bit %d went undetected", i, bit)
			}
		}
	}
	// Truncated hello (CRC trailer missing).
	if _, _, _, err := readHello(bufio.NewReader(bytes.NewReader(good[:len(good)-2]))); !errors.Is(err, ErrBadHello) {
		t.Fatalf("truncated hello: %v", err)
	}
	// A device identifier past the cap, in an otherwise intact hello.
	buf.Reset()
	if err := writeHello(&buf, strings.Repeat("d", maxDeviceID+1), 500, 42); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := readHello(bufio.NewReader(&buf)); !errors.Is(err, ErrBadHello) {
		t.Fatalf("%d-byte device id: %v", maxDeviceID+1, err)
	}
}

// TestAckRoundtrip covers the three hello-ack statuses and a malformed ack.
func TestAckRoundtrip(t *testing.T) {
	roundtrip := func(status byte, arg uint64) (int64, error) {
		var buf bytes.Buffer
		if err := writeAck(&buf, status, arg); err != nil {
			t.Fatal(err)
		}
		return readAck(bufio.NewReader(&buf))
	}

	if seq, err := roundtrip(ackOK, 1234); err != nil || seq != 1234 {
		t.Fatalf("ok ack: %d %v", seq, err)
	}
	_, err := roundtrip(ackThrottled, 250)
	var thr *ErrThrottled
	if !errors.As(err, &thr) || thr.RetryAfter != 250*time.Millisecond {
		t.Fatalf("throttled ack: %v", err)
	}
	if _, err := roundtrip(ackDraining, 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining ack: %v", err)
	}
	if _, err := roundtrip(0x7f, 0); !errors.Is(err, ErrBadAck) {
		t.Fatalf("unknown status: %v", err)
	}
	if _, err := readAck(bufio.NewReader(bytes.NewReader(nil))); !errors.Is(err, ErrBadAck) {
		t.Fatalf("empty ack: %v", err)
	}
}

// TestFrameCRCDetected corrupts one frame: the reader must flag it with
// ErrFrameCRC so the server severs the connection. Corrupting the seq
// varint (which v1's CRC did not cover) must also be detected.
func TestFrameCRCDetected(t *testing.T) {
	enc := trace.NewRecordEncoder(0)
	recs := sampleRecords()
	var frames [][]byte
	for i := range recs {
		body, err := enc.Encode(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, batchFrame(int64(i), body))
	}

	for _, tc := range []struct {
		name string
		mut  func([][]byte)
	}{
		{"body byte", func(f [][]byte) { f[1][3] ^= 0xff }},
		{"seq varint", func(f [][]byte) { f[1][0] ^= 0x01 }},
		{"crc byte", func(f [][]byte) { f[1][len(f[1])-1] ^= 0xff }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mutated := make([][]byte, len(frames))
			for i := range frames {
				mutated[i] = bytes.Clone(frames[i])
			}
			tc.mut(mutated)
			var buf bytes.Buffer
			for _, f := range mutated {
				buf.Write(f)
			}
			fr := newFrameReader(bufio.NewReader(&buf))
			if _, _, err := fr.next(); err != nil {
				t.Fatalf("frame 0: %v", err)
			}
			if _, _, err := fr.next(); !errors.Is(err, ErrFrameCRC) {
				t.Fatalf("frame 1: want ErrFrameCRC, got %v", err)
			}
		})
	}
}

// TestFrameSizeLimit: a huge claimed length must fail fast, not allocate.
func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteByte(0x00)                                   // seq 0
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // length uvarint ~2^34
	fr := newFrameReader(bufio.NewReader(&buf))
	if _, _, err := fr.next(); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("want ErrFrameTooBig, got %v", err)
	}
}
