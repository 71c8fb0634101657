package ingest

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"netenergy/internal/trace"
)

// malformedBody is a frame body no writer produces. accepted is how many of
// its records precede the fault: the handler applies records as it parses
// them.
type malformedBody struct {
	name     string
	body     []byte
	accepted int64
}

// malformedBodies returns one body per way of breaking the `FIN | batch`
// grammar, built around one well-formed encoded record.
func malformedBodies(record []byte) []malformedBody {
	batch := func(count uint64, records ...[]byte) []byte {
		b := binary.AppendUvarint([]byte{batchByte}, count)
		for _, r := range records {
			b = append(b, r...)
		}
		return b
	}
	prefixed := append(binary.AppendUvarint(nil, uint64(len(record))), record...)
	overlong := append(binary.AppendUvarint(nil, uint64(len(record))+5), record...)
	return []malformedBody{
		{"count 0", batch(0), 0},
		{"count over the cap", batch(maxBatchRecords+1, prefixed), 0},
		{"count beyond the records", batch(2, prefixed), 1},
		{"record length past the end", batch(2, prefixed, overlong), 1},
		{"trailing bytes", batch(1, prefixed, []byte{0xaa}), 1},
		{"bare record", record, 0},
		{"empty body", nil, 0},
	}
}

// FuzzFrameDecoder feeds arbitrary bytes to the server-side frame reader,
// batch iterator and record decoder: malformed lengths, truncated frames,
// bad CRCs and batch bodies that lie about their contents must yield clean
// errors — never a panic, a read past the body or an allocation beyond the
// frame cap.
func FuzzFrameDecoder(f *testing.F) {
	// Seed: a valid hello plus a few well-formed frames and a FIN.
	var buf bytes.Buffer
	writeHello(&buf, "dev", 1000, 0) //nolint:errcheck
	hello := bytes.Clone(buf.Bytes())
	enc := trace.NewRecordEncoder(1000)
	var bodies [][]byte
	for _, r := range []trace.Record{
		{Type: trace.RecAppName, TS: 1000, App: 0, AppName: "com.a"},
		{Type: trace.RecPacket, TS: 2000, App: 0, Dir: trace.DirUp,
			Net: trace.NetCellular, State: trace.StateService, Payload: []byte{0x45, 0, 0, 20}},
		{Type: trace.RecScreen, TS: 3000, ScreenOn: true},
	} {
		body, _ := enc.Encode(&r)
		bodies = append(bodies, bytes.Clone(body))
	}
	buf.Write(batchFrame(0, bodies[0]))
	buf.Write(batchFrame(1, bodies[1:]...))
	buf.Write(appendFrame(nil, int64(len(bodies)), []byte{finByte}))
	f.Add(buf.Bytes())
	for _, m := range malformedBodies(bodies[0]) {
		f.Add(appendFrame(bytes.Clone(hello), 0, m.body))
	}
	f.Add([]byte("FLTS2\n"))
	f.Add([]byte("FLTS1\n")) // old protocol version: must be a clean hello error
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		_, start, lastSeq, err := readHello(br)
		if err != nil {
			return
		}
		if lastSeq < 0 {
			t.Fatalf("negative lastSeq from hello: %d", lastSeq)
		}
		dec := trace.NewRecordDecoder(start)
		fr := newFrameReader(br)
		for i := 0; i < 10000; i++ {
			_, body, err := fr.next()
			switch {
			case err == nil:
			case errors.Is(err, io.EOF),
				errors.Is(err, ErrFrameCRC),
				errors.Is(err, ErrFrameTruncated),
				errors.Is(err, ErrFrameTooBig):
				// All of these sever the connection in the server.
				return
			default:
				t.Fatalf("unexpected error class: %v", err)
			}
			if len(body) > MaxFrame {
				t.Fatalf("oversized frame body accepted: %d", len(body))
			}
			if isFin(body) {
				return
			}
			batch := openBatch(body)
			for n := 0; batch.next(); n++ {
				if n >= maxBatchRecords {
					t.Fatalf("batch yielded more than %d records", maxBatchRecords)
				}
				rec, err := dec.Decode(batch.record)
				if err != nil {
					// A decode error severs the connection in the server.
					return
				}
				if rec.Type == trace.RecPacket && len(rec.Payload) > MaxFrame {
					t.Fatalf("oversized payload decoded: %d", len(rec.Payload))
				}
			}
			if batch.err != nil {
				return // a framing error severs too
			}
		}
	})
}
