package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"netenergy/internal/rng"
)

func sampleRecords() []Record {
	return []Record{
		{Type: RecAppName, TS: 1000, App: 0, AppName: "com.example.social"},
		{Type: RecAppName, TS: 1000, App: 1, AppName: "com.android.chrome"},
		{Type: RecScreen, TS: 1500, ScreenOn: true},
		{Type: RecUIEvent, TS: 2000, App: 1, UIKind: UILaunch},
		{Type: RecProcState, TS: 2001, App: 1, State: StateForeground},
		{Type: RecPacket, TS: 2500, App: 1, Dir: DirUp, Net: NetCellular,
			State: StateForeground, Payload: []byte{0x45, 0, 0, 20, 1, 2, 3}},
		{Type: RecPacket, TS: 2600, App: 0, Dir: DirDown, Net: NetWiFi,
			State: StateService, Payload: bytes.Repeat([]byte{7}, 1400)},
		{Type: RecProcState, TS: 9000, App: 1, State: StateBackground},
		{Type: RecScreen, TS: 9500, ScreenOn: false},
	}
}

func writeAll(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "device-00", 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	recs := sampleRecords()
	data := writeAll(t, recs)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.Device() != "device-00" || r.Start() != 1000 {
		t.Fatalf("header: device=%q start=%d", r.Device(), r.Start())
	}
	for i := range recs {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		want := recs[i]
		if got.Type != want.Type || got.TS != want.TS || got.App != want.App ||
			got.AppName != want.AppName || got.Dir != want.Dir || got.Net != want.Net ||
			got.State != want.State || got.UIKind != want.UIKind || got.ScreenOn != want.ScreenOn {
			t.Errorf("record %d mismatch:\n got %v\nwant %v", i, got, want)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("record %d payload mismatch: %d vs %d bytes", i, len(got.Payload), len(want.Payload))
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestTimestampDeltaEncoding(t *testing.T) {
	// Out-of-order timestamps (negative deltas) must round-trip too.
	recs := []Record{
		{Type: RecScreen, TS: 5000, ScreenOn: true},
		{Type: RecScreen, TS: 4000, ScreenOn: false},
		{Type: RecScreen, TS: 6000, ScreenOn: true},
	}
	data := writeAll(t, recs)
	r, _ := NewReader(bytes.NewReader(data))
	for i, want := range []Timestamp{5000, 4000, 6000} {
		got, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got.TS != want {
			t.Errorf("record %d TS = %d, want %d", i, got.TS, want)
		}
	}
}

// failAfterReader serves its remaining bytes, then fails with err instead
// of EOF — a stand-in for a disk read failing mid-stream.
type failAfterReader struct {
	data []byte
	err  error
}

func (r *failAfterReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	k := copy(p, r.data)
	r.data = r.data[k:]
	return k, nil
}

func TestIOErrorNotCollapsed(t *testing.T) {
	errDisk := errors.New("simulated disk failure")
	data := writeAll(t, sampleRecords())

	// Failure while reading the header: the underlying error must be
	// reachable with errors.Is, and must NOT read as corruption.
	for _, cut := range []int{2, 8, 14} {
		_, err := NewReader(&failAfterReader{data: data[:cut], err: errDisk})
		if !errors.Is(err, errDisk) {
			t.Fatalf("cut=%d: err = %v, want wrapped errDisk", cut, err)
		}
		if errors.Is(err, ErrBadMagic) || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) {
			t.Fatalf("cut=%d: I/O failure reported as corruption: %v", cut, err)
		}
	}

	// Failure mid-record: same contract on the Next path.
	r, err := NewReader(&failAfterReader{data: data[:len(data)-10], err: errDisk})
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err := r.Next()
		if err == nil {
			continue
		}
		if !errors.Is(err, errDisk) {
			t.Fatalf("Next: err = %v, want wrapped errDisk", err)
		}
		if errors.Is(err, ErrTruncated) || errors.Is(err, ErrCorrupt) {
			t.Fatalf("Next: I/O failure reported as corruption: %v", err)
		}
		break
	}

	// Truncation (EOF-shaped) still reads as the format errors, unchanged.
	if _, err := NewReader(bytes.NewReader(data[:3])); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("short magic: err = %v, want ErrBadMagic", err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOTMETR")); err != ErrBadMagic {
		t.Errorf("bad magic: %v", err)
	}
	if _, err := NewReader(strings.NewReader("")); err != ErrBadMagic {
		t.Errorf("empty file: %v", err)
	}
}

func TestCorruptRecordDetected(t *testing.T) {
	data := writeAll(t, sampleRecords())
	// Flip one byte somewhere after the header in each trial; reading must
	// produce ErrCorrupt/ErrTruncated (or a clean earlier stop), never a
	// silently wrong record and never a panic.
	headerLen := 6 + 1 + len("device-00") + 2
	for pos := headerLen; pos < len(data); pos += 7 {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0xff
		r, err := NewReader(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		for {
			_, err := r.Next()
			if err == io.EOF || err == ErrCorrupt || err == ErrTruncated {
				break
			}
			if err != nil {
				break
			}
		}
	}
}

func TestTruncatedFileDetected(t *testing.T) {
	data := writeAll(t, sampleRecords())
	sawError := false
	for cut := len(data) - 1; cut > len(data)-100 && cut > 0; cut-- {
		r, err := NewReader(bytes.NewReader(data[:cut]))
		if err != nil {
			continue
		}
		for {
			_, err := r.Next()
			if err == nil {
				continue
			}
			if err != io.EOF {
				sawError = true
			}
			break
		}
	}
	if !sawError {
		t.Error("no truncation ever detected")
	}
}

func TestWriteUnknownType(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "d", 0)
	if err := w.Write(&Record{Type: RecInvalid}); err == nil {
		t.Error("writing invalid record type should fail")
	}
}

func TestRoundTripProperty(t *testing.T) {
	src := rng.New(123)
	f := func(n uint8) bool {
		count := int(n)%50 + 1
		recs := make([]Record, count)
		ts := Timestamp(src.Intn(1_000_000))
		for i := range recs {
			ts += Timestamp(src.Intn(100000))
			switch src.Intn(4) {
			case 0:
				recs[i] = Record{Type: RecPacket, TS: ts, App: uint32(src.Intn(100)),
					Dir: Direction(src.Intn(2)), Net: Network(src.Intn(2)),
					State:   ProcState(1 + src.Intn(5)),
					Payload: make([]byte, src.Intn(1500))}
				for j := range recs[i].Payload {
					recs[i].Payload[j] = byte(src.Intn(256))
				}
			case 1:
				recs[i] = Record{Type: RecProcState, TS: ts, App: uint32(src.Intn(100)), State: ProcState(1 + src.Intn(5))}
			case 2:
				recs[i] = Record{Type: RecUIEvent, TS: ts, App: uint32(src.Intn(100)), UIKind: UIEventKind(src.Intn(4))}
			default:
				recs[i] = Record{Type: RecScreen, TS: ts, ScreenOn: src.Bool(0.5)}
			}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, "dev", 0)
		if err != nil {
			return false
		}
		for i := range recs {
			if err := w.Write(&recs[i]); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		for i := range recs {
			got, err := r.Next()
			if err != nil {
				return false
			}
			if got.Type != recs[i].Type || got.TS != recs[i].TS || got.App != recs[i].App ||
				got.State != recs[i].State || !bytes.Equal(got.Payload, recs[i].Payload) {
				return false
			}
		}
		_, err = r.Next()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWritePacketRecords(b *testing.B) {
	payload := bytes.Repeat([]byte{0xab}, 1000)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "dev", 0)
	rec := Record{Type: RecPacket, App: 3, Dir: DirUp, Net: NetCellular, State: StateService, Payload: payload}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.TS = Timestamp(i * 1000)
		if err := w.Write(&rec); err != nil {
			b.Fatal(err)
		}
		if buf.Len() > 1<<24 {
			buf.Reset()
		}
	}
}

func BenchmarkReadPacketRecords(b *testing.B) {
	payload := bytes.Repeat([]byte{0xab}, 1000)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "dev", 0)
	rec := Record{Type: RecPacket, App: 3, Dir: DirUp, Net: NetCellular, State: StateService, Payload: payload}
	const n = 10000
	for i := 0; i < n; i++ {
		rec.TS = Timestamp(i * 1000)
		w.Write(&rec)
	}
	w.Flush()
	data := buf.Bytes()
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		count := 0
		for {
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			count++
		}
		if count != n {
			b.Fatalf("read %d records", count)
		}
		b.SetBytes(int64(len(payload) * n))
	}
}

func TestCompressedSmaller(t *testing.T) {
	// A repetitive packet trace must compress well: the container written to
	// disk against the flat stream form of the same records.
	dt := &DeviceTrace{Device: "d"}
	payload := bytes.Repeat([]byte{0x45, 0, 0, 60}, 24)
	for i := 0; i < 2000; i++ {
		dt.Records = append(dt.Records, Record{Type: RecPacket, TS: Timestamp(i * 100000), App: 3,
			Net: NetCellular, State: StateService, Payload: payload})
	}
	plain, err := dt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var compressed bytes.Buffer
	if err := dt.SerializeColumnar(&compressed); err != nil {
		t.Fatal(err)
	}
	if compressed.Len()*3 > len(plain) {
		t.Errorf("compressed %d vs plain %d: expected >3x reduction", compressed.Len(), len(plain))
	}
}
