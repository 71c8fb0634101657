package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"netenergy/internal/rng"
)

// genRecords builds a deterministic mixed-type record stream big enough to
// span several blocks (payloads are semi-repetitive so DEFLATE has real
// work, as in the synthetic fleets).
func genRecords(n int) []Record {
	src := rng.New(42)
	recs := make([]Record, 0, n+4)
	recs = append(recs,
		Record{Type: RecAppName, TS: 1000, App: 0, AppName: "com.example.social"},
		Record{Type: RecAppName, TS: 1000, App: 1, AppName: "com.android.chrome"},
	)
	ts := Timestamp(1000)
	for i := 0; i < n; i++ {
		ts += Timestamp(src.Intn(200000))
		switch src.Intn(5) {
		case 0:
			recs = append(recs, Record{Type: RecProcState, TS: ts,
				App: uint32(src.Intn(2)), State: ProcState(1 + src.Intn(5))})
		case 1:
			recs = append(recs, Record{Type: RecScreen, TS: ts, ScreenOn: src.Bool(0.5)})
		case 2:
			recs = append(recs, Record{Type: RecUIEvent, TS: ts,
				App: uint32(src.Intn(2)), UIKind: UIEventKind(src.Intn(4))})
		default:
			payload := make([]byte, 40+src.Intn(1400))
			for j := range payload {
				payload[j] = byte(j % 7)
			}
			payload[0] = byte(src.Intn(256))
			recs = append(recs, Record{Type: RecPacket, TS: ts, App: uint32(src.Intn(2)),
				Dir: Direction(src.Intn(2)), Net: Network(src.Intn(2)),
				State: ProcState(1 + src.Intn(5)), Payload: payload})
		}
	}
	return recs
}

func writeBlocked(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewBlockWriter(&buf, "device-b", 1000)
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
	if w.Count() != uint64(len(recs)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(recs))
	}
	return buf.Bytes()
}

func sameRecord(a, b *Record) bool {
	return a.Type == b.Type && a.TS == b.TS && a.App == b.App &&
		a.AppName == b.AppName && a.Dir == b.Dir && a.Net == b.Net &&
		a.State == b.State && a.UIKind == b.UIKind && a.ScreenOn == b.ScreenOn &&
		bytes.Equal(a.Payload, b.Payload)
}

func TestBlockedRoundTrip(t *testing.T) {
	recs := genRecords(5000) // several 256 KiB blocks
	data := writeBlocked(t, recs)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.Device() != "device-b" || r.Start() != 1000 {
		t.Fatalf("header: device=%q start=%d", r.Device(), r.Start())
	}
	if r.Format() != FormatBlocked {
		t.Fatalf("format = %v, want %v", r.Format(), FormatBlocked)
	}
	for i := range recs {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !sameRecord(got, &recs[i]) {
			t.Fatalf("record %d mismatch:\n got %v\nwant %v", i, got, recs[i])
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestBlockedIndex(t *testing.T) {
	recs := genRecords(5000)
	data := writeBlocked(t, recs)
	device, start, blocks, ok, err := ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil || !ok {
		t.Fatalf("ReadBlockIndex: ok=%v err=%v", ok, err)
	}
	if device != "device-b" || start != 1000 {
		t.Fatalf("header: device=%q start=%d", device, start)
	}
	if len(blocks) < 3 {
		t.Fatalf("expected several blocks, got %d", len(blocks))
	}
	total := 0
	for i, b := range blocks {
		total += b.Count
		if b.First > b.Last {
			t.Errorf("block %d: First %d > Last %d", i, b.First, b.Last)
		}
		if b.UncompLen <= 0 || b.CompLen <= 0 {
			t.Errorf("block %d: degenerate lengths %+v", i, b)
		}
	}
	if total != len(recs) {
		t.Fatalf("index counts %d records, wrote %d", total, len(recs))
	}
}

func TestBlockedParallelMatchesSequential(t *testing.T) {
	recs := genRecords(5000)
	data := writeBlocked(t, recs)
	path := filepath.Join(t.TempDir(), "u.metr")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	seq := streamFile(t, path)
	for _, workers := range []int{1, 2, 4, 8} {
		par, err := ReadFileParallel(path, workers)
		if err != nil {
			t.Fatal(err)
		}
		if par.Device != seq.Device || par.Start != seq.Start {
			t.Fatalf("workers=%d: header mismatch", workers)
		}
		if len(par.Records) != len(seq.Records) {
			t.Fatalf("workers=%d: %d records vs %d", workers, len(par.Records), len(seq.Records))
		}
		for i := range seq.Records {
			if !sameRecord(&par.Records[i], &seq.Records[i]) {
				t.Fatalf("workers=%d: record %d differs", workers, i)
			}
		}
		if got, want := par.Apps.Names(), seq.Apps.Names(); len(got) != len(want) {
			t.Fatalf("workers=%d: app tables differ", workers)
		}
	}
}

func TestBlockedParallelFallsBackOnV1(t *testing.T) {
	recs := sampleRecords()
	for _, format := range []Format{FormatFlat, FormatDeflate} {
		var buf bytes.Buffer
		dt := &DeviceTrace{Device: "d", Start: 1000, Records: recs}
		if err := dt.SerializeFormat(&buf, format); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "u.metr")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFileParallel(path, 4)
		if err != nil {
			t.Fatalf("%v: %v", format, err)
		}
		if len(got.Records) != len(recs) {
			t.Fatalf("%v: %d records, want %d", format, len(got.Records), len(recs))
		}
	}
}

func TestBlockedTruncatedFooterStreamsAnyway(t *testing.T) {
	recs := genRecords(3000)
	data := writeBlocked(t, recs)
	// Cut off the footer and half the index: the seekable path must decline
	// (ok=false) and the streaming fallback must still deliver every block.
	cut := data[:len(data)-footerLen-10]
	if _, _, _, ok, _ := ReadBlockIndex(bytes.NewReader(cut), int64(len(cut))); ok {
		t.Fatal("truncated footer accepted")
	}
	path := filepath.Join(t.TempDir(), "u.metr")
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	dt, err := ReadFileParallel(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(dt.Records) != len(recs) {
		t.Fatalf("read %d records, want %d", len(dt.Records), len(recs))
	}
}

// blockCodecs is the table the frame-layer tests run over: what block.go
// checks must hold whichever payload codec sits inside the frames.
var blockCodecs = []struct {
	format     Format
	craftBlock func(raw []byte, count int, first, last Timestamp) []byte
	craftIndex func(declaredCount uint64, entries []rawIndexEntry) []byte
	// screenAt is the uncompressed payload of a block holding one
	// RecScreen(on) record at the block's firstTS.
	screenAt []byte
}{
	{FormatBlocked, craftBlockFile, craftIndexFile,
		// type, bodyLen, body = tsDelta:varint(0) + on:byte
		[]byte{byte(RecScreen), 0x02, 0x00, 0x01}},
	{FormatColumnar, craftColumnFile, craftColumnIndexFile,
		// types, flags, aux columns, then zero ts/app/len widths
		[]byte{byte(RecScreen), 0x01, 0x00, 0x00, 0x00, 0x00}},
}

// readPaths are the ways into a blocked file: the streaming iterator, the
// two indexed readers, and the indexed whole-file reader on one worker. Each returns the records it delivered before
// any error, payloads copied.
var readPaths = []struct {
	name string
	read func(t *testing.T, data []byte) ([]Record, error)
}{
	{"stream", func(t *testing.T, data []byte) ([]Record, error) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		var got []Record
		for {
			rec, err := r.Next()
			if err == io.EOF {
				return got, nil
			}
			if err != nil {
				return got, err
			}
			cp := *rec
			cp.Payload = append([]byte(nil), rec.Payload...)
			got = append(got, cp)
		}
	}},
	{"parallel", func(t *testing.T, data []byte) ([]Record, error) {
		dt, err := ReadFileParallel(writeTemp(t, data), 4)
		if err != nil {
			return nil, err
		}
		return dt.Records, nil
	}},
	{"scan", func(t *testing.T, data []byte) ([]Record, error) {
		var got []Record
		_, err := ScanFile(writeTemp(t, data), ScanOptions{Range: TimeRange{From: math.MinInt64, To: math.MaxInt64}}, nil,
			func(b *RecordBatch) error {
				for i := 0; i < b.Len(); i++ {
					var rec Record
					b.Record(i, &rec)
					rec.Payload = append([]byte(nil), rec.Payload...)
					got = append(got, rec)
				}
				return nil
			})
		return got, err
	}},
	// The same indexed read on the caller's goroutine alone, which is what
	// ReadFile and a fleet with more files than workers run.
	{"readfile", func(t *testing.T, data []byte) ([]Record, error) {
		dt, err := ReadFile(writeTemp(t, data))
		if err != nil {
			return nil, err
		}
		return dt.Records, nil
	}},
}

// streamFile reads path front to back through the streaming decoder — the
// reference the indexed reader is held to, whatever ReadFile itself does.
func streamFile(t *testing.T, path string) *DeviceTrace {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dt, err := ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return dt
}

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "u.metr")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBlockedCorruptionDetected(t *testing.T) {
	recs := genRecords(800)
	dt := &DeviceTrace{Device: "device-b", Start: 1000, Records: recs}
	for _, c := range blockCodecs {
		var buf bytes.Buffer
		if err := dt.SerializeFormat(&buf, c.format); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		headerLen := len(magicBlocked) + 1 + len("device-b") + 2
		for _, p := range readPaths {
			t.Run(c.format.String()+"/"+p.name, func(t *testing.T) {
				for pos := headerLen; pos < len(data); pos += 997 {
					mut := append([]byte(nil), data...)
					mut[pos] ^= 0xff
					// Any clean error is acceptable; silence is not: a
					// corrupted block must never decode to wrong records —
					// the CRC covers the whole payload.
					got, _ := p.read(t, mut)
					for i := range got {
						if i >= len(recs) || !sameRecord(&got[i], &recs[i]) {
							t.Fatalf("flip at %d: record %d silently wrong", pos, i)
						}
					}
				}
			})
		}
	}
}

func TestBlockedEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBlockWriter(&buf, "empty", 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	_, _, blocks, ok, err := ReadBlockIndex(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil || !ok || len(blocks) != 0 {
		t.Fatalf("empty index: ok=%v blocks=%d err=%v", ok, len(blocks), err)
	}
}

// TestBlockDecodeAllocFree guards the pooled-scratch claim: once the reader
// is warm, serving records out of a decoded block allocates nothing, and
// block transitions amortize to well under 1/100 alloc per record.
func TestBlockDecodeAllocFree(t *testing.T) {
	recs := genRecords(20000)
	data := writeBlocked(t, recs)
	_, _, blocks, ok, err := ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil || !ok || len(blocks) < 2 {
		t.Fatalf("index: ok=%v blocks=%d err=%v", ok, len(blocks), err)
	}

	// Serving records out of an already-decoded block must allocate zero:
	// decode the first block (and consume the two RecAppName records, whose
	// name strings legitimately allocate), then count mallocs over the rest
	// of that block.
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 2; i < blocks[0].Count; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	if got := m1.Mallocs - m0.Mallocs; got != 0 {
		t.Errorf("%d allocs serving %d records from a decoded block, want 0", got, blocks[0].Count-1)
	}

	// Whole-file amortized budget: block transitions pay for buffer growth
	// and the stdlib inflater's per-block Huffman tables, nothing scales
	// with the record count.
	n := len(recs)
	allocs := testing.AllocsPerRun(2, func() {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perRecord := allocs / float64(n); perRecord > 0.25 {
		t.Errorf("%.4f allocs/record amortized (total %v over %d records)", perRecord, allocs, n)
	}
}

// rawIndexEntry is one hand-crafted footer-index entry, fields as encoded.
type rawIndexEntry struct {
	od, ul, cl, rc uint64
	ft, lt         int64
}

// craftIndexFile assembles a METR-2 file consisting of only the header and
// a CRC-intact footer index carrying the given raw entries (declaredCount
// is what the index claims, independent of len(entries)). No blocks are
// written: the point is to probe ReadBlockIndex's validation of
// attacker-controlled index fields before any allocation they size.
func craftIndexFile(declaredCount uint64, entries []rawIndexEntry) []byte {
	out := append([]byte(nil), magicBlocked...)
	out = appendFileHeader(out, "d", 0)
	idx := []byte{indexTag}
	idx = binary.AppendUvarint(idx, declaredCount)
	for _, e := range entries {
		idx = binary.AppendUvarint(idx, e.od)
		idx = binary.AppendUvarint(idx, e.ul)
		idx = binary.AppendUvarint(idx, e.cl)
		idx = binary.AppendVarint(idx, e.ft)
		idx = binary.AppendVarint(idx, e.lt)
		idx = binary.AppendUvarint(idx, e.rc)
	}
	idx = binary.LittleEndian.AppendUint64(idx, uint64(len(idx)))
	idx = binary.LittleEndian.AppendUint32(idx, crc32.Checksum(idx[:len(idx)-8], castagnoli))
	idx = append(idx, footerMagic...)
	return append(out, idx...)
}

// TestBlockIndexRejectsCraftedEntries pins the fix for two OOM bugs: a
// tiny file whose CRC-valid index declared a huge block offset or record
// count made ReadBlockIndex/ReadFileParallel size allocations from those
// fields (make([]byte, offset) resp. make([]Record, count)) and abort the
// process. Every crafted variant must come back as ErrCorrupt instead.
func TestBlockIndexRejectsCraftedEntries(t *testing.T) {
	cases := []struct {
		name    string
		count   uint64
		entries []rawIndexEntry
	}{
		{"offset far beyond file size", 1,
			[]rawIndexEntry{{od: 1 << 40, ul: 16, cl: 16, rc: 1}}},
		{"offset delta overflows negative", 2,
			[]rawIndexEntry{{od: 5, ul: 16, cl: 16, rc: 1}, {od: 1 << 63, ul: 16, cl: 16, rc: 1}}},
		{"zero offset delta (not strictly increasing)", 2,
			[]rawIndexEntry{{od: 5, ul: 16, cl: 16, rc: 1}, {od: 0, ul: 16, cl: 16, rc: 1}}},
		{"record count bomb", 1,
			[]rawIndexEntry{{od: 5, ul: 16, cl: 16, rc: 1 << 50}}},
		{"declared count exceeds index capacity", 1 << 40, nil},
	}
	for _, c := range blockCodecs {
		for _, tc := range cases {
			t.Run(c.format.String()+"/"+tc.name, func(t *testing.T) {
				data := c.craftIndex(tc.count, tc.entries)
				_, _, _, ok, err := ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
				if ok || !errors.Is(err, ErrCorrupt) {
					t.Fatalf("ok=%v err=%v, want ok=false ErrCorrupt", ok, err)
				}
				// The indexed readers must refuse the file, not fall back
				// to streaming it.
				for _, p := range readPaths[1:] {
					if _, err := p.read(t, data); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("%s: err=%v, want ErrCorrupt", p.name, err)
					}
				}
			})
		}
	}
}

// craftBlockFile assembles a METR-2 file with a single hand-built block
// (raw is the uncompressed frame stream, count/first/last the declared
// header fields) plus a matching CRC-intact footer index.
func craftBlockFile(raw []byte, count int, first, last Timestamp) []byte {
	var comp bytes.Buffer
	fw, _ := flate.NewWriter(&comp, flate.BestSpeed)
	fw.Write(raw)
	fw.Close()
	payload := comp.Bytes()

	out := append([]byte(nil), magicBlocked...)
	out = appendFileHeader(out, "d", 0)
	blkOff := int64(len(out))
	out = append(out, blockTag)
	out = binary.AppendUvarint(out, uint64(len(raw)))
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	out = binary.AppendVarint(out, int64(first))
	out = binary.AppendVarint(out, int64(last))
	out = binary.AppendUvarint(out, uint64(count))
	out = append(out, payload...)

	idx := []byte{indexTag}
	idx = binary.AppendUvarint(idx, 1)
	idx = binary.AppendUvarint(idx, uint64(blkOff))
	idx = binary.AppendUvarint(idx, uint64(len(raw)))
	idx = binary.AppendUvarint(idx, uint64(len(payload)))
	idx = binary.AppendVarint(idx, int64(first))
	idx = binary.AppendVarint(idx, int64(last))
	idx = binary.AppendUvarint(idx, 1)
	idx = binary.LittleEndian.AppendUint64(idx, uint64(len(idx)))
	idx = binary.LittleEndian.AppendUint32(idx, crc32.Checksum(idx[:len(idx)-8], castagnoli))
	idx = append(idx, footerMagic...)
	return append(out, idx...)
}

// TestBlockTrailingBytesRejected pins the fix for silent trailing bytes: a
// block whose uncompressed payload carries bytes past the last declared
// record must fail as ErrCorrupt on both the streaming and the indexed
// parallel path (and the same block without the trailing bytes must read
// cleanly, proving the check is not over-strict).
func TestBlockTrailingBytesRejected(t *testing.T) {
	for _, c := range blockCodecs {
		clean := c.craftBlock(c.screenAt, 1, 100, 100)
		dirty := c.craftBlock(append(append([]byte(nil), c.screenAt...), 0xAA, 0xBB), 1, 100, 100)
		for _, p := range readPaths {
			t.Run(c.format.String()+"/"+p.name, func(t *testing.T) {
				got, err := p.read(t, clean)
				if err != nil || len(got) != 1 || got[0].Type != RecScreen || got[0].TS != 100 || !got[0].ScreenOn {
					t.Fatalf("clean crafted block: %v, err=%v", got, err)
				}
				if _, err := p.read(t, dirty); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("err=%v, want ErrCorrupt", err)
				}
			})
		}
	}
}

func TestBlockedDeviceNameBoundary(t *testing.T) {
	// The shared cap must round-trip at the boundary through every
	// container, and be rejected at write time one byte past it.
	atCap := strings.Repeat("d", maxDeviceName)
	past := atCap + "x"
	for _, format := range []Format{FormatFlat, FormatDeflate, FormatBlocked} {
		var buf bytes.Buffer
		w, err := NewFormatWriter(&buf, format, atCap, 7)
		if err != nil {
			t.Fatalf("%v: writer rejected %d-byte name: %v", format, maxDeviceName, err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%v: reader rejected %d-byte name: %v", format, maxDeviceName, err)
		}
		if r.Device() != atCap {
			t.Fatalf("%v: device name did not round-trip", format)
		}
		if _, err := NewFormatWriter(io.Discard, format, past, 7); err == nil {
			t.Fatalf("%v: writer accepted %d-byte name the reader would refuse", format, len(past))
		}
	}
}

// frameWriterAPI is what both blocked writers offer beyond RecordWriter.
type frameWriterAPI interface {
	RecordWriter
	WriteBatch(*RecordBatch) (int, error)
	Sync() error
}

// writeVia serialises recs into format through put, which is handed the
// writer and returns the error that stopped it, if any; Flush follows a
// clean run. It returns the bytes and how many records the writer counted.
func writeVia(t *testing.T, format Format, put func(w frameWriterAPI) error) ([]byte, uint64, error) {
	t.Helper()
	var buf bytes.Buffer
	rw, err := NewFormatWriter(&buf, format, "device-b", 1000)
	if err != nil {
		t.Fatal(err)
	}
	w := rw.(frameWriterAPI)
	if err := put(w); err != nil {
		return buf.Bytes(), w.Count(), err
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), w.Count(), nil
}

// TestWriteBatchMatchesWriteLoop: batch append is Write without the rows —
// whatever the chunking, the file is byte-identical to the one a Write loop
// produces, and an out-of-order record stops both at the same record with
// the same error.
func TestWriteBatchMatchesWriteLoop(t *testing.T) {
	recs := genRecords(5000) // several blocks, so chunks straddle cuts
	bad := append(append([]Record(nil), recs[:3001]...), recs[3000:]...)
	bad[3001].TS = bad[3000].TS - 1
	for _, c := range blockCodecs {
		for _, in := range []struct {
			name string
			recs []Record
			want error
		}{{"in-order", recs, nil}, {"out-of-order", bad, ErrOutOfOrder}} {
			wantData, wantCount, err := writeVia(t, c.format, func(w frameWriterAPI) error {
				for i := range in.recs {
					if err := w.Write(&in.recs[i]); err != nil {
						return err
					}
				}
				return nil
			})
			if !errors.Is(err, in.want) {
				t.Fatalf("%v/%s: Write loop: %v", c.format, in.name, err)
			}
			for _, chunk := range []int{1, 7, 128, len(in.recs)} {
				t.Run(fmt.Sprintf("%v/%s/chunk%d", c.format, in.name, chunk), func(t *testing.T) {
					data, count, err := writeVia(t, c.format, func(w frameWriterAPI) error {
						var b RecordBatch
						for lo := 0; lo < len(in.recs); lo += chunk {
							b.Reset()
							for i := lo; i < lo+chunk && i < len(in.recs); i++ {
								b.Append(&in.recs[i])
							}
							for rest := b; rest.Len() > 0; {
								n, err := w.WriteBatch(&rest)
								if err != nil {
									return err
								}
								rest = rest.Slice(n, rest.Len())
							}
						}
						return nil
					})
					if !errors.Is(err, in.want) {
						t.Fatalf("err = %v, want %v", err, in.want)
					}
					if count != wantCount {
						t.Fatalf("stopped at record %d, the Write loop at %d", count, wantCount)
					}
					if !bytes.Equal(data, wantData) {
						t.Fatalf("%d bytes differ from the Write loop's %d", len(data), len(wantData))
					}
				})
			}
		}
	}
}

// TestScanTornTail: a footerless file whose last block is torn — what a
// reader sees between cutBlock's two writes, and what a kill leaves on
// disk — scans cleanly up to the last complete block, at every byte the
// tear can fall on, while NewReader still reports the truncation. Damage
// ahead of the tail is still an error.
func TestScanTornTail(t *testing.T) {
	recs := genRecords(1500)
	head, tail := recs[:1480], recs[1480:]
	for _, c := range blockCodecs {
		t.Run(c.format.String(), func(t *testing.T) {
			var buf bytes.Buffer
			rw, err := NewFormatWriter(&buf, c.format, "device-b", 1000)
			if err != nil {
				t.Fatal(err)
			}
			w := rw.(frameWriterAPI)
			for i := range head {
				if err := w.Write(&head[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			lastBlock := buf.Len()
			for i := range tail {
				if err := w.Write(&tail[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Sync(); err != nil { // no Flush: the file stays unsealed
				t.Fatal(err)
			}
			data := buf.Bytes()
			stream, scan := readPaths[0].read, readPaths[2].read

			for cut := lastBlock; cut <= len(data); cut++ {
				want := head
				if cut == len(data) {
					want = recs
				}
				got, err := scan(t, data[:cut])
				if err != nil {
					t.Fatalf("cut at %d of %d: ScanFile: %v", cut, len(data), err)
				}
				if len(got) != len(want) {
					t.Fatalf("cut at %d of %d: ScanFile delivered %d records, want %d", cut, len(data), len(got), len(want))
				}
				for i := range got {
					if !sameRecord(&got[i], &want[i]) {
						t.Fatalf("cut at %d: record %d differs", cut, i)
					}
				}
				// Anything short of the whole block, beyond its bare
				// absence, is a truncated file to a plain reader.
				_, err = stream(t, data[:cut])
				if torn := cut > lastBlock && cut < len(data); torn != errors.Is(err, ErrTruncated) || (!torn && err != nil) {
					t.Fatalf("cut at %d of %d: NewReader: %v", cut, len(data), err)
				}
			}

			// Before the tail the torn-tail rule forgives nothing: a bad
			// tag, a CRC mismatch, a malformed header.
			firstBlock := len(magicBlocked) + 1 + len("device-b") + 2
			for name, mutate := range map[string]func(d []byte){
				"bad tag":      func(d []byte) { d[firstBlock] = 'X' },
				"crc mismatch": func(d []byte) { d[lastBlock-1] ^= 0xff },
				"malformed header": func(d []byte) {
					d[firstBlock+1], d[firstBlock+2], d[firstBlock+3], d[firstBlock+4] = 0xff, 0xff, 0xff, 0x7f
				},
			} {
				mut := append([]byte(nil), data[:len(data)-1]...)
				mutate(mut)
				if _, err := scan(t, mut); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s ahead of a torn tail: ScanFile: %v, want ErrCorrupt", name, err)
				}
			}
		})
	}
}
