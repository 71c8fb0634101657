package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
// span several blocks (payloads are semi-repetitive so the compressor has
// real work, as in the synthetic fleets).
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

func sameRecord(a, b *Record) bool {
	return a.Type == b.Type && a.TS == b.TS && a.App == b.App &&
		a.AppName == b.AppName && a.Dir == b.Dir && a.Net == b.Net &&
		a.State == b.State && a.UIKind == b.UIKind && a.ScreenOn == b.ScreenOn &&
		bytes.Equal(a.Payload, b.Payload)
}

// blockedFile is a sealed multi-block file and the records it holds.
type blockedFile struct {
	name string // its format's, which the subtests are named by
	data []byte
	dt   *DeviceTrace
}

// blockedFiles are what the frame-layer tests read: n generated records as
// the METR-3 writer lays them out.
func blockedFiles(t *testing.T, n int) []blockedFile {
	t.Helper()
	dt := &DeviceTrace{Device: "device-b", Start: 1000, Records: genRecords(n)}
	return []blockedFile{{FormatColumnar.String(), writeColumnar(t, dt.Device, dt.Start, dt.Records), dt}}
}

func TestBlockedIndex(t *testing.T) {
	for _, f := range blockedFiles(t, 5000) {
		device, start, blocks, ok, err := ReadBlockIndex(bytes.NewReader(f.data), int64(len(f.data)))
		if err != nil || !ok {
			t.Fatalf("%s: ReadBlockIndex: ok=%v err=%v", f.name, ok, err)
		}
		if device != f.dt.Device || start != f.dt.Start {
			t.Fatalf("%s: header: device=%q start=%d", f.name, device, start)
		}
		if len(blocks) < 3 {
			t.Fatalf("%s: expected several blocks, got %d", f.name, len(blocks))
		}
		total := 0
		for i, b := range blocks {
			total += b.Count
			if b.First > b.Last {
				t.Errorf("%s: block %d: First %d > Last %d", f.name, i, b.First, b.Last)
			}
			if b.UncompLen <= 0 || b.CompLen <= 0 {
				t.Errorf("%s: block %d: degenerate lengths %+v", f.name, i, b)
			}
		}
		if total != len(f.dt.Records) {
			t.Fatalf("%s: index counts %d records, file holds %d", f.name, total, len(f.dt.Records))
		}
	}
}

func TestBlockedParallelMatchesSequential(t *testing.T) {
	for _, f := range blockedFiles(t, 5000) {
		path := writeTemp(t, f.data)
		seq := streamFile(t, path)
		for _, workers := range []int{1, 2, 4, 8} {
			par, err := ReadFileParallel(path, workers)
			if err != nil {
				t.Fatal(err)
			}
			if par.Device != seq.Device || par.Start != seq.Start {
				t.Fatalf("%s workers=%d: header mismatch", f.name, workers)
			}
			if len(par.Records) != len(seq.Records) {
				t.Fatalf("%s workers=%d: %d records vs %d", f.name, workers, len(par.Records), len(seq.Records))
			}
			for i := range seq.Records {
				if !sameRecord(&par.Records[i], &seq.Records[i]) {
					t.Fatalf("%s workers=%d: record %d differs", f.name, workers, i)
				}
			}
			if got, want := par.Apps.Names(), seq.Apps.Names(); len(got) != len(want) {
				t.Fatalf("%s workers=%d: app tables differ", f.name, workers)
			}
		}
	}
}

func TestBlockedParallelFallsBackOnV1(t *testing.T) {
	flat, err := (&DeviceTrace{Device: "d", Start: 1000, Records: sampleRecords()}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadFileParallel(writeTemp(t, flat), 4)
	if err != nil {
		t.Fatal(err)
	}
	requireRecordsEqual(t, sampleRecords(), got.Records)
}

func TestBlockedTruncatedFooterStreamsAnyway(t *testing.T) {
	for _, f := range blockedFiles(t, 3000) {
		// Cut off the footer and half the index: the seekable path must
		// decline (ok=false) and the streaming fallback must still deliver
		// every block.
		cut := f.data[:len(f.data)-footerLen-10]
		if _, _, _, ok, _ := ReadBlockIndex(bytes.NewReader(cut), int64(len(cut))); ok {
			t.Fatalf("%s: truncated footer accepted", f.name)
		}
		dt, err := ReadFileParallel(writeTemp(t, cut), 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(dt.Records) != len(f.dt.Records) {
			t.Fatalf("%s: read %d records, want %d", f.name, len(dt.Records), len(f.dt.Records))
		}
	}
}

// screenBlock is the uncompressed columnar image of a block holding one
// RecScreen(on) record at the block's firstTS — types, flags and aux
// columns, then zero ts/app/len widths — for the crafted-file tests, which
// probe what block.go checks with files assembled byte by byte
// (craftColumnFile, craftColumnIndexFile).
var screenBlock = []byte{byte(RecScreen), 0x01, 0x00, 0x00, 0x00, 0x00}

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
	for _, f := range blockedFiles(t, 800) {
		data, recs := f.data, f.dt.Records
		_, _, blocks, _, err := ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range readPaths {
			t.Run(f.name+"/"+p.name, func(t *testing.T) {
				for pos := int(blocks[0].Offset); pos < len(data); pos += 997 {
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
	w, err := NewColumnWriter(&buf, "empty", 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// craftColumnIndexFile with no entries is, byte for byte, what the writer
	// flushes with no records for device "d" at start 0.
	for _, data := range [][]byte{buf.Bytes(), craftColumnIndexFile(0, nil)} {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("%v: want EOF, got %v", r.Format(), err)
		}
		_, _, blocks, ok, err := ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
		if err != nil || !ok || len(blocks) != 0 {
			t.Fatalf("%v: empty index: ok=%v blocks=%d err=%v", r.Format(), ok, len(blocks), err)
		}
	}
}

// TestBlockDecodeAllocFree guards the pooled-scratch claim: once the reader
// is warm, serving records out of a decoded block allocates nothing, and
// block transitions amortize to well under 1/100 alloc per record.
func TestBlockDecodeAllocFree(t *testing.T) {
	for _, f := range blockedFiles(t, 20000) {
		data, recs := f.data, f.dt.Records
		_, _, blocks, ok, err := ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
		if err != nil || !ok || len(blocks) < 2 {
			t.Fatalf("%s: index: ok=%v blocks=%d err=%v", f.name, ok, len(blocks), err)
		}

		// Serving records out of an already-decoded block must allocate zero:
		// decode the first block (and consume the leading RecAppName records,
		// whose name strings legitimately allocate), then count mallocs over
		// the rest of that block.
		names := 0
		for recs[names].Type == RecAppName {
			names++
		}
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < names; i++ {
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
		}
		prev := runtime.GOMAXPROCS(1)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := names; i < blocks[0].Count; i++ {
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		runtime.GOMAXPROCS(prev)
		if got := m1.Mallocs - m0.Mallocs; got != 0 {
			t.Errorf("%s: %d allocs serving %d records from a decoded block, want 0", f.name, got, blocks[0].Count-names)
		}

		// Whole-file amortized budget: block transitions pay for buffer
		// growth and the app names, nothing scales with the record count.
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
			t.Errorf("%s: %.4f allocs/record amortized (total %v over %d records)", f.name, perRecord, allocs, n)
		}
	}
}

// rawIndexEntry is one hand-crafted footer-index entry, fields as encoded.
type rawIndexEntry struct {
	od, ul, cl, rc uint64
	ft, lt         int64
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
	for _, tc := range cases {
		t.Run(FormatColumnar.String()+"/"+tc.name, func(t *testing.T) {
			data := craftColumnIndexFile(tc.count, tc.entries)
			_, _, _, ok, err := ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
			if ok || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ok=%v err=%v, want ok=false ErrCorrupt", ok, err)
			}
			// The indexed readers must refuse the file, not fall back to
			// streaming it.
			for _, p := range readPaths[1:] {
				if _, err := p.read(t, data); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s: err=%v, want ErrCorrupt", p.name, err)
				}
			}
		})
	}
}

// TestBlockTrailingBytesRejected pins the fix for silent trailing bytes: a
// block whose uncompressed payload carries bytes past the last declared
// record must fail as ErrCorrupt on both the streaming and the indexed
// parallel path (and the same block without the trailing bytes must read
// cleanly, proving the check is not over-strict).
func TestBlockTrailingBytesRejected(t *testing.T) {
	clean := craftColumnFile(screenBlock, 1, 100, 100)
	dirty := craftColumnFile(append(append([]byte(nil), screenBlock...), 0xAA, 0xBB), 1, 100, 100)
	for _, p := range readPaths {
		t.Run(FormatColumnar.String()+"/"+p.name, func(t *testing.T) {
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

func TestBlockedDeviceNameBoundary(t *testing.T) {
	// The shared cap must round-trip at the boundary through both writers,
	// and be rejected at write time one byte past it.
	atCap := strings.Repeat("d", maxDeviceName)
	past := atCap + "x"
	for format, open := range map[Format]func(w io.Writer, device string) (flush func() error, err error){
		FormatFlat: func(w io.Writer, device string) (func() error, error) {
			tw, err := NewWriter(w, device, 7)
			if err != nil {
				return nil, err
			}
			return tw.Flush, nil
		},
		FormatColumnar: func(w io.Writer, device string) (func() error, error) {
			cw, err := NewColumnWriter(w, device, 7)
			if err != nil {
				return nil, err
			}
			return cw.Flush, nil
		},
	} {
		var buf bytes.Buffer
		flush, err := open(&buf, atCap)
		if err != nil {
			t.Fatalf("%v: writer rejected %d-byte name: %v", format, maxDeviceName, err)
		}
		if err := flush(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%v: reader rejected %d-byte name: %v", format, maxDeviceName, err)
		}
		if r.Device() != atCap || r.Format() != format {
			t.Fatalf("%v: device name did not round-trip", format)
		}
		if _, err := open(io.Discard, past); err == nil {
			t.Fatalf("%v: writer accepted %d-byte name the reader would refuse", format, len(past))
		}
		// The same file with the name one byte longer: only the cap
		// refuses it.
		data := buf.Bytes()
		at := bytes.Index(data, []byte(atCap))
		n := len(binary.AppendUvarint(nil, maxDeviceName))
		long := binary.AppendUvarint(bytes.Clone(data[:at-n]), uint64(len(past)))
		long = append(append(long, past...), data[at+len(atCap):]...)
		if _, err := NewReader(bytes.NewReader(long)); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("%v: reader given a %d-byte name: %v, want ErrBadMagic", format, len(past), err)
		}
	}
}

// writeVia serialises into METR-3 through put, which is handed the writer
// and returns the error that stopped it, if any; Flush follows a clean run.
// It returns the bytes and how many records the writer counted.
func writeVia(t *testing.T, put func(w *ColumnWriter) error) ([]byte, uint64, error) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewColumnWriter(&buf, "device-b", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := put(w); err != nil {
		return buf.Bytes(), w.count, err
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), w.count, nil
}

// TestWriteBatchMatchesWriteLoop: batch append is Write without the rows —
// whatever the chunking, the file is byte-identical to the one a Write loop
// produces, and an out-of-order record stops both at the same record with
// the same error.
func TestWriteBatchMatchesWriteLoop(t *testing.T) {
	recs := genRecords(5000) // several blocks, so chunks straddle cuts
	bad := append(append([]Record(nil), recs[:3001]...), recs[3000:]...)
	bad[3001].TS = bad[3000].TS - 1
	for _, in := range []struct {
		name string
		recs []Record
		want error
	}{{"in-order", recs, nil}, {"out-of-order", bad, ErrOutOfOrder}} {
		wantData, wantCount, err := writeVia(t, func(w *ColumnWriter) error {
			for i := range in.recs {
				if err := w.Write(&in.recs[i]); err != nil {
					return err
				}
			}
			return nil
		})
		if !errors.Is(err, in.want) {
			t.Fatalf("%s: Write loop: %v", in.name, err)
		}
		for _, chunk := range []int{1, 7, 128, len(in.recs)} {
			t.Run(fmt.Sprintf("%v/%s/chunk%d", FormatColumnar, in.name, chunk), func(t *testing.T) {
				data, count, err := writeVia(t, func(w *ColumnWriter) error {
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

// TestScanTornTail: a footerless file whose last block is torn — what a
// reader sees between cutBlock's two writes, and what a kill leaves on
// disk — scans cleanly up to the last complete block, at every byte the
// tear can fall on, while NewReader still reports the truncation. Damage
// ahead of the tail is still an error.
func TestScanTornTail(t *testing.T) {
	recs := genRecords(1500)
	data, lastBlock := unsealedColumnar(t, recs[:1480], recs[1480:])
	firstBlock := len(magicColumnar) + 1 + len("device-b") + 2
	head := recs[:1480]
	t.Run(FormatColumnar.String(), func(t *testing.T) {
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
			// Anything short of the whole block, beyond its bare absence, is
			// a truncated file to a plain reader.
			_, err = stream(t, data[:cut])
			if torn := cut > lastBlock && cut < len(data); torn != errors.Is(err, ErrTruncated) || (!torn && err != nil) {
				t.Fatalf("cut at %d of %d: NewReader: %v", cut, len(data), err)
			}
		}

		// Before the tail the torn-tail rule forgives nothing: a bad tag, a
		// CRC mismatch, a malformed header.
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
