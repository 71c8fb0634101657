package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

// METZ1 and METR-2 are read-only: files older builds wrote must keep
// reading, and no code writes them. Their decoders (the flate wrapper in
// NewReader, decodeRowBlock) are therefore driven from two checked-in files
// that the last commit with all four writers produced:
//
//	gentrace -users 1 -days 1 -seed 7 -format metr2    -> testdata/legacy/u00.metr2
//	gentrace -users 1 -days 1 -seed 7 -format deflate  -> testdata/legacy/u00.metz1
//
// Each is SHA-256-pinned and held, record for record, to what
// synthgen.GenerateDevice makes of the same configuration today — so a
// fixture is checked against the generator, never against itself, and the
// in-package tests may take its streaming decode as their reference.
type legacyFixture struct {
	file   string
	format trace.Format
	sha256 string
}

var (
	legacyMETR2 = legacyFixture{"u00.metr2", trace.FormatBlocked,
		"aaefd11628f936ced6eee4c7d0756e92b622eba524277f9dfb99ea7bb6590126"}
	legacyMETZ1 = legacyFixture{"u00.metz1", trace.FormatDeflate,
		"f317178052bc13dfc4d141825572c306320e82ff28f63ecd19dc4404cba76a00"}
)

// load returns the fixture's path and bytes, failing if they are not the
// pinned ones.
func (fx legacyFixture) load(t *testing.T) (path string, data []byte) {
	t.Helper()
	path = filepath.Join("testdata", "legacy", fx.file)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != fx.sha256 {
		t.Fatalf("%s: sha256 %s, pinned %s", fx.file, got, fx.sha256)
	}
	return path, data
}

// legacyDevice is the device gentrace generated the fixtures from.
func legacyDevice() *trace.DeviceTrace {
	cfg := synthgen.Default()
	cfg.Users, cfg.Days, cfg.Seed = 1, 1, 7
	return synthgen.GenerateDevice(cfg, 0)
}

// requireRecords fails unless got is want, field for field and payload byte
// for payload byte.
func requireRecords(t *testing.T, what string, want, got []trace.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		a, b := &want[i], &got[i]
		if a.Type != b.Type || a.TS != b.TS || a.App != b.App || a.AppName != b.AppName ||
			a.Dir != b.Dir || a.Net != b.Net || a.State != b.State || a.UIKind != b.UIKind ||
			a.ScreenOn != b.ScreenOn || !bytes.Equal(a.Payload, b.Payload) {
			t.Fatalf("%s: record %d is %v, want %v", what, i, *b, *a)
		}
	}
}

// drain reads r to its end, copying payloads, and returns what it delivered
// before the error that stopped it (nil for a clean EOF).
func drain(r *trace.Reader) ([]trace.Record, error) {
	var got []trace.Record
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
}

// appendBatch appends b's records to dst, payloads copied.
func appendBatch(dst []trace.Record, b *trace.RecordBatch) []trace.Record {
	for i := 0; i < b.Len(); i++ {
		var rec trace.Record
		b.Record(i, &rec)
		rec.Payload = append([]byte(nil), rec.Payload...)
		dst = append(dst, rec)
	}
	return dst
}

// roundTrip holds fx to the generator through every way into a trace file:
// the streaming reader, the batch reader, the whole-file reader at 1, 4 and
// 8 workers, and a range scan.
func (fx legacyFixture) roundTrip(t *testing.T) {
	path, data := fx.load(t)
	want := legacyDevice()

	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.Format() != fx.format || r.Device() != want.Device || r.Start() != want.Start {
		t.Fatalf("header: %v %q %d, want %v %q %d", r.Format(), r.Device(), r.Start(), fx.format, want.Device, want.Start)
	}
	got, err := drain(r)
	if err != nil {
		t.Fatal(err)
	}
	requireRecords(t, "NewReader", want.Records, got)

	br, err := trace.NewBatchReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	for {
		b, err := br.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = appendBatch(got, b)
	}
	requireRecords(t, "NewBatchReader", want.Records, got)

	for _, workers := range []int{1, 4, 8} {
		dt, err := trace.ReadFileParallel(path, workers)
		if err != nil {
			t.Fatal(err)
		}
		requireRecords(t, "ReadFileParallel", want.Records, dt.Records)
		if dt.Device != want.Device || dt.Start != want.Start || dt.Apps.Len() != want.Apps.Len() {
			t.Fatalf("ReadFileParallel(%d): header or app table differs", workers)
		}
		dt.Recycle()
	}

	// A window whose bounds are record timestamps: the record at From is in,
	// the one at To is out.
	n := len(want.Records)
	window := trace.TimeRange{From: want.Records[n/3].TS, To: want.Records[2*n/3].TS}
	var inWindow []trace.Record
	for _, rec := range want.Records {
		if window.Contains(rec.TS) {
			inWindow = append(inWindow, rec)
		}
	}
	got = got[:0]
	var stats trace.ScanStats
	if _, err := trace.ScanFile(path, trace.ScanOptions{Range: window}, &stats, func(b *trace.RecordBatch) error {
		got = appendBatch(got, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	requireRecords(t, "ScanFile", inWindow, got)
	if fx.format == trace.FormatBlocked && stats.BlocksSkipped == 0 {
		t.Errorf("ScanFile over the middle third skipped no block: %+v", stats)
	}
}

func TestBlockedRoundTrip(t *testing.T)    { legacyMETR2.roundTrip(t) }
func TestCompressedRoundTrip(t *testing.T) { legacyMETZ1.roundTrip(t) }

// TestLegacyTruncation: a legacy file cut short reads as an error or as a
// clean prefix of its records, and never panics. The cut falls on every byte
// of the file header, of the first block's header and of the 32 bytes
// either side of that block's end, on every byte from the last block's end
// through the index and the footer (METZ1, which has neither: its first 512
// and last 16 bytes), and on every 4001st byte between — inside a payload
// every cut takes the same branch. The streaming reader sees every cut, the
// indexed reader those that leave or break a footer.
func TestLegacyTruncation(t *testing.T) {
	want := legacyDevice().Records
	for _, fx := range []legacyFixture{legacyMETR2, legacyMETZ1} {
		_, data := fx.load(t)
		head, edge, tail := 512, 0, 16
		if _, _, blocks, ok, _ := trace.ReadBlockIndex(bytes.NewReader(data), int64(len(data))); ok {
			last := blocks[len(blocks)-1]
			head, edge = int(blocks[0].Offset)+128, int(blocks[1].Offset)
			tail = len(data) - int(last.Offset) - last.CompLen
		}
		dir := t.TempDir()
		for cut := 0; cut < len(data); cut++ {
			if cut > head && (cut < edge-32 || cut > edge+32) && cut < len(data)-tail && cut%4001 != 0 {
				continue
			}
			var got []trace.Record
			r, err := trace.NewReader(bytes.NewReader(data[:cut]))
			if err == nil {
				got, err = drain(r)
			}
			// Only a footerless blocked file can end cleanly short of its
			// records: between two blocks.
			if err == nil && fx.format != trace.FormatBlocked {
				t.Fatalf("%s cut at %d: %d of %d records and no error", fx.file, cut, len(got), len(want))
			}
			requireRecords(t, fx.file+" prefix", want[:len(got)], got)

			if cut >= len(data)-tail {
				path := filepath.Join(dir, "cut.metr")
				if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				if dt, err := trace.ReadFileParallel(path, 4); err == nil {
					requireRecords(t, fx.file+" indexed prefix", want[:len(dt.Records)], dt.Records)
				}
			}
		}
	}
}

// TestLegacyBitFlip: one flipped bit in a legacy file's payload is
// ErrCorrupt — METR-2 by its block CRC before anything is inflated, METZ1 by
// the inflater or the record CRC behind it.
func TestLegacyBitFlip(t *testing.T) {
	for _, fx := range []legacyFixture{legacyMETR2, legacyMETZ1} {
		path, data := fx.load(t)
		mut := append([]byte(nil), data...)
		mut[len(mut)/2] ^= 0x10
		r, err := trace.NewReader(bytes.NewReader(mut))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := drain(r); !errors.Is(err, trace.ErrCorrupt) {
			t.Errorf("%s: streaming reader: %v, want ErrCorrupt", fx.file, err)
		}
		mutPath := filepath.Join(t.TempDir(), filepath.Base(path))
		if err := os.WriteFile(mutPath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := trace.ReadFileParallel(mutPath, 4); !errors.Is(err, trace.ErrCorrupt) {
			t.Errorf("%s: ReadFileParallel: %v, want ErrCorrupt", fx.file, err)
		}
	}
}
