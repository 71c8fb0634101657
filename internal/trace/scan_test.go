package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"netenergy/internal/lz"
)

// scanRecords returns every record ScanFile delivers from path for opt,
// plus the stats.
func scanRecords(t *testing.T, path string, opt ScanOptions) ([]Record, ScanStats) {
	t.Helper()
	var stats ScanStats
	var got []Record
	_, err := ScanFile(path, opt, &stats, func(b *RecordBatch) error {
		var rec Record
		for i := 0; i < b.Len(); i++ {
			b.Record(i, &rec)
			cp := rec
			cp.Payload = append([]byte(nil), rec.Payload...)
			got = append(got, cp)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ScanFile: %v", err)
	}
	return got, stats
}

// scanFile is one file a scan test runs over and the records it holds.
type scanFile struct {
	format Format
	path   string
	recs   []Record
}

// scanFiles lays recs out in the two containers: METR-3, and flat (only when
// withV1, the no-index fallback).
func scanFiles(t *testing.T, recs []Record, withV1 bool) []scanFile {
	t.Helper()
	dt := &DeviceTrace{Device: "scan-dev", Records: recs}
	if len(recs) > 0 {
		dt.Start = recs[0].TS
	}
	files := []scanFile{{FormatColumnar, writeTemp(t, writeColumnar(t, dt.Device, dt.Start, recs)), recs}}
	if withV1 {
		flat, err := dt.Encode()
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, scanFile{FormatFlat, writeTemp(t, flat), recs})
	}
	return files
}

// scanFixture builds n packet records with 1 KiB payloads at ts =
// 1000*i, big enough to span several METR-3 blocks.
func scanFixture(n int) []Record {
	payload := bytes.Repeat([]byte{0x42}, 1024)
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Type: RecPacket, TS: Timestamp(1000 * i), App: uint32(i % 7),
			Dir: DirUp, Net: NetCellular, State: StateService, Payload: payload}
	}
	return recs
}

// TestWriterRejectsOutOfOrder is the satellite-1 regression: the block
// headers' firstTS/lastTS are positional, and pushdown treats them as
// min/max — so the blocked writer must reject an out-of-order record
// rather than write a block whose advertised range lies.
func TestWriterRejectsOutOfOrder(t *testing.T) {
	t.Run(FormatColumnar.String(), func(t *testing.T) {
		w, err := NewColumnWriter(io.Discard, "d", 1000)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(&Record{Type: RecScreen, TS: 1000, ScreenOn: true}); err != nil {
			t.Fatal(err)
		}
		// Equal timestamps are fine (ties are common in real traces).
		if err := w.Write(&Record{Type: RecScreen, TS: 1000, ScreenOn: false}); err != nil {
			t.Fatalf("equal ts rejected: %v", err)
		}
		if err := w.Write(&Record{Type: RecScreen, TS: 2000, ScreenOn: true}); err != nil {
			t.Fatal(err)
		}
		err = w.Write(&Record{Type: RecScreen, TS: 1999, ScreenOn: false})
		if !errors.Is(err, ErrOutOfOrder) {
			t.Fatalf("out-of-order write: got %v, want ErrOutOfOrder", err)
		}
		// The writer is poisoned: later in-order writes keep failing.
		if err := w.Write(&Record{Type: RecScreen, TS: 3000, ScreenOn: true}); !errors.Is(err, ErrOutOfOrder) {
			t.Fatalf("write after rejection: got %v, want ErrOutOfOrder", err)
		}
	})
}

// TestWriterOutOfOrderAcrossBlocks forces a block cut between the
// in-order run and the regression record: the monotonicity reference
// must survive block boundaries (where the delta base resets).
func TestWriterOutOfOrderAcrossBlocks(t *testing.T) {
	t.Run(FormatColumnar.String(), func(t *testing.T) {
		w, err := NewColumnWriter(io.Discard, "d", 0)
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte{1}, 4096)
		for i := 0; i < 100; i++ { // ~400 KiB: at least one cut block
			rec := Record{Type: RecPacket, TS: Timestamp(1000 * i), App: 1,
				Dir: DirDown, Net: NetWiFi, State: StateForeground, Payload: payload}
			if err := w.Write(&rec); err != nil {
				t.Fatal(err)
			}
		}
		err = w.Write(&Record{Type: RecScreen, TS: 500, ScreenOn: true})
		if !errors.Is(err, ErrOutOfOrder) {
			t.Fatalf("out-of-order write after block cut: got %v, want ErrOutOfOrder", err)
		}
	})
}

// TestTimeRangeBoundaries is the satellite-2 boundary table for the two
// comparisons every pushdown decision reduces to: record membership in
// [from, to) and block overlap against a [first, last] record span.
func TestTimeRangeBoundaries(t *testing.T) {
	r := TimeRange{From: 100, To: 200}
	recordCases := []struct {
		ts   Timestamp
		want bool
	}{
		{99, false},
		{100, true}, // exactly at from: included
		{150, true},
		{199, true},
		{200, false}, // exactly at to: excluded
		{201, false},
	}
	for _, c := range recordCases {
		if got := r.Contains(c.ts); got != c.want {
			t.Errorf("Contains(%d) = %v, want %v", c.ts, got, c.want)
		}
	}
	blockCases := []struct {
		first, last Timestamp
		want        bool
	}{
		{0, 99, false},
		{0, 100, true}, // lastTS == from: the record at from is in range
		{0, 150, true},
		{150, 160, true},
		{199, 300, true}, // firstTS == to-1: the record at 199 is in range
		{200, 300, false},
		{201, 300, false},
		{100, 100, true},
		{199, 199, true},
		{200, 200, false},
	}
	for _, c := range blockCases {
		if got := r.overlapsBlock(c.first, c.last); got != c.want {
			t.Errorf("overlapsBlock(%d, %d) = %v, want %v", c.first, c.last, got, c.want)
		}
	}
}

// TestScanFileBoundaries runs the same boundary table end to end: a
// record exactly at to must never be delivered, a record exactly at
// from always, in both containers including the v1 fallback.
func TestScanFileBoundaries(t *testing.T) {
	recs := []Record{
		{Type: RecScreen, TS: 99, ScreenOn: true},
		{Type: RecScreen, TS: 100, ScreenOn: false},
		{Type: RecScreen, TS: 150, ScreenOn: true},
		{Type: RecScreen, TS: 199, ScreenOn: false},
		{Type: RecScreen, TS: 200, ScreenOn: true},
		{Type: RecScreen, TS: 201, ScreenOn: false},
	}
	for _, f := range scanFiles(t, recs, true) {
		t.Run(f.format.String(), func(t *testing.T) {
			n := len(f.recs)
			r := TimeRange{From: f.recs[n/6].TS, To: f.recs[4*n/6].TS} // [100, 200) of recs
			got, _ := scanRecords(t, f.path, ScanOptions{Range: r})
			var want []Record
			for i := range f.recs {
				if r.Contains(f.recs[i].TS) {
					want = append(want, f.recs[i])
				}
			}
			if len(got) != len(want) || len(want) == 0 {
				t.Fatalf("got %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if !sameRecord(&got[i], &want[i]) {
					t.Fatalf("record %d: %v, want %v", i, got[i], want[i])
				}
			}
			if got[0].TS != r.From || got[len(got)-1].TS >= r.To {
				t.Fatalf("delivered [%d, %d] for the window [%d, %d)", got[0].TS, got[len(got)-1].TS, r.From, r.To)
			}
		})
	}
}

// TestScanPushdownSkipsBlocks proves the seek index prunes: a narrow
// window over a multi-block file must skip blocks (counter asserted)
// and still deliver exactly the records a full decode + filter would.
func TestScanPushdownSkipsBlocks(t *testing.T) {
	for _, f := range scanFiles(t, scanFixture(2000), false) { // several blocks
		t.Run(f.format.String(), func(t *testing.T) {
			n := len(f.recs)
			r := TimeRange{From: f.recs[n/4].TS, To: f.recs[n/4+n/20].TS}
			got, stats := scanRecords(t, f.path, ScanOptions{Range: r})

			var want []Record
			for i := range f.recs {
				if r.Contains(f.recs[i].TS) {
					want = append(want, f.recs[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("got %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i].TS != want[i].TS || got[i].App != want[i].App {
					t.Fatalf("record %d: got ts=%d app=%d, want ts=%d app=%d",
						i, got[i].TS, got[i].App, want[i].TS, want[i].App)
				}
			}
			if stats.BlocksTotal < 3 {
				t.Fatalf("fixture too small: only %d blocks", stats.BlocksTotal)
			}
			if stats.BlocksSkipped == 0 {
				t.Fatalf("no blocks skipped: stats %+v", stats)
			}
			if stats.BlocksScanned+stats.BlocksSkipped != stats.BlocksTotal {
				t.Fatalf("block accounting broken: %+v", stats)
			}
			if stats.RecordsMatched != int64(len(want)) {
				t.Fatalf("RecordsMatched = %d, want %d", stats.RecordsMatched, len(want))
			}
		})
	}
}

// TestScanAppFilter checks the columnar app predicate: only records of
// the selected apps (plus device-global screen records) come back.
func TestScanAppFilter(t *testing.T) {
	recs := scanFixture(600)
	recs = append(recs, Record{Type: RecScreen, TS: recs[len(recs)-1].TS + 1, ScreenOn: true})
	for _, f := range scanFiles(t, recs, false) {
		t.Run(f.format.String(), func(t *testing.T) {
			opt := ScanOptions{
				Range: TimeRange{From: 0, To: 1 << 62},
				Apps:  []uint32{2, 5},
			}
			got, stats := scanRecords(t, f.path, opt)
			want := 0
			for i := range f.recs {
				if f.recs[i].Type == RecScreen || f.recs[i].App == 2 || f.recs[i].App == 5 {
					want++
				}
			}
			if len(got) != want || want == 0 {
				t.Fatalf("got %d records, want %d", len(got), want)
			}
			for i := range got {
				if got[i].Type != RecScreen && got[i].App != 2 && got[i].App != 5 {
					t.Fatalf("record %d: app %d leaked through the filter", i, got[i].App)
				}
			}
			if stats.RecordsMatched != int64(want) {
				t.Fatalf("RecordsMatched = %d, want %d", stats.RecordsMatched, want)
			}
		})
	}
}

// TestScanUnsealedFile scans an in-progress METR-3 segment: Sync makes
// every written record visible to a streaming reader while the file
// stays unsealed (no footer), which is exactly how the ingest segment
// store serves its live tail.
func TestScanUnsealedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.metr3")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := NewColumnWriter(f, "scan-dev", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		rec := Record{Type: RecScreen, TS: Timestamp(100 * i), ScreenOn: i%2 == 0}
		if err := w.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// No Flush: the file has no index, so the scan must stream.
	var stats ScanStats
	n := 0
	device, err := ScanFile(path, ScanOptions{Range: TimeRange{From: 1000, To: 2000}}, &stats, func(b *RecordBatch) error {
		n += b.Len()
		return nil
	})
	if err != nil {
		t.Fatalf("ScanFile: %v", err)
	}
	if device != "scan-dev" {
		t.Fatalf("device = %q", device)
	}
	if n != 10 { // ts 1000..1900
		t.Fatalf("got %d records, want 10", n)
	}
	if stats.BlocksTotal != 0 {
		t.Fatalf("streaming fallback counted index blocks: %+v", stats)
	}

	// The writer stays usable after Sync: more records, then a real seal.
	for i := 50; i < 60; i++ {
		rec := Record{Type: RecScreen, TS: Timestamp(100 * i), ScreenOn: true}
		if err := w.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	n = 0
	var sealed ScanStats
	if _, err := ScanFile(path, ScanOptions{Range: TimeRange{From: 0, To: 1 << 62}}, &sealed, func(b *RecordBatch) error {
		n += b.Len()
		return nil
	}); err != nil {
		t.Fatalf("ScanFile sealed: %v", err)
	}
	if n != 60 {
		t.Fatalf("sealed scan got %d records, want 60", n)
	}
	if sealed.BlocksTotal == 0 {
		t.Fatal("sealed file should scan via the index")
	}
}

// TestCorruptInvertedBlockRange: a header or index entry whose firstTS
// exceeds its lastTS cannot come from the monotonic writers and must
// read as corrupt, in both the streaming and the seeking paths.
func TestCorruptInvertedBlockRange(t *testing.T) {
	data := craftColumnFile(screenBlock, 1, 200, 100)
	for _, p := range readPaths {
		t.Run(FormatColumnar.String()+"/"+p.name, func(t *testing.T) {
			if _, err := p.read(t, data); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode of inverted range: got %v, want ErrCorrupt", err)
			}
		})
	}
}

// patternRecords builds n packet records evenly spread over span, each
// with a 400-byte payload repeating (seed, i, i>>8): every record's bytes
// are its own, and compress to a match that ends where the record ends, so
// the LZ stream has a sequence boundary at every row. The first tenth of
// the records belong to app 9, the rest to apps 1-3.
func patternRecords(n int, seed byte, span Timestamp) []Record {
	recs := make([]Record, n)
	for i := range recs {
		payload := make([]byte, 400)
		for j := range payload {
			payload[j] = [3]byte{seed, byte(i), byte(i >> 8)}[j%3]
		}
		app := uint32(1 + i%3)
		if i < n/10 {
			app = 9
		}
		recs[i] = Record{Type: RecPacket, TS: span * Timestamp(i) / Timestamp(n), App: app,
			Dir: DirUp, Net: NetCellular, State: StateService, Payload: payload}
	}
	return recs
}

// TestScanDecompressesThroughLastRow: a scan whose range (or app set) ends
// early in a block writes only part of the block's payload, and still
// delivers every row it keeps whole. File a's block shares file b's shape
// byte for byte, with other payloads; scanning all of a just before each
// scan of b leaves a's bytes in the scan's buffer, so a row of b the scan
// did not decompress reads as a's.
func TestScanDecompressesThroughLastRow(t *testing.T) {
	const span = 6 * 3600e6 // six hours, one block
	ra, rb := patternRecords(240, 0xA0, span), patternRecords(240, 0xB0, span)
	a := writeTemp(t, writeColumnar(t, "d", 0, ra))
	data := writeColumnar(t, "d", 0, rb)
	b := writeTemp(t, data)
	_, _, blocks, _, err := ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil || len(blocks) != 1 {
		t.Fatalf("fixture: %d blocks, %v; want one", len(blocks), err)
	}
	ulen := int64(blocks[0].UncompLen)
	all := TimeRange{From: 0, To: span}
	var batchB RecordBatch
	for i := range rb {
		batchB.Append(&rb[i])
	}

	scanB := func(opt ScanOptions) ScanStats {
		t.Helper()
		scanRecords(t, a, ScanOptions{Range: all})
		got, stats := scanRecords(t, b, opt)
		filter := newAppFilter(opt.Apps)
		var want []Record
		for i := range rb {
			if opt.Range.Contains(rb[i].TS) && filter.keep(&batchB, i) {
				want = append(want, rb[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%+v: %d records, want %d", opt, len(got), len(want))
		}
		for i := range got {
			if !sameRecord(&got[i], &want[i]) {
				t.Fatalf("%+v: record %d (ts %d) differs from the one written", opt, i, want[i].TS)
			}
		}
		return stats
	}

	last := rb[len(rb)-1].TS
	for _, to := range []Timestamp{1, 3600e6, span / 2, last, span} {
		stats := scanB(ScanOptions{Range: TimeRange{From: 0, To: to}})
		if to <= last && stats.BytesDecompressed >= ulen {
			t.Errorf("[0, %d): decompressed %d bytes, the whole block is %d", to, stats.BytesDecompressed, ulen)
		}
		if to == span && stats.BytesDecompressed != ulen {
			t.Errorf("whole range: decompressed %d bytes of %d", stats.BytesDecompressed, ulen)
		}
	}
	hour := scanB(ScanOptions{Range: TimeRange{From: 3600e6, To: 2 * 3600e6}})
	if hour.BytesDecompressed <= 0 || hour.BytesDecompressed >= ulen/2 {
		t.Errorf("second hour of six: decompressed %d bytes of %d", hour.BytesDecompressed, ulen)
	}
	// App 9's rows all lie in the first tenth of the block: the app set
	// ends the scan's need there, not the range.
	app := scanB(ScanOptions{Range: all, Apps: []uint32{9}})
	if app.BytesDecompressed >= ulen/2 {
		t.Errorf("app 9 over the whole range: decompressed %d bytes of %d", app.BytesDecompressed, ulen)
	}
}

// TestScanRefusesMalformedTail: a block whose CRC is intact but whose
// compressed stream is malformed past the rows a scan keeps is refused by
// that scan, as a full read refuses it — the rest of the stream is
// checked, not skipped.
func TestScanRefusesMalformedTail(t *testing.T) {
	recs := patternRecords(3, 0xC0, 300)
	rand := recs[2].Payload
	for i := range rand {
		rand[i] = byte(i*i*31 + i>>3) // no 4-byte repeats: literals to the end
	}
	var batch RecordBatch
	for i := range recs {
		batch.Append(&recs[i])
	}
	raw, _ := appendColumns(nil, &batch, recs[0].TS, nil)
	comp := new(lz.Appender).Compress(nil, raw)
	for name, payload := range map[string][]byte{
		"truncated terminal literals": comp[:len(comp)-1],
		"byte past the terminal":      append(append([]byte(nil), comp...), 0),
	} {
		data := craftColumnStream(payload, len(raw), len(recs), recs[0].TS, recs[2].TS)
		for _, to := range []Timestamp{recs[1].TS, recs[2].TS + 1} {
			_, err := ScanFile(writeTemp(t, data), ScanOptions{Range: TimeRange{From: 0, To: to}}, nil,
				func(*RecordBatch) error { return nil })
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s, range [0, %d): ScanFile: %v, want ErrCorrupt", name, to, err)
			}
		}
		if _, err := ReadFile(writeTemp(t, data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: ReadFile: %v, want ErrCorrupt", name, err)
		}
	}
}

// TestScanKeepsOnlyWholeBlocks: a scan through a BlockCache keeps exactly
// the blocks its staged decode wrote whole, decompresses no more than a
// scan without one, and a later scan serves the kept blocks from memory
// with the same records and nothing decompressed.
func TestScanKeepsOnlyWholeBlocks(t *testing.T) {
	data := synthMETR3(t)
	path := writeTemp(t, data)
	ix, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil || len(ix.Blocks()) < 3 {
		t.Fatalf("fixture: %v, %d blocks", err, len(ix.Blocks()))
	}
	blocks := ix.Blocks()
	// From inside the first block to inside the third: the first is cut at
	// its start, so its tail is delivered and it is written whole; the
	// second is whole; the third is cut at its end, so it is not.
	mid := blocks[0].First + (blocks[0].Last-blocks[0].First)/2
	to := blocks[2].First + (blocks[2].Last-blocks[2].First)/2
	for _, opt := range []ScanOptions{
		{Range: TimeRange{From: mid, To: to}},
		{Range: TimeRange{From: mid, To: to}, Apps: []uint32{0, 1}},
		{Range: TimeRange{From: blocks[0].First, To: blocks[len(blocks)-1].Last + 1}},
	} {
		want, plain := scanRecords(t, path, opt)
		kept := mapCache{}
		for pass := 0; pass < 2; pass++ {
			var got []Record
			var stats ScanStats
			if err := ix.Scan(bytes.NewReader(data), kept, opt, &stats, func(b *RecordBatch) error {
				got = appendRecords(got, b)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%+v pass %d: %d records, want %d", opt, pass, len(got), len(want))
			}
			for i := range got {
				if !sameRecord(&got[i], &want[i]) {
					t.Fatalf("%+v pass %d: record %d differs", opt, pass, i)
				}
			}
			if pass == 0 && (stats.BytesDecompressed != plain.BytesDecompressed || stats.BlocksCached != 0) {
				t.Fatalf("%+v: first pass %+v, without a cache %+v", opt, stats, plain)
			}
			if pass == 1 && (stats.BlocksCached != len(kept) ||
				stats.BytesDecompressed != plain.BytesDecompressed-keptBytes(kept, blocks)) {
				t.Fatalf("%+v: second pass %+v over %d kept blocks", opt, stats, len(kept))
			}
		}
		for i := range kept {
			// Kept means every row up to the block's last was delivered.
			var last Timestamp
			for _, r := range want {
				if r.TS <= blocks[i].Last {
					last = r.TS
				}
			}
			if opt.Apps == nil && last != blocks[i].Last {
				t.Errorf("%+v: block %d kept though its last row (ts %d) was not delivered", opt, i, blocks[i].Last)
			}
		}
		if opt.Apps == nil && opt.Range.From == mid {
			if _, ok := kept[2]; ok || len(kept) != 2 {
				t.Errorf("range cutting blocks 0 and 2: kept %d blocks, want blocks 0 and 1", len(kept))
			}
		}
		if opt.Range.From == blocks[0].First && len(kept) != len(blocks) {
			t.Errorf("whole range: kept %d of %d blocks", len(kept), len(blocks))
		}
	}
}

// keptBytes is the uncompressed payload the kept blocks hold.
func keptBytes(kept mapCache, blocks []BlockInfo) int64 {
	n := int64(0)
	for i := range kept {
		n += int64(blocks[i].UncompLen)
	}
	return n
}

// refusingCache is a BlockCache that keeps nothing it is offered.
type refusingCache struct{ offered int }

func (c *refusingCache) Block(int) *RecordBatch { return nil }

func (c *refusingCache) Keep(int, *RecordBatch, int64) bool {
	c.offered++
	return false
}

// TestScanRefusedBlockStaysWithScratch: a block the cache refuses stays
// the scan's, whose next decode reuses its buffers, so a scan through a
// cache that refuses everything allocates no more than one without a
// cache, and counts each block it offered as refused.
func TestScanRefusedBlockStaysWithScratch(t *testing.T) {
	data := synthMETR3(t)
	ix, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil || len(ix.Blocks()) < 3 {
		t.Fatalf("fixture: %v, %d blocks", err, len(ix.Blocks()))
	}
	opt := ScanOptions{Range: TimeRange{From: math.MinInt64, To: math.MaxInt64}}
	ra := bytes.NewReader(data)
	scan := func(kept BlockCache) ScanStats {
		var stats ScanStats
		if err := ix.Scan(ra, kept, opt, &stats, func(*RecordBatch) error { return nil }); err != nil {
			t.Fatal(err)
		}
		return stats
	}
	refusing := &refusingCache{}
	if stats := scan(refusing); refusing.offered != len(ix.Blocks()) || stats.BlocksRefused != refusing.offered {
		t.Fatalf("whole-range scan offered %d of %d blocks, counted %d refused", refusing.offered, len(ix.Blocks()), stats.BlocksRefused)
	}
	plain := testing.AllocsPerRun(20, func() { scan(nil) })
	refused := testing.AllocsPerRun(20, func() { scan(refusing) })
	// A hand-off allocates at least a payload buffer for the next block.
	if refused >= plain+float64(len(ix.Blocks())) {
		t.Fatalf("scan through a refusing cache: %.0f allocations, %.0f without a cache", refused, plain)
	}
}
