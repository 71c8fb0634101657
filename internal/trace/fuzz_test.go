package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"netenergy/internal/lz"
)

// SynthDevice returns the synthgen device of 1 user, 1 day, seed 7 — the
// trace a fuzzer's multi-block seed serialises. internal/synthgen imports
// this package, so the external test package sets it (synth_test.go).
var SynthDevice func() *DeviceTrace

// synthMETR3 is SynthDevice's METR-3 serialisation: a real multi-block file
// with an intact footer index for the fuzzers to mutate.
func synthMETR3(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := SynthDevice().SerializeColumnar(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// legacySeeds puts each refused magic in front of body, the bytes of a
// METR-3 file past its own magic: every byte after the first six is one the
// reader accepts.
func legacySeeds(body []byte) [][]byte {
	var out [][]byte
	for m := range legacyMagics {
		out = append(out, append([]byte(m), body...))
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	return out
}

// refusedLegacy reports whether data opens with a refused magic, failing t
// unless err is then the refusal: such a file is never decoded.
func refusedLegacy(t *testing.T, data []byte, err error) bool {
	t.Helper()
	if _, ok := legacyMagics[string(data[:min(len(data), len(magic))])]; !ok {
		return false
	}
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("%q file: err = %v, want ErrBadMagic", data[:len(magic)], err)
	}
	return true
}

// FuzzReader feeds arbitrary bytes to the METR reader: every input must
// yield records or a clean error, never a panic or unbounded allocation,
// and a refused magic must be refused.
func FuzzReader(f *testing.F) {
	// Seed: a valid small trace.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "dev", 1000)
	w.Write(&Record{Type: RecAppName, TS: 1000, App: 0, AppName: "com.a"})
	w.Write(&Record{Type: RecPacket, TS: 2000, App: 0, Dir: DirUp,
		Net: NetCellular, State: StateService, Payload: []byte{0x45, 0, 0, 20}})
	w.Write(&Record{Type: RecScreen, TS: 3000, ScreenOn: true})
	w.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte("METR1\n"))
	f.Add([]byte{})

	// Seeds: valid METR-3 traces, so the fuzzer explores the block decoder
	// too — a hand-assembled one-record file for cheap mutations and a
	// multi-block generated device.
	f.Add(craftColumnFile(screenBlock, 1, 100, 100))
	synth := synthMETR3(f)
	f.Add(synth)

	// Seeds: the refused magics, in front of a bare header and in front of
	// the generated file.
	for _, body := range [][]byte{appendFileHeader(nil, "dev", 1000), synth[len(magic):]} {
		for _, seed := range legacySeeds(body) {
			f.Add(seed)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if refusedLegacy(t, data, err) || err != nil {
			return
		}
		for i := 0; i < 10000; i++ {
			rec, err := r.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				return
			}
			if rec.Type == RecPacket && len(rec.Payload) > maxRecordLen {
				t.Fatalf("oversized payload accepted: %d", len(rec.Payload))
			}
		}
	})
}

// FuzzReadFileParallel feeds arbitrary bytes to the seeking (footer-index)
// path used by core.OpenParallel — ReadBlockIndex plus the parallel block
// decode. Every input must yield records or a clean error, never a panic
// or an allocation sized by attacker-controlled index fields (the index is
// CRC-protected against corruption, not against being crafted whole).
func FuzzReadFileParallel(f *testing.F) {
	// Seed: a multi-block generated device, so the fuzzer starts from an
	// intact footer index and mutates its fields; and a hand-assembled
	// one-block file, small enough to mutate cheaply.
	synth := synthMETR3(f)
	f.Add(synth)
	f.Add(craftColumnFile(screenBlock, 1, 100, 100))

	// Seed: a v1 file, covering the streaming fallback behind the same API.
	var vbuf bytes.Buffer
	w, _ := NewWriter(&vbuf, "dev", 1000)
	w.Write(&Record{Type: RecScreen, TS: 2000, ScreenOn: true})
	w.Flush()
	f.Add(vbuf.Bytes())

	// Seeds: the two index attacks from the bug sweep — a crafted footer
	// declaring a ~1 TiB block offset resp. a 2^50 record count, each of
	// which previously drove a fatal OOM out of a ~30-byte file.
	f.Add(craftColumnIndexFile(1, []rawIndexEntry{{od: 1 << 40, ul: 16, cl: 16, rc: 1}}))
	f.Add(craftColumnIndexFile(1, []rawIndexEntry{{od: 5, ul: 16, cl: 16, rc: 1 << 50}}))
	f.Add([]byte{})
	f.Add(metr3Sample())
	// Seed: a 58-byte file whose one RecAppName names app 1<<24, which once
	// grew the app table to 16 M names (1.5 GB) on the way in.
	f.Add(appNameFile(1 << 24))

	// Seeds: the generated file and a crafted index under the refused
	// magics, footer intact: neither index may be read.
	for _, body := range [][]byte{synth[len(magic):], craftColumnIndexFile(1, nil)[len(magic):]} {
		for _, seed := range legacySeeds(body) {
			f.Add(seed)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.metr")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// One worker is the caller's goroutine decoding alone (ReadFile, and
		// every fleet with more files than workers); four fan blocks out.
		for _, workers := range []int{1, 4} {
			dt, err := ReadFileParallel(path, workers)
			if refusedLegacy(t, data, err) || err != nil {
				continue
			}
			for i := range dt.Records {
				if dt.Records[i].Type == RecPacket && len(dt.Records[i].Payload) > maxRecordLen {
					t.Fatalf("workers=%d: oversized payload accepted: %d", workers, len(dt.Records[i].Payload))
				}
			}
			dt.Recycle()
		}
	})
}

// metr3Sample builds a small valid METR-3 file covering every record type,
// the common seed for the columnar fuzzers.
func metr3Sample() []byte {
	var buf bytes.Buffer
	w, _ := NewColumnWriter(&buf, "dev", 1000)
	w.Write(&Record{Type: RecAppName, TS: 1000, App: 0, AppName: "com.a"})
	w.Write(&Record{Type: RecProcState, TS: 1500, App: 0, State: StateForeground})
	w.Write(&Record{Type: RecPacket, TS: 2000, App: 0, Dir: DirUp,
		Net: NetCellular, State: StateService, Payload: []byte{0x45, 0, 0, 20}})
	w.Write(&Record{Type: RecUIEvent, TS: 2500, App: 0, UIKind: 1})
	w.Write(&Record{Type: RecScreen, TS: 3000, ScreenOn: true})
	w.Flush()
	return buf.Bytes()
}

// craftColumnFile assembles a METR-3 file with one hand-built block whose
// uncompressed columnar image is raw and whose CRC-intact header declares
// count/first/last, plus a matching footer index — the tool for probing
// decodeColumns with images the writer would never produce.
func craftColumnFile(raw []byte, count int, first, last Timestamp) []byte {
	var lza lz.Appender
	payload := lza.Compress(nil, raw)

	out := append([]byte(nil), magicColumnar...)
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
	idx = binary.AppendUvarint(idx, uint64(count))
	idx = binary.LittleEndian.AppendUint64(idx, uint64(len(idx)))
	idx = binary.LittleEndian.AppendUint32(idx, crc32.Checksum(idx[:len(idx)-8], castagnoli))
	idx = append(idx, footerMagicColumnar...)
	return append(out, idx...)
}

// craftColumnIndexFile is craftIndexFile for the METR-3 container: header
// plus a CRC-intact footer index carrying the given raw entries, no blocks.
func craftColumnIndexFile(declaredCount uint64, entries []rawIndexEntry) []byte {
	out := append([]byte(nil), magicColumnar...)
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
	idx = append(idx, footerMagicColumnar...)
	return append(out, idx...)
}

// FuzzMETR3Decoder feeds arbitrary bytes to the METR-3 columnar decoder
// through both the per-record reader and the zero-copy batch reader. Every
// input must yield records or a clean error (crafted inputs as ErrCorrupt),
// never a panic or an allocation sized by unvalidated header fields.
func FuzzMETR3Decoder(f *testing.F) {
	sample := metr3Sample()
	f.Add(sample)
	f.Add([]byte("METR3\n"))
	f.Add([]byte{})

	// Seed: bitpack width overflow — a CRC-intact block whose timestamp
	// column declares a 200-bit width; the decoder must reject widths over
	// 64 before unpacking rather than index out of the packed bytes.
	f.Add(craftColumnFile([]byte{byte(RecScreen), 0, 1, 200}, 1, 100, 100))
	// Seed: maximum width with no packed bytes behind it (truncated column).
	f.Add(craftColumnFile([]byte{byte(RecScreen), 0, 1, 64}, 1, 100, 100))
	// Seed: a length column assigning blob bytes to a record type that
	// carries none.
	f.Add(craftColumnFile([]byte{byte(RecScreen), 0, 1, 0, 0, 8, 0xFF, 0xAA}, 1, 100, 100))
	// Seed: the sample under a refused magic, which must stay refused.
	f.Add(legacySeeds(sample[len(magic):])[0])
	// Seeds: crafted footer indexes declaring a ~1 TiB offset resp. a 2^50
	// record count, each of which once drove a fatal OOM.
	f.Add(craftColumnIndexFile(1, []rawIndexEntry{{od: 1 << 40, ul: 16, cl: 16, rc: 1}}))
	f.Add(craftColumnIndexFile(1, []rawIndexEntry{{od: 5, ul: 16, cl: 16, rc: 1 << 50}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Per-record streaming path.
		if r, err := NewReader(bytes.NewReader(data)); !refusedLegacy(t, data, err) && err == nil {
			for i := 0; i < 10000; i++ {
				rec, err := r.Next()
				if err != nil {
					break
				}
				if rec.Type == RecPacket && len(rec.Payload) > maxRecordLen {
					t.Fatalf("oversized payload accepted: %d", len(rec.Payload))
				}
			}
		}
		// Batch path: the zero-copy block server must fail just as cleanly.
		br, err := NewBatchReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 1000; i++ {
			b, err := br.Next()
			if err != nil {
				return
			}
			for j := 0; j < b.Len(); j++ {
				if len(b.Bytes(j)) > maxRecordLen {
					t.Fatalf("oversized batch payload accepted: %d", len(b.Bytes(j)))
				}
			}
		}
	})
}

// completeRecords walks data as a footerless METR-3 file, independently of
// the streaming iterator, and returns how many records its leading run of
// complete, CRC-valid blocks declares.
func completeRecords(data []byte) int {
	if !bytes.HasPrefix(data, magicColumnar) {
		return 0
	}
	// Sized to hold the file, so Buffered below is all of it past the header.
	br := bufio.NewReaderSize(bytes.NewReader(data[6:]), len(data))
	if _, _, err := readFileHeader(br); err != nil {
		return 0
	}
	p := data[len(data)-br.Buffered():]
	total := 0
	for len(p) > 0 && p[0] == blockTag {
		h, n, err := parseBlockHeader(p[1:])
		if err != nil || len(p) < 1+n+h.clen ||
			crc32.Checksum(p[1+n:1+n+h.clen], castagnoli) != h.crc {
			break
		}
		total += h.count
		p = p[1+n+h.clen:]
	}
	return total
}

// FuzzScanFile feeds ScanFile arbitrary bytes with an arbitrary amount torn
// off the end. It must never panic; on the streaming path it must succeed
// exactly when the streaming reader does — except that a torn last block is
// the end of the file to it — with the same records, and never deliver a
// record of a block that is incomplete or fails its CRC.
func FuzzScanFile(f *testing.F) {
	recs := []Record{
		{Type: RecAppName, TS: 1000, App: 0, AppName: "com.a"},
		{Type: RecPacket, TS: 2000, App: 0, Dir: DirUp,
			Net: NetCellular, State: StateService, Payload: []byte{0x45, 0, 0, 20}},
		{Type: RecScreen, TS: 3000, ScreenOn: true},
	}
	flat, _ := (&DeviceTrace{Device: "dev", Start: 1000, Records: recs}).Encode()
	var cbuf bytes.Buffer
	cw, _ := NewColumnWriter(&cbuf, "dev", 1000)
	cw.Write(&recs[0])
	cw.Write(&recs[1])
	cw.Sync() // two blocks, so a tear can leave one whole
	cw.Write(&recs[2])
	cw.Flush()
	synth := synthMETR3(f) // several blocks
	for _, data := range [][]byte{flat, synth, cbuf.Bytes()} {
		f.Add(data, uint16(0))
		f.Add(data, uint16(footerLen+3))  // unsealed
		f.Add(data, uint16(footerLen+20)) // unsealed, torn
	}
	f.Add([]byte{}, uint16(0))
	for _, seed := range legacySeeds(synth[len(magic):]) {
		f.Add(seed, uint16(0))
		f.Add(seed, uint16(footerLen+3))
	}

	f.Fuzz(func(t *testing.T, data []byte, tear uint16) {
		data = data[:len(data)-int(tear)%(len(data)+1)]
		scan, stream := readPaths[2].read, readPaths[0].read
		got, scanErr := scan(t, data)
		if refusedLegacy(t, data, scanErr) {
			return
		}
		if _, _, _, indexed, err := ReadBlockIndex(bytes.NewReader(data), int64(len(data))); indexed || err != nil {
			return // ScanFile went by the index, or refused it
		}
		want, streamErr := stream(t, data)
		if errors.Is(streamErr, errTornBlock) {
			streamErr = nil
		}
		if (scanErr == nil) != (streamErr == nil) {
			t.Fatalf("ScanFile: %v, streaming reader: %v", scanErr, streamErr)
		}
		// A failed scan has delivered whole batches only, so a prefix.
		if len(got) > len(want) || (scanErr == nil && len(got) != len(want)) {
			t.Fatalf("ScanFile delivered %d records, streaming reader %d", len(got), len(want))
		}
		for i := range got {
			if !sameRecord(&got[i], &want[i]) {
				t.Fatalf("record %d differs from the streaming reader's", i)
			}
		}
		if bytes.HasPrefix(data, magicColumnar) && len(got) > completeRecords(data) {
			t.Fatalf("%d records delivered, complete CRC-valid blocks hold %d", len(got), completeRecords(data))
		}
	})
}
