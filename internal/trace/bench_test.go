package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"netenergy/internal/lz"
)

// benchTrace holds the files the decode benchmarks read, written once per
// benchmark binary: one synthetic device trace in the two containers (flat,
// METR-3). decode_mbps is reported against the flat (uncompressed-container)
// byte count of the same records for both, so the metric compares decode
// throughput of the same logical records.
var benchTrace struct {
	once  sync.Once
	recs  []Record
	files map[Format]benchFile
}

type benchFile struct {
	path      string
	records   int
	flatBytes int64
}

func benchSetup(b *testing.B) {
	b.Helper()
	benchTrace.once.Do(func() {
		benchTrace.recs = genRecords(120000) // ~50 MB flat, dozens of blocks
		dir, err := os.MkdirTemp("", "tracebench")
		if err != nil {
			panic(err)
		}
		benchTrace.files = make(map[Format]benchFile)
		add := func(f Format, data []byte, dt *DeviceTrace) {
			flat, err := dt.Encode()
			if err != nil {
				panic(err)
			}
			path := filepath.Join(dir, "u00."+f.String()+".metr")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				panic(err)
			}
			benchTrace.files[f] = benchFile{path, len(dt.Records), int64(len(flat))}
		}
		dt := &DeviceTrace{Device: "bench-00", Start: 1000, Records: benchTrace.recs}
		flat, err := dt.Encode()
		if err != nil {
			panic(err)
		}
		add(FormatFlat, flat, dt)
		var buf bytes.Buffer
		if err := dt.SerializeColumnar(&buf); err != nil {
			panic(err)
		}
		add(FormatColumnar, buf.Bytes(), dt)
	})
}

// benchDecode runs one full-file decode per iteration and reports
// decode_mbps: flat-container megabytes decoded per second.
func benchDecode(b *testing.B, format Format, workers int) {
	benchSetup(b)
	f := benchTrace.files[format]
	b.SetBytes(f.flatBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dt, err := ReadFileParallel(f.path, workers)
		if err != nil {
			b.Fatal(err)
		}
		if len(dt.Records) != f.records {
			b.Fatalf("decoded %d records, want %d", len(dt.Records), f.records)
		}
		// Steady-state decode loop, as core.OpenParallel runs it: fold
		// the trace, recycle its buffers, move to the next file.
		dt.Recycle()
	}
	b.StopTimer()
	mbps := float64(f.flatBytes) / 1e6 * float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(mbps, "decode_mbps")
}

func BenchmarkDecodeV1Flat(b *testing.B) { benchDecode(b, FormatFlat, 1) }
func BenchmarkDecodeMETR3(b *testing.B)  { benchDecode(b, FormatColumnar, 1) }
func BenchmarkDecodeMETR3Parallel4(b *testing.B) {
	benchDecode(b, FormatColumnar, 4)
}
func BenchmarkDecodeMETR3Parallel8(b *testing.B) {
	benchDecode(b, FormatColumnar, 8)
}

func BenchmarkEncodeMETR3(b *testing.B) {
	benchSetup(b)
	dt := &DeviceTrace{Device: "bench-00", Start: 1000, Records: benchTrace.recs}
	b.SetBytes(benchTrace.files[FormatFlat].flatBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := NewColumnWriter(io.Discard, dt.Device, dt.Start)
		if err != nil {
			b.Fatal(err)
		}
		for j := range dt.Records {
			if err := w.Write(&dt.Records[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// StreamPoolDevice returns user i of seed cut to exactly n records, as the
// benchmark harness builds its stream pool (bench/harness.go fixedDevice).
// internal/synthgen imports this package, so the external test package
// sets it (synth_test.go).
var StreamPoolDevice func(seed uint64, i, n int) *DeviceTrace

// streamPool holds the staged blocks BenchmarkColumnEncode encodes, built
// once per benchmark binary.
var streamPool struct {
	once    sync.Once
	blocks  []RecordBatch
	records int
}

// streamPoolBlocks stages the stream pool bench/run.sh's ingest workloads
// replay at seed 1 — 8 devices of 32 768 records — into blocks, each cut
// where a ColumnWriter fed that device would cut it.
func streamPoolBlocks() ([]RecordBatch, int) {
	streamPool.once.Do(func() {
		for i := 0; i < 8; i++ {
			dt := StreamPoolDevice(1, i, 32768)
			var e columnEncoder
			for j := range dt.Records {
				e.batch.Append(&dt.Records[j])
				if e.full() || j == len(dt.Records)-1 {
					streamPool.blocks = append(streamPool.blocks, e.batch)
					e.batch = RecordBatch{}
				}
			}
			streamPool.records += len(dt.Records)
		}
	})
	return streamPool.blocks, streamPool.records
}

// BenchmarkColumnEncode is the segment layer's encoder on the bytes it
// really compresses: each staged block of the stream pool turned into its
// column image and LZ-compressed, as columnEncoder.encode does on every
// block cut. MB/s counts column-image bytes; comp_bytes/record is the
// compressed payload per record. bench's lz.compress_mbps row compresses
// 64 KiB pieces of the flat row stream instead, a different input.
func BenchmarkColumnEncode(b *testing.B) {
	blocks, records := streamPoolBlocks()
	e := columnEncoder{lza: new(lz.Appender)}
	var image, comp int
	for i := range blocks {
		e.raw, e.u64 = appendColumns(e.raw[:0], &blocks[i], blocks[i].TS[0], e.u64)
		image += len(e.raw)
		e.comp = e.lza.Compress(e.comp[:0], e.raw)
		comp += len(e.comp)
	}
	b.SetBytes(int64(image))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := range blocks {
			e.raw, e.u64 = appendColumns(e.raw[:0], &blocks[i], blocks[i].TS[0], e.u64)
			e.comp = e.lza.Compress(e.comp[:0], e.raw)
		}
	}
	b.ReportMetric(float64(comp)/float64(records), "comp_bytes/record")
}
