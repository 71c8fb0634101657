// Benchmarks for the wire protocol, the shard apply path, the checkpoint
// store and the full TCP ingest loop; run them with
// `go test -run '^$' -bench . ./internal/ingest/`. The repository benchmark
// (bench/, BENCHMARK.json) measures the same paths against a real ingestd.
//
// TestApplyAllocFree is the zero-allocation policy guard from DESIGN.md:
// the instrumented shard apply path must not allocate in steady state, so
// metrics can never become the ingest bottleneck.
package ingest

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"netenergy/internal/analysis"
	"netenergy/internal/ingest/checkpoint"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

// benchTrace returns a deterministic single-device trace (~20k records).
var benchTraceOnce sync.Once
var benchTraceVal *trace.DeviceTrace

func benchTrace() *trace.DeviceTrace {
	benchTraceOnce.Do(func() {
		benchTraceVal = synthgen.GenerateDevice(synthgen.Small(1, 2), 0)
	})
	return benchTraceVal
}

// BenchmarkFrameEncode is the Client's encode path per record: record
// encoder, batchWriter.add, and a flush every maxBatch records.
func BenchmarkFrameEncode(b *testing.B) {
	dt := benchTrace()
	enc := trace.NewRecordEncoder(dt.Start)
	var out bytes.Buffer
	w := batchWriter{w: &out}
	var bytesOut int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := enc.Encode(&dt.Records[i%len(dt.Records)])
		if err != nil {
			b.Fatal(err)
		}
		w.add(int64(i), body)
		if w.count == maxBatch {
			out.Reset()
			n, _ := w.flush() //nolint:errcheck // a bytes.Buffer does not fail
			bytesOut += int64(n)
		}
	}
	b.SetBytes(bytesOut / int64(b.N))
}

// benchWire is benchTrace as the Client puts it on the wire: batch frames of
// maxBatch records.
func benchWire(tb testing.TB) (wire []byte, records int) {
	dt := benchTrace()
	enc := trace.NewRecordEncoder(dt.Start)
	var out bytes.Buffer
	w := batchWriter{w: &out}
	for i := range dt.Records {
		body, err := enc.Encode(&dt.Records[i])
		if err != nil {
			tb.Fatal(err)
		}
		w.add(int64(i), body)
		if w.count == maxBatch {
			w.flush() //nolint:errcheck // a bytes.Buffer does not fail
		}
	}
	w.flush() //nolint:errcheck // a bytes.Buffer does not fail
	return out.Bytes(), len(dt.Records)
}

// wireDecoder decodes benchWire frame by frame the way handleConn does —
// frame reader, batch iterator, record decoder — restarting the stream (and
// the timestamp delta chain) when it runs out.
type wireDecoder struct {
	tb   testing.TB
	wire []byte
	fr   *frameReader
	dec  *trace.RecordDecoder
}

// frame decodes the next frame and returns how many records it held.
func (d *wireDecoder) frame() (records int) {
	_, body, err := d.fr.next()
	if err == io.EOF {
		d.fr = newFrameReader(bufio.NewReaderSize(bytes.NewReader(d.wire), 1<<16))
		d.dec = trace.NewRecordDecoder(benchTrace().Start)
		_, body, err = d.fr.next()
	}
	if err != nil {
		d.tb.Fatal(err)
	}
	batch := openBatch(body)
	for ; batch.next(); records++ {
		if _, err := d.dec.Decode(batch.record); err != nil {
			d.tb.Fatal(err)
		}
	}
	if batch.err != nil {
		d.tb.Fatal(batch.err)
	}
	return records
}

// newWireDecoder starts at the end of a stream, so the first frame() call
// takes the restart path like every later pass.
func newWireDecoder(tb testing.TB, wire []byte) *wireDecoder {
	return &wireDecoder{tb: tb, wire: wire, fr: newFrameReader(bufio.NewReader(bytes.NewReader(nil)))}
}

func BenchmarkFrameDecode(b *testing.B) {
	wire, n := benchWire(b)
	b.SetBytes(int64(len(wire)) / int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	d := newWireDecoder(b, wire)
	for done := 0; done < b.N; { // b.N counts records
		done += d.frame()
	}
}

// TestFrameDecodeAllocFree pins the steady-state allocation behaviour of
// the frame decode path. Two past leaks are covered: the per-call CRC
// scratch slice (now the frameReader's crcb field) and the body copy (now
// served zero-copy from the bufio buffer via the Peek fast path). With a
// buffer large enough to hold each frame, next() + the batch iterator +
// Decode must not allocate at all.
func TestFrameDecodeAllocFree(t *testing.T) {
	wire, n := benchWire(t)
	d := newWireDecoder(t, wire)
	pass := func() {
		for done := 0; done < n; {
			done += d.frame()
		}
	}
	pass() // warm: reader and decoder buffers
	// What a pass may allocate: the string of each app-name record (the
	// record decoder's, not the frame path's) and the fresh reader and
	// decoder of its one restart. A leak per frame would add n/maxBatch to
	// that, a leak per record n.
	budget := 8.0
	for i := range benchTrace().Records {
		if benchTrace().Records[i].Type == trace.RecAppName {
			budget++
		}
	}
	if allocs := testing.AllocsPerRun(3, pass); allocs > budget {
		t.Fatalf("decoding %d records in %d-record frames allocates %.0f times, want <= %.0f", n, maxBatch, allocs, budget)
	}

	// The frame encoder appends into a buffer that has room without
	// allocating.
	body := bytes.Repeat([]byte{0xa5}, 4096)
	frame := appendFrame(nil, 1, body)
	if allocs := testing.AllocsPerRun(100, func() { frame = appendFrame(frame[:0], 1, body) }); allocs > 0 {
		t.Fatalf("appendFrame into a buffer with room allocates %.0f times, want 0", allocs)
	}
}

// benchApplyShard returns a shard and a cycling batch feeder that mirrors
// handleConn: each call takes a batch from the pool, fills it with the next
// batchSize records of the trace at the shard's current high-water sequence
// (so every record is accepted) and hands it to apply — shard.feed or
// shard.applyBatch — which recycles it back into the pool.
func benchApplyShard(batchSize int, apply func(*shard, *recordBatch)) func() {
	dt := benchTrace()
	sh := newShard(0, 1, batchOpts(), newCounters(), newDeviceRegistry(), nil)
	pos := 0
	batch := &recordBatch{device: dt.Device}
	return func() {
		if pos+batchSize > len(dt.Records) {
			pos = 0 // cycle; one time rewind per pass, state stays steady
		}
		cols := batchPool.Get().(*trace.RecordBatch)
		cols.Reset()
		for i := pos; i < pos+batchSize; i++ {
			cols.Append(&dt.Records[i])
		}
		batch.firstSeq = sh.seqs[dt.Device]
		batch.cols = cols
		batch.enqueuedNS = time.Now().UnixNano()
		apply(sh, batch)
		pos += batchSize
	}
}

func benchApply(b *testing.B, apply func(*shard, *recordBatch)) {
	const batchSize = 128
	feed := benchApplyShard(batchSize, apply)
	feed() // warm: accumulator, registry entry, ledger day keys
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed()
	}
	b.ReportMetric(float64(b.N)*batchSize/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkApplyInstrumented is the shard apply path exactly as production
// runs it: pooled columnar batches through shard.feed — positional dedup,
// FeedBatch, per-device counters, and the obs histograms (apply latency +
// batch size). The acceptance bar is 0 allocs/op and throughput within 3%
// of BenchmarkApplyBare.
func BenchmarkApplyInstrumented(b *testing.B) { benchApply(b, (*shard).feed) }

// BenchmarkApplyBare is the uninstrumented floor: the same batches through
// shard.applyBatch, which is shard.feed minus the two histogram
// observations and their time stamp — the baseline the ≤3% instrumentation
// budget is measured against.
func BenchmarkApplyBare(b *testing.B) { benchApply(b, (*shard).applyBatch) }

// TestApplyAllocFree enforces the zero-allocation instrumentation policy:
// in steady state the full instrumented apply path — histograms included —
// performs no heap allocation per batch.
func TestApplyAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool allocates under the race detector")
	}
	const batchSize = 128
	feed := benchApplyShard(batchSize, (*shard).feed)
	for i := 0; i < 50; i++ { // settle maps, bins and ledger day keys
		feed()
	}
	if allocs := testing.AllocsPerRun(200, feed); allocs > 0 {
		t.Fatalf("instrumented apply path allocates %.2f times per batch, want 0", allocs)
	}
}

// newBenchAccumulator returns a stream accumulator fed the first n records
// of dt — realistic per-device checkpoint state.
func newBenchAccumulator(dt *trace.DeviceTrace, n int) *analysis.StreamAccumulator {
	acc := analysis.NewStreamAccumulator(dt.Device, batchOpts())
	if n > len(dt.Records) {
		n = len(dt.Records)
	}
	for i := 0; i < n; i++ {
		acc.Feed(&dt.Records[i])
	}
	return acc
}

func benchSnapshot(nDevices int) *checkpoint.Snapshot {
	dt := benchTrace()
	var snap checkpoint.Snapshot
	for i := 0; i < nDevices; i++ {
		acc := newBenchAccumulator(dt, 2000)
		snap.Devices = append(snap.Devices, checkpoint.DeviceState{
			Device: dt.Device + "-" + string(rune('a'+i)),
			Seq:    2000,
			Acc:    acc.AppendState(nil),
		})
	}
	return &snap
}

func BenchmarkCheckpointSave(b *testing.B) {
	st, err := checkpoint.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	snap := benchSnapshot(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.Save(snap); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointRestore(b *testing.B) {
	st, err := checkpoint.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := st.Save(benchSnapshot(16)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck, err := st.LoadLatest(nil)
		if err != nil {
			b.Fatal(err)
		}
		if ck == nil || len(ck.Snap.Devices) != 16 {
			b.Fatal("bad snapshot")
		}
	}
}

// benchFIN drives the session-completion path: each iteration runs 8
// concurrent short sessions to completion (dial, stream, FIN, ack) against
// a checkpointing server, so the durable variant's FIN group commit sees
// concurrent FINs to batch, exactly as production does. The periodic
// checkpoint loop is parked at an hour so the only fsyncs measured are the
// FIN-triggered ones. The node is an old one: it holds finRetired devices
// whose sessions closed long ago and has a base on disk, so what an
// iteration measures is what a FIN costs there — ckpt_bytes/op is what its
// commits wrote, which must not know how many devices are at rest. The
// server is recycled every 64 iterations (timer stopped) so the devices the
// benchmark itself retires stay a small share of the node.
func benchFIN(b *testing.B, durable bool) {
	const lanes = 8
	const finRetired = 5000
	dt := benchTrace()
	recs := dt.Records[:32]
	day := *dt
	day.Records = dt.Records[:2048]
	var s *Server
	var written, base int64
	shutdown := func() {
		if s == nil {
			return
		}
		written += s.ckpt.Written() - base
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if _, err := s.Shutdown(ctx); err != nil {
			b.Fatal(err)
		}
	}
	defer shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			b.StopTimer()
			shutdown()
			dir := b.TempDir()
			preloadRetired(b, dir, &day, finRetired)
			s = NewServer(Config{
				Addr: "127.0.0.1:0", Shards: 4, QueueDepth: 256, BatchSize: 128,
				CheckpointDir: dir, CheckpointInterval: time.Hour,
				DurableFIN: durable,
			})
			if err := s.Start(); err != nil {
				b.Fatal(err)
			}
			if err := s.SaveCheckpoint(); err != nil {
				b.Fatal(err)
			}
			base = s.ckpt.Written()
			b.StartTimer()
		}
		var wg sync.WaitGroup
		for l := 0; l < lanes; l++ {
			wg.Add(1)
			go func(i, l int) {
				defer wg.Done()
				dev := fmt.Sprintf("%s-fin-%d-%d", dt.Device, i, l)
				if _, err := StreamTrace(SessionConfig{
					Addr: s.Addr().String(), Device: dev, Start: dt.Start,
				}, recs); err != nil {
					b.Error(err)
				}
			}(i, l)
		}
		wg.Wait()
	}
	b.StopTimer()
	shutdown()
	s = nil
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*lanes), "fin_session_ms")
	b.ReportMetric(float64(written)/float64(b.N), "ckpt_bytes/op")
}

// BenchmarkFinDurable / BenchmarkFinVolatile are the -durable-fin cost
// pair: identical session workloads with the FIN-ack checkpoint commit on
// and off. The ns/op ratio is the price of closing the completed-session
// loss window, quoted in DESIGN.md §7.
func BenchmarkFinDurable(b *testing.B)  { benchFIN(b, true) }
func BenchmarkFinVolatile(b *testing.B) { benchFIN(b, false) }

// BenchmarkIngestE2E measures whole-system throughput: 4 concurrent device
// sessions over real TCP into a 4-shard server, per iteration, reported as
// records/s; bench/'s ingest_bulk workload is the tracked ingest rate.
func BenchmarkIngestE2E(b *testing.B) {
	fleet := synthgen.GenerateInMemory(synthgen.Small(4, 1))
	var total int64
	for _, dt := range fleet {
		total += int64(len(dt.Records))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewServer(Config{Addr: "127.0.0.1:0", Shards: 4, QueueDepth: 256, BatchSize: 128})
		if err := s.Start(); err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, dt := range fleet {
			wg.Add(1)
			go func(dt *trace.DeviceTrace) {
				defer wg.Done()
				if _, err := StreamTrace(SessionConfig{
					Addr: s.Addr().String(), Device: dt.Device, Start: dt.Start,
				}, dt.Records); err != nil {
					b.Error(err)
				}
			}(dt)
		}
		wg.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if _, err := s.Shutdown(ctx); err != nil {
			b.Fatal(err)
		}
		cancel()
	}
	b.ReportMetric(float64(b.N)*float64(total)/b.Elapsed().Seconds(), "records/s")
}
