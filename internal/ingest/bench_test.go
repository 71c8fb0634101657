// Benchmarks for the wire protocol, the shard apply path, the checkpoint
// store and the full TCP ingest loop. scripts/bench.sh runs these (with the
// analysis-side benchmarks) and records the results as BENCH_<date>.json.
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

func BenchmarkFrameEncode(b *testing.B) {
	dt := benchTrace()
	enc := trace.NewRecordEncoder(dt.Start)
	var frame []byte
	var bytesOut int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := enc.Encode(&dt.Records[i%len(dt.Records)])
		if err != nil {
			b.Fatal(err)
		}
		frame = appendFrame(frame[:0], int64(i), body)
		bytesOut += int64(len(frame))
	}
	b.SetBytes(bytesOut / int64(b.N))
}

func BenchmarkFrameDecode(b *testing.B) {
	dt := benchTrace()
	enc := trace.NewRecordEncoder(dt.Start)
	var wire []byte
	n := len(dt.Records)
	for i := 0; i < n; i++ {
		body, err := enc.Encode(&dt.Records[i])
		if err != nil {
			b.Fatal(err)
		}
		wire = appendFrame(wire, int64(i), body)
	}
	b.SetBytes(int64(len(wire)) / int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	var fr *frameReader
	var dec *trace.RecordDecoder
	for i := 0; i < b.N; i++ {
		if i%n == 0 { // restart the stream (and the timestamp delta chain)
			fr = newFrameReader(bufio.NewReaderSize(bytes.NewReader(wire), 1<<16))
			dec = trace.NewRecordDecoder(dt.Start)
		}
		_, body, err := fr.next()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dec.Decode(body); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrameDecodeAllocFree pins the steady-state allocation behaviour of
// the frame decode path. Two past leaks are covered: the per-call CRC
// scratch slice (now the frameReader's crcb field) and the body copy (now
// served zero-copy from the bufio buffer via the Peek fast path). With a
// buffer large enough to hold each frame, next()+Decode must not allocate
// at all.
func TestFrameDecodeAllocFree(t *testing.T) {
	dt := benchTrace()
	enc := trace.NewRecordEncoder(dt.Start)
	var wire []byte
	n := len(dt.Records)
	for i := 0; i < n; i++ {
		body, err := enc.Encode(&dt.Records[i])
		if err != nil {
			t.Fatal(err)
		}
		wire = appendFrame(wire, int64(i), body)
	}
	var fr *frameReader
	var dec *trace.RecordDecoder
	i := 0
	step := func() {
		if i%n == 0 { // restart the stream (and the timestamp delta chain)
			fr = newFrameReader(bufio.NewReaderSize(bytes.NewReader(wire), 1<<16))
			dec = trace.NewRecordDecoder(dt.Start)
		}
		_, body, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Decode(body); err != nil {
			t.Fatal(err)
		}
		i++
	}
	step() // warm: reader and decoder buffers
	// The restart every n steps allocates a fresh reader; amortized over
	// 2n runs that is the only permitted allocation source, and it stays
	// well under 1 alloc per frame only if the per-frame path is clean.
	allocs := testing.AllocsPerRun(2*n, step)
	if allocs > 0.01 {
		t.Fatalf("frame decode allocates %.4f times per frame, want ~0", allocs)
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

// TestBatchApplyAllocFree extends the zero-allocation policy to the
// columnar apply path: a pooled RecordBatch through shard.feed
// (applyBatch, positional dedup, FeedBatch, counters, histograms) must not
// allocate in steady state. The feeder mirrors handleConn: get a batch
// from the pool, fill it from the wire records, hand it to the shard,
// which recycles it back into the pool.
func TestBatchApplyAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool allocates under the race detector")
	}
	const batchSize = 128
	dt := benchTrace()
	sh := newShard(0, 1, batchOpts(), newCounters(), newDeviceRegistry(), nil)
	pos := 0
	batch := &recordBatch{device: dt.Device}
	feed := func() {
		if pos+batchSize > len(dt.Records) {
			pos = 0 // cycle; state stays steady
		}
		cols := batchPool.Get().(*trace.RecordBatch)
		cols.Reset()
		for i := pos; i < pos+batchSize; i++ {
			cols.Append(&dt.Records[i])
		}
		batch.firstSeq = sh.seqs[dt.Device]
		batch.cols = cols
		batch.enqueuedNS = time.Now().UnixNano()
		sh.feed(batch)
		pos += batchSize
	}
	for i := 0; i < 50; i++ { // settle pool, arena caps and ledger day keys
		feed()
	}
	if allocs := testing.AllocsPerRun(200, feed); allocs > 0 {
		t.Fatalf("columnar apply path allocates %.2f times per batch, want 0", allocs)
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
		snap, _, err := st.LoadLatest(nil)
		if err != nil {
			b.Fatal(err)
		}
		if snap == nil || len(snap.Devices) != 16 {
			b.Fatal("bad snapshot")
		}
	}
}

// benchFIN drives the session-completion path: each iteration runs 8
// concurrent short sessions to completion (dial, stream, FIN, ack) against
// a checkpointing server, so the durable variant's FIN group commit sees
// concurrent FINs to batch, exactly as production does. The periodic
// checkpoint loop is parked at an hour so the only fsyncs measured are the
// FIN-triggered ones. The server is recycled every 64 iterations (timer
// stopped) to keep the snapshot size — and so the per-FIN commit cost —
// steady instead of growing with b.N.
func benchFIN(b *testing.B, durable bool) {
	const lanes = 8
	dt := benchTrace()
	recs := dt.Records[:32]
	var s *Server
	shutdown := func() {
		if s == nil {
			return
		}
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
			s = NewServer(Config{
				Addr: "127.0.0.1:0", Shards: 4, QueueDepth: 256, BatchSize: 128,
				CheckpointDir: b.TempDir(), CheckpointInterval: time.Hour,
				DurableFIN: durable,
			})
			if err := s.Start(); err != nil {
				b.Fatal(err)
			}
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
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*lanes), "fin_session_ms")
}

// BenchmarkFinDurable / BenchmarkFinVolatile are the -durable-fin cost
// pair: identical session workloads with the FIN-ack checkpoint commit on
// and off. scripts/bench.sh records the ns_per_op ratio as
// durable_fin_overhead_pct — the price of closing the completed-session
// loss window, quoted in DESIGN.md §10.
func BenchmarkFinDurable(b *testing.B)  { benchFIN(b, true) }
func BenchmarkFinVolatile(b *testing.B) { benchFIN(b, false) }

// BenchmarkIngestE2E measures whole-system throughput: 4 concurrent device
// sessions over real TCP into a 4-shard server, per iteration. The
// records/s metric is the fleet ingest rate scripts/bench.sh tracks.
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
