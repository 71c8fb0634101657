// Benchmarks for the bounded-memory streaming analyzer: the per-record
// Feed hot path and the checkpoint state round-trip; run them with
// `go test -run '^$' -bench . ./internal/analysis/`.
package analysis

import (
	"sync"
	"testing"

	"netenergy/internal/energy"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

var analysisBenchOnce sync.Once
var analysisBenchTrace *trace.DeviceTrace

func benchTrace() *trace.DeviceTrace {
	analysisBenchOnce.Do(func() {
		analysisBenchTrace = synthgen.GenerateDevice(synthgen.Small(1, 2), 0)
	})
	return analysisBenchTrace
}

func benchOpts() energy.Options {
	opts := energy.DefaultOptions()
	opts.KeepPackets = false
	return opts
}

// BenchmarkStreamFeed measures the per-record cost of the streaming
// accumulator — the inner loop of both analyze -stream and the ingest
// shard apply path.
func BenchmarkStreamFeed(b *testing.B) {
	dt := benchTrace()
	acc := NewStreamAccumulator(dt.Device, benchOpts())
	n := len(dt.Records)
	for i := 0; i < n; i++ { // warm: settle bins, day keys, app maps
		acc.Feed(&dt.Records[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Feed(&dt.Records[i%n])
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkAppendState measures checkpoint serialization of a realistic
// per-device accumulator (the write half of the crash-safe snapshot).
func BenchmarkAppendState(b *testing.B) {
	dt := benchTrace()
	acc := NewStreamAccumulator(dt.Device, benchOpts())
	for i := range dt.Records {
		acc.Feed(&dt.Records[i])
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = acc.AppendState(buf[:0])
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkRestoreState measures deserialization — the restart path that
// bounds ingest recovery time after a crash.
func BenchmarkRestoreState(b *testing.B) {
	dt := benchTrace()
	acc := NewStreamAccumulator(dt.Device, benchOpts())
	for i := range dt.Records {
		acc.Feed(&dt.Records[i])
	}
	state := acc.AppendState(nil)
	b.SetBytes(int64(len(state)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RestoreStreamAccumulator(state, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}
