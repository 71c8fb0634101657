package tsq

import (
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"netenergy/internal/energy"
	"netenergy/internal/trace"
)

// benchDir lazily builds one shared segment fixture (4 devices × 4 days,
// each device split over two METR-3 segments) for all query benchmarks.
var benchDir struct {
	once sync.Once
	dir  string
	span [2]trace.Timestamp
}

func benchFixture(b *testing.B) (string, [2]trace.Timestamp) {
	benchDir.once.Do(func() {
		// Process-lifetime temp dir: b.TempDir would be removed after the
		// first benchmark finishes, but the fixture is shared across all
		// query benchmarks (and rebuilt fresh in every test process).
		dir, err := os.MkdirTemp("", "tsqbench")
		if err != nil {
			b.Fatal(err)
		}
		traces := writeSegmentsInto(b, dir, 4, 4)
		benchDir.dir = dir
		benchDir.span = traceSpan(traces)
	})
	return benchDir.dir, benchDir.span
}

// BenchmarkQueryWindow is the cold wide query: an hour-windowed
// whole-span query over the fixture with nothing memoised, so every
// window is decoded and accumulated — what cmd/tsq and a node's first
// look at a stretch of history pay. Reports query_p50_ms (median
// per-query wall time) and allocations.
func BenchmarkQueryWindow(b *testing.B) {
	benchQueryWindow(b, Engine{Opts: energy.DefaultOptions()})
}

// BenchmarkQueryWindowWarm is the same query on an engine whose Memo
// already holds every settled window: only the two windows the range
// cuts are scanned, the rest is lookup and fold.
func BenchmarkQueryWindowWarm(b *testing.B) {
	benchQueryWindow(b, Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()})
}

func benchQueryWindow(b *testing.B, eng Engine) {
	dir, span := benchFixture(b)
	q := Query{From: span[0], To: span[1] + 1, Window: trace.Timestamp(3600 * 1e6), TopN: 10}
	if _, err := eng.QueryDir(dir, q); err != nil { // fills the Memo, if there is one
		b.Fatal(err)
	}

	durs := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		res, err := eng.QueryDir(dir, q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Records == 0 {
			b.Fatal("benchmark query matched nothing")
		}
		durs = append(durs, time.Since(t0))
	}
	b.StopTimer()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	b.ReportMetric(durs[len(durs)/2].Seconds()*1e3, "query_p50_ms")
}

// BenchmarkQueryPushdown measures the narrow-window case the seek index
// exists for: one hour out of four days, most blocks skipped.
func BenchmarkQueryPushdown(b *testing.B) {
	dir, span := benchFixture(b)
	eng := Engine{Opts: energy.DefaultOptions()}
	from := span[0] + (span[1]-span[0])/2
	q := Query{From: from, To: from + 3600*1e6}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.QueryDir(dir, q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Scan.BlocksSkipped == 0 {
			b.Fatal("pushdown skipped nothing")
		}
	}
}
