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

// TestQueryWindowWarmAllocs holds BenchmarkQueryWindowWarm's query — the
// warm wide query, on its fixture — to at most 600 allocations: the fold,
// Finalize and the Memo lookups allocate per query, not per window or per
// row.
func TestQueryWindowWarmAllocs(t *testing.T) {
	dir, traces := writeSegmentDir(t, 4, 4)
	span := traceSpan(traces)
	eng := Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()}
	q := Query{From: span[0], To: span[1] + 1, Window: trace.Timestamp(3600 * 1e6), TopN: 10}
	res := mustQuery(t, eng, dir, q)
	if res.Scan.WindowsComputed == 0 || len(res.Windows) < 90 {
		t.Fatalf("fixture: %d windows, scan %+v", len(res.Windows), res.Scan)
	}
	if n := testing.AllocsPerRun(10, func() { mustQuery(t, eng, dir, q) }); n > 600 {
		t.Fatalf("warm wide query: %v allocations, want at most 600", n)
	}
}

// BenchmarkQueryPushdown measures the narrow-window case the seek index
// exists for: one hour out of four days, most blocks skipped.
func BenchmarkQueryPushdown(b *testing.B) {
	benchQueryPushdown(b, func(dir string, q Query) (*Result, error) {
		return Engine{Opts: energy.DefaultOptions()}.QueryDir(dir, q)
	}, false)
}

// BenchmarkQueryPushdownWarm is the same narrow query on a node's memo
// after a wide query: the indexes and every block the wide query decoded
// are kept, so pass 1 stats the files and pass 2 filters kept blocks.
func BenchmarkQueryPushdownWarm(b *testing.B) {
	eng := Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()}
	benchQueryPushdown(b, eng.QueryDir, true)
}

// BenchmarkQueryPushdownNarrowOnly is the same narrow query on a memo that
// has seen nothing but it: "cold" on a fresh memo for every query, the
// most a memo can add to a query that keeps nothing it decodes; "steady"
// on one memo, which then holds the indexes and the blocks the narrow
// query happens to decode whole. Both hold the memo to DESIGN §11's rule
// that a cold query decodes no more than the zero-value engine's.
// "catalog" is "steady" on the catalog a node keeps of the directory, as
// /query runs: pass 1 lists nothing and stats no segment file.
func BenchmarkQueryPushdownNarrowOnly(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		benchQueryPushdown(b, func(dir string, q Query) (*Result, error) {
			return Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()}.QueryDir(dir, q)
		}, false)
	})
	b.Run("steady", func(b *testing.B) {
		eng := Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()}
		benchQueryPushdown(b, eng.QueryDir, false)
	})
	b.Run("catalog", func(b *testing.B) {
		dir, _ := benchFixture(b)
		cat, err := OpenCatalog(dir)
		if err != nil {
			b.Fatal(err)
		}
		eng := Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()}
		benchQueryPushdown(b, func(_ string, q Query) (*Result, error) { return eng.QueryCatalog(cat, q) }, false)
	})
}

// benchQueryPushdown times the narrow query over the fixture through
// query, after a wide one when wide is set.
func benchQueryPushdown(b *testing.B, query func(dir string, q Query) (*Result, error), wide bool) {
	dir, span := benchFixture(b)
	from := span[0] + (span[1]-span[0])/2
	q := Query{From: from, To: from + 3600*1e6}
	if wide {
		if _, err := query(dir, Query{From: span[0], To: span[1] + 1, Window: 3600 * 1e6}); err != nil {
			b.Fatal(err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := query(dir, q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Scan.BlocksSkipped == 0 {
			b.Fatal("pushdown skipped nothing")
		}
		if wide && res.Scan.BlocksCached != res.Scan.BlocksScanned {
			b.Fatalf("warm narrow query decoded blocks: %+v", res.Scan)
		}
	}
}

// BenchmarkQueryRepeatOverBudget repeats the unwindowed whole-span query
// on one memo whose budget (16 MiB) holds only part of the fixture's
// blocks: each repeat is served the blocks the memo kept and decodes the
// rest, which the memo refuses rather than evicting what the repeat
// itself touched. Every repeat must be served the same number of kept
// blocks; reports blocks_cached and decompressed_MB per query.
func BenchmarkQueryRepeatOverBudget(b *testing.B) {
	dir, span := benchFixture(b)
	q := Query{From: span[0], To: span[1] + 1}
	eng := Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()}
	eng.Memo.budget = 16 << 20
	first, err := eng.QueryDir(dir, q)
	if err != nil {
		b.Fatal(err)
	}
	if first.Scan.BlocksRefused == 0 {
		b.Fatalf("the budget held every block: %+v", first.Scan)
	}
	cached := -1
	var decompressed int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.QueryDir(dir, q)
		if err != nil {
			b.Fatal(err)
		}
		if cached >= 0 && res.Scan.BlocksCached != cached {
			b.Fatalf("repeat %d served %d kept blocks, the one before %d", i, res.Scan.BlocksCached, cached)
		}
		cached = res.Scan.BlocksCached
		decompressed += res.Scan.BytesDecompressed
	}
	b.StopTimer()
	b.ReportMetric(float64(cached), "blocks_cached")
	b.ReportMetric(float64(decompressed)/float64(b.N)/1e6, "decompressed_MB")
}
