package tsq

import (
	"cmp"
	"encoding/json"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"netenergy/internal/analysis"
	"netenergy/internal/energy"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

// queryRelTol is the acceptance bar: per-app energy from the query
// engine must match a whole-trace batch run restricted to the window to
// one part in 1e6.
const queryRelTol = 1e-6

func relClose(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= queryRelTol*scale+1e-12
}

// writeSegmentDir materialises a fixed-seed synthetic fleet as METR-3
// segment files, splitting each device's stream across two segments to
// exercise cross-segment replay order. Returns the directory and the
// in-memory traces (the reference the query results are held against).
func writeSegmentDir(t testing.TB, users, days int) (string, []*trace.DeviceTrace) {
	t.Helper()
	dir := t.TempDir()
	traces := writeSegmentsInto(t, dir, users, days)
	return dir, traces
}

func writeSegmentsInto(t testing.TB, dir string, users, days int) []*trace.DeviceTrace {
	t.Helper()
	cfg := synthgen.Small(users, days)
	traces := synthgen.GenerateInMemory(cfg)
	for _, dt := range traces {
		half := len(dt.Records) / 2
		writeSegment(t, filepath.Join(dir, dt.Device+"-0000.metr3"), dt.Device, dt.Start, dt.Records[:half])
		writeSegment(t, filepath.Join(dir, dt.Device+"-0001.metr3"), dt.Device, dt.Records[half].TS, dt.Records[half:])
	}
	return traces
}

func writeSegment(t testing.TB, path, device string, start trace.Timestamp, recs []trace.Record) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewColumnWriter(f, device, start)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// restrictedByApp is the reference computation: per device, feed only
// the records in [from, to) (and, if apps is non-empty, only records an
// app-filtered scan would keep) to a fresh accumulator — the
// "whole-trace batch run restricted to that window" of the acceptance
// criterion — then merge per-app energy across the fleet.
func restrictedByApp(traces []*trace.DeviceTrace, q Query, opts energy.Options) (map[uint32]float64, float64) {
	keep := map[uint32]bool{}
	for _, a := range q.Apps {
		keep[a] = true
	}
	byApp := map[uint32]float64{}
	var total float64
	for _, dt := range traces {
		acc := analysis.NewStreamAccumulator(dt.Device, opts)
		fed := false
		for i := range dt.Records {
			r := &dt.Records[i]
			if r.TS < q.From || r.TS >= q.To {
				continue
			}
			if len(keep) > 0 && r.Type != trace.RecScreen && !keep[r.App] {
				continue
			}
			acc.Feed(r)
			fed = true
		}
		if !fed {
			continue
		}
		res := acc.Finish()
		//repolint:ordered summation into a map keyed by app is order-insensitive per key
		for app, e := range res.Ledger.ByApp {
			byApp[app] += e
		}
		total += res.Ledger.Total
	}
	return byApp, total
}

// TestQueryMatchesRestrictedBatchRun is the acceptance-criterion test:
// per-app energy from QueryDir equals the restricted batch run to 1e-6,
// for the whole span, a sub-window, and an app-filtered sub-window.
func TestQueryMatchesRestrictedBatchRun(t *testing.T) {
	dir, traces := writeSegmentDir(t, 3, 3)
	opts := energy.DefaultOptions()
	eng := Engine{Opts: opts}

	span := traceSpan(traces)
	mid := span[0] + (span[1]-span[0])/2
	cases := []struct {
		name string
		q    Query
	}{
		{"full", Query{From: span[0], To: span[1] + 1}},
		{"subwindow", Query{From: span[0] + (span[1]-span[0])/4, To: mid}},
		{"appfiltered", Query{From: span[0] + (span[1]-span[0])/4, To: mid, Apps: []uint32{0, 2}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := eng.QueryDir(dir, c.q)
			if err != nil {
				t.Fatal(err)
			}
			wantByApp, wantTotal := restrictedByApp(traces, c.q, opts)
			if !relClose(res.TotalEnergyJ, wantTotal) {
				t.Fatalf("total energy %g, want %g", res.TotalEnergyJ, wantTotal)
			}
			if len(res.Apps) != len(wantByApp) {
				t.Fatalf("got %d app rows, want %d", len(res.Apps), len(wantByApp))
			}
			for _, row := range res.Apps {
				want, ok := wantByApp[row.App]
				if !ok {
					t.Fatalf("unexpected app %d in result", row.App)
				}
				if !relClose(row.EnergyJ, want) {
					t.Fatalf("app %d energy %g, want %g", row.App, row.EnergyJ, want)
				}
			}
		})
	}
}

// TestQueryWindowedMatchesPerWindowRuns holds every rollup window to the
// restricted-run standard individually.
func TestQueryWindowedMatchesPerWindowRuns(t *testing.T) {
	dir, traces := writeSegmentDir(t, 2, 2)
	opts := energy.DefaultOptions()
	eng := Engine{Opts: opts}
	span := traceSpan(traces)

	const window = trace.Timestamp(6 * 3600 * 1e6) // 6h windows
	q := Query{From: span[0], To: span[1] + 1, Window: window}
	res, err := eng.QueryDir(dir, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) < 4 {
		t.Fatalf("only %d windows over a 2-day span", len(res.Windows))
	}
	var sum float64
	for _, w := range res.Windows {
		wq := Query{From: trace.Timestamp(w.StartUS), To: trace.Timestamp(w.EndUS)}
		_, want := restrictedByApp(traces, wq, opts)
		if !relClose(w.EnergyJ, want) {
			t.Fatalf("window %d energy %g, want %g", w.StartUS, w.EnergyJ, want)
		}
		sum += w.EnergyJ
	}
	if !relClose(sum, res.TotalEnergyJ) {
		t.Fatalf("window sum %g != total %g", sum, res.TotalEnergyJ)
	}
	// Epoch alignment.
	for _, w := range res.Windows {
		if w.StartUS%int64(window) != 0 || w.EndUS-w.StartUS != int64(window) {
			t.Fatalf("window [%d,%d) is not epoch-aligned at width %d", w.StartUS, w.EndUS, int64(window))
		}
	}
}

// TestQueryPushdownSkipsBlocks asserts the scan counter the acceptance
// criterion names: a narrow window over a multi-day fleet must prune
// blocks via the seek index.
func TestQueryPushdownSkipsBlocks(t *testing.T) {
	dir, traces := writeSegmentDir(t, 2, 4)
	eng := Engine{Opts: energy.DefaultOptions()}
	span := traceSpan(traces)

	// One hour out of four days.
	from := span[0] + (span[1]-span[0])/2
	res, err := eng.QueryDir(dir, Query{From: from, To: from + 3600*1e6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scan.BlocksTotal < 8 {
		t.Fatalf("fixture too small for a pushdown assertion: %d blocks", res.Scan.BlocksTotal)
	}
	if res.Scan.BlocksSkipped == 0 {
		t.Fatalf("no blocks skipped: %+v", res.Scan)
	}
	if res.Scan.BlocksScanned+res.Scan.BlocksSkipped != res.Scan.BlocksTotal {
		t.Fatalf("block accounting broken: %+v", res.Scan)
	}
	// Sanity: the narrow window still found records.
	if res.Records == 0 {
		t.Fatal("narrow window matched no records")
	}
}

// TestQueryTopNAndNames: top-N truncation and best-effort app naming.
func TestQueryTopNAndNames(t *testing.T) {
	dir, traces := writeSegmentDir(t, 2, 2)
	eng := Engine{Opts: energy.DefaultOptions()}
	span := traceSpan(traces)

	full, err := eng.QueryDir(dir, Query{From: span[0], To: span[1] + 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Apps) < 3 {
		t.Skipf("fixture produced only %d apps", len(full.Apps))
	}
	top, err := eng.QueryDir(dir, Query{From: span[0], To: span[1] + 1, TopN: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Apps) != 2 {
		t.Fatalf("topn=2 returned %d rows", len(top.Apps))
	}
	for i, row := range top.Apps {
		if row.App != full.Apps[i].App || row.EnergyJ != full.Apps[i].EnergyJ {
			t.Fatalf("topn row %d diverges from full ranking", i)
		}
	}
	// Rows are energy-sorted descending.
	for i := 1; i < len(full.Apps); i++ {
		if full.Apps[i].EnergyJ > full.Apps[i-1].EnergyJ {
			t.Fatal("app rows not sorted by energy")
		}
	}
	// The whole-trace query sees the trace-start app-name records.
	named := 0
	for _, row := range full.Apps {
		if row.Name != "" {
			named++
		}
	}
	if named == 0 {
		t.Fatal("no app names resolved on a whole-trace query")
	}
}

// TestQueryTopNAfterRollup: a top-N answer is the first N rows of the
// whole answer, globally and in every window, whether rows come from
// segments alone, from segments and the retention rollup, or from a warm
// memo beside the rollup. Rows are cut once, after the rollup merge.
func TestQueryTopNAfterRollup(t *testing.T) {
	const topn = 5
	const day = trace.Timestamp(24 * 3600 * 1e6)
	plain, traces := writeSegmentDir(t, 3, 3)
	span := traceSpan(traces)
	retained, _ := writeSegmentDir(t, 3, 3)
	eng := Engine{Opts: energy.DefaultOptions()}
	if rep, err := eng.ApplyRetention(retained, span[0]+day*3/2, day); err != nil || rep.FilesRemoved == 0 {
		t.Fatalf("retention: %+v, %v", rep, err)
	}
	tests := []struct {
		name string
		dir  string
		memo bool
	}{
		{"no rollup", plain, false},
		{"rollup", retained, false},
		{"rollup, warm memo", retained, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := eng
			if tt.memo {
				e.Memo = NewMemo()
			}
			q := Query{From: span[0], To: span[1] + 1, Window: day}
			full := mustQuery(t, e, tt.dir, q)
			if full.Downsampled != (tt.dir == retained) || len(full.Apps) <= topn {
				t.Fatalf("fixture: downsampled %v, %d apps", full.Downsampled, len(full.Apps))
			}
			q.TopN = topn
			top := mustQuery(t, e, tt.dir, q)
			if !slices.Equal(top.Apps, full.Apps[:topn]) {
				t.Errorf("top %d apps %+v, want %+v", topn, top.Apps, full.Apps[:topn])
			}
			if len(top.Windows) != len(full.Windows) {
				t.Fatalf("top %d: %d windows, want %d", topn, len(top.Windows), len(full.Windows))
			}
			for i, w := range top.Windows {
				want := full.Windows[i].Apps
				want = want[:min(topn, len(want))]
				if w.StartUS != full.Windows[i].StartUS || !slices.Equal(w.Apps, want) {
					t.Errorf("window %d: top %d apps %+v, want %+v", w.StartUS, topn, w.Apps, want)
				}
			}
		})
	}
}

// TestQueryDeterministic: identical queries over identical bytes give
// identical JSON — the repolint-clean determinism the tentpole demands.
func TestQueryDeterministic(t *testing.T) {
	dir, traces := writeSegmentDir(t, 2, 1)
	eng := Engine{Opts: energy.DefaultOptions()}
	span := traceSpan(traces)
	q := Query{From: span[0], To: span[1] + 1, Window: trace.Timestamp(3600 * 1e6), TopN: 5}

	a, err := eng.QueryDir(dir, q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.QueryDir(dir, q)
	if err != nil {
		t.Fatal(err)
	}
	ja, jb := mustJSON(t, a), mustJSON(t, b)
	if ja != jb {
		t.Fatalf("query not deterministic:\n%s\nvs\n%s", ja, jb)
	}
}

// TestApplyRetention folds old segments into the rollup and keeps
// queries over the retained range answerable (downsampled).
func TestApplyRetention(t *testing.T) {
	dir, traces := writeSegmentDir(t, 2, 2)
	opts := energy.DefaultOptions()
	eng := Engine{Opts: opts}
	span := traceSpan(traces)
	const window = trace.Timestamp(6 * 3600 * 1e6)

	before, err := eng.QueryDir(dir, Query{From: span[0], To: span[1] + 1, Window: window})
	if err != nil {
		t.Fatal(err)
	}

	// Retain everything: every sealed segment is older than the cutoff.
	rep, err := eng.ApplyRetention(dir, span[1]+1, window)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FilesRemoved == 0 {
		t.Fatal("retention removed nothing")
	}
	if _, err := os.Stat(filepath.Join(dir, rollupName)); err != nil {
		t.Fatalf("rollup not written: %v", err)
	}

	after, err := eng.QueryDir(dir, Query{From: span[0], To: span[1] + 1, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	if !after.Downsampled {
		t.Fatal("post-retention result not marked downsampled")
	}
	if !relClose(after.TotalEnergyJ, before.TotalEnergyJ) {
		t.Fatalf("retained total %g, want %g", after.TotalEnergyJ, before.TotalEnergyJ)
	}
	if len(after.Windows) != len(before.Windows) {
		t.Fatalf("retained windows %d, want %d", len(after.Windows), len(before.Windows))
	}
	for i := range after.Windows {
		if !relClose(after.Windows[i].EnergyJ, before.Windows[i].EnergyJ) {
			t.Fatalf("retained window %d energy %g, want %g",
				after.Windows[i].StartUS, after.Windows[i].EnergyJ, before.Windows[i].EnergyJ)
		}
	}

	// The rollup's rows are finalized with the query's: by energy, cut to
	// its top-N, in window order.
	top, err := eng.QueryDir(dir, Query{From: span[0], To: span[1] + 1, Window: window, TopN: 2})
	if err != nil {
		t.Fatal(err)
	}
	finalized := func(rows []AppRow) bool { return len(rows) <= 2 && slices.IsSortedFunc(rows, byEnergy) }
	if !finalized(top.Apps) || len(top.Windows) != len(after.Windows) ||
		!slices.IsSortedFunc(top.Windows, func(a, b WindowRow) int { return cmp.Compare(a.StartUS, b.StartUS) }) {
		t.Fatalf("top-2 query over the rollup is not finalized: apps %+v, %d windows", top.Apps, len(top.Windows))
	}
	for _, w := range top.Windows {
		if !finalized(w.Apps) {
			t.Fatalf("top-2 query over the rollup: window %d rows %+v", w.StartUS, w.Apps)
		}
	}

	// A second pass is a no-op.
	rep2, err := eng.ApplyRetention(dir, span[1]+1, window)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.FilesRemoved != 0 {
		t.Fatalf("second retention pass removed %d files", rep2.FilesRemoved)
	}
}

// TestQueryDirEmptySegment: a zero-length segment file — one the segment
// store created a moment ago, its header not yet written, or one a crash
// left so — holds no record, so a directory holding one answers exactly
// as the directory without it, with or without a memo; a non-empty file
// that is not a segment still fails the query by name.
func TestQueryDirEmptySegment(t *testing.T) {
	dir, traces := writeSegmentDir(t, 2, 1)
	span := traceSpan(traces)
	queries := []Query{
		{From: span[0], To: span[1] + 1},
		{From: span[0], To: span[1] + 1, Window: 3600 * 1e6},
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = answer(t, mustQuery(t, Engine{Opts: energy.DefaultOptions()}, dir, q))
	}
	empty := filepath.Join(dir, "zz-000000.metr3")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	memo := Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()}
	for _, eng := range []Engine{{Opts: energy.DefaultOptions()}, memo, memo} {
		for i, q := range queries {
			res, err := eng.QueryDir(dir, q)
			if err != nil {
				t.Fatalf("memo %v, window %d, with an empty file: %v", eng.Memo != nil, q.Window, err)
			}
			if got := answer(t, res); got != want[i] {
				t.Fatalf("memo %v, window %d: an empty file changed the answer:\n%s\nwant\n%s", eng.Memo != nil, q.Window, got, want[i])
			}
		}
	}
	if err := os.WriteFile(empty, []byte("METR"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := memo.QueryDir(dir, queries[0]); err == nil || !strings.Contains(err.Error(), empty) {
		t.Fatalf("a 4-byte file that is no segment: %v", err)
	}
}

// TestQueryDirUnsealedSegment: an in-progress segment (no footer) is
// scanned via the streaming fallback and its records are included.
func TestQueryDirUnsealedSegment(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "live-0000.metr3"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewColumnWriter(f, "live-dev", 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := []trace.Record{
		{Type: trace.RecAppName, TS: 10, App: 1, AppName: "com.live"},
		{Type: trace.RecProcState, TS: 20, App: 1, State: trace.StateForeground},
		{Type: trace.RecScreen, TS: 30, ScreenOn: true},
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil { // visible, but unsealed
		t.Fatal(err)
	}
	res, err := Engine{Opts: energy.DefaultOptions()}.QueryDir(dir, Query{From: 0, To: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != int64(len(recs)) {
		t.Fatalf("unsealed segment: %d records, want %d", res.Records, len(recs))
	}
	if res.Devices != 1 {
		t.Fatalf("devices = %d", res.Devices)
	}
}

func traceSpan(traces []*trace.DeviceTrace) [2]trace.Timestamp {
	span := [2]trace.Timestamp{math.MaxInt64, math.MinInt64}
	for _, dt := range traces {
		for i := range dt.Records {
			ts := dt.Records[i].TS
			if ts < span[0] {
				span[0] = ts
			}
			if ts > span[1] {
				span[1] = ts
			}
		}
	}
	return span
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// mustParse is shared with the parse and fuzz tests.
func mustParse(t *testing.T, rawQuery string, now time.Time) Query {
	t.Helper()
	v, err := url.ParseQuery(rawQuery)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(v, now)
	if err != nil {
		t.Fatalf("ParseQuery(%q): %v", rawQuery, err)
	}
	return q
}
