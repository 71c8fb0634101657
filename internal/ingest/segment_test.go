package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
	"netenergy/internal/tsq"
)

// segRelTol matches the acceptance criterion: /query energy equals the
// equivalent batch run to one part in 1e6.
const segRelTol = 1e-6

func segClose(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= segRelTol*scale+1e-12
}

// TestQueryEndpointMatchesHeadline streams a fixed-seed fleet, lets every
// session FIN (sealing the segments), and checks GET /query over the whole
// span against the live headline: total_energy_j is the same attributed
// total computed two independent ways — once by the shard accumulators,
// once by the query engine re-reading the segment files.
func TestQueryEndpointMatchesHeadline(t *testing.T) {
	dir := t.TempDir()
	dts := synthgen.GenerateInMemory(synthgen.Small(3, 2))

	s := startServer(t, Config{
		AdminAddr: "127.0.0.1:0", Shards: 4, QueueDepth: 16, BatchSize: 32,
		SegmentDir: dir,
	})
	defer s.Shutdown(context.Background()) //nolint:errcheck

	var wg sync.WaitGroup
	for _, dt := range dts {
		wg.Add(1)
		go func(dt *trace.DeviceTrace) {
			defer wg.Done()
			streamTrace(t, addrOf(s), dt)
		}(dt)
	}
	wg.Wait()

	base := "http://" + s.AdminAddr().String()
	var head LiveHeadline
	if code := adminGet(t, base+"/headline", &head); code != http.StatusOK {
		t.Fatalf("/headline: %d", code)
	}

	// Query [0, span_end + 1 day), not [SpanStartUS, SpanEndUS+1): the
	// headline span tracks network activity, but devices emit
	// app-name/proc-state records outside it (preamble before the first
	// transfer, trailing state changes after the last), and every record
	// must still be counted.
	var res tsq.Result
	url := fmt.Sprintf("%s/query?from=0&to=%d", base, head.SpanEndUS+86_400_000_000)
	if code := adminGet(t, url, &res); code != http.StatusOK {
		t.Fatalf("/query: %d", code)
	}
	if !segClose(res.TotalEnergyJ, head.TotalEnergyJ) {
		t.Fatalf("query total %g, headline total %g", res.TotalEnergyJ, head.TotalEnergyJ)
	}
	if res.Records != head.Records {
		t.Fatalf("query saw %d records, headline %d", res.Records, head.Records)
	}
	if res.Devices != head.Devices {
		t.Fatalf("query saw %d devices, headline %d", res.Devices, head.Devices)
	}
	// Sessions FIN'd, so segments are sealed: the scan must have used the
	// seek index (blocks counted), and a narrow window must skip blocks.
	if res.Scan.BlocksTotal == 0 {
		t.Fatalf("whole-span query examined no indexed blocks: %+v", res.Scan)
	}
	mid := (head.SpanStartUS + head.SpanEndUS) / 2
	var narrow tsq.Result
	url = fmt.Sprintf("%s/query?from=%d&to=%d", base, mid, mid+3600_000_000)
	if code := adminGet(t, url, &narrow); code != http.StatusOK {
		t.Fatalf("narrow /query: %d", code)
	}
	if narrow.Scan.BlocksSkipped == 0 {
		t.Fatalf("narrow query skipped no blocks: %+v", narrow.Scan)
	}
	// The pushdown counter metric is exported.
	if got := metricValue(t, base, "ingest_query_blocks_skipped_total"); got == 0 {
		t.Fatal("ingest_query_blocks_skipped_total not incremented")
	}
}

// TestQueryTwiceAnswersTheSame: the second identical GET /query is served
// from the memo and, the scan block aside, is the first one's body — and
// the scan-everything engine's — both before and after another device's
// session lands and seals beside the memoised history.
func TestQueryTwiceAnswersTheSame(t *testing.T) {
	dir := t.TempDir()
	dts := synthgen.GenerateInMemory(synthgen.Small(3, 2))
	s := startServer(t, Config{
		AdminAddr: "127.0.0.1:0", Shards: 2, QueueDepth: 16, BatchSize: 32,
		SegmentDir: dir, SegmentMaxBytes: 64 << 10,
	})
	defer s.Shutdown(context.Background()) //nolint:errcheck
	base := "http://" + s.AdminAddr().String()
	for _, dt := range dts[:2] {
		streamTrace(t, addrOf(s), dt)
	}
	var head LiveHeadline
	if code := adminGet(t, base+"/headline", &head); code != http.StatusOK {
		t.Fatalf("/headline: %d", code)
	}
	const day = 86_400_000_000
	raw := fmt.Sprintf("from=%d&to=%d&window=hour&topn=5", head.SpanStartUS-day, head.SpanEndUS+2*day)
	vals, err := url.ParseQuery(raw)
	if err != nil {
		t.Fatal(err)
	}
	q, err := tsq.ParseQuery(vals, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	body := func(res *tsq.Result) string {
		c := *res
		c.Scan = tsq.ScanStats{}
		b, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	askTwice := func(when string) tsq.Result {
		t.Helper()
		var first, second tsq.Result
		for _, res := range []*tsq.Result{&first, &second} {
			if code := adminGet(t, base+"/query?"+raw, res); code != http.StatusOK {
				t.Fatalf("%s: /query: %d", when, code)
			}
		}
		if body(&first) != body(&second) {
			t.Fatalf("%s: second answer differs:\n%s\nfirst was\n%s", when, body(&second), body(&first))
		}
		if second.Scan.WindowsMemoised == 0 || second.Scan.RecordsScanned != 0 {
			t.Fatalf("%s: second answer over sealed history was scanned: %+v", when, second.Scan)
		}
		offline, err := tsq.Engine{Opts: s.cfg.Opts}.QueryDir(dir, q)
		if err != nil {
			t.Fatal(err)
		}
		if body(offline) != body(&second) {
			t.Fatalf("%s: memoised answer differs from a scan:\n%s\nscan says\n%s", when, body(&second), body(offline))
		}
		return second
	}
	before := askTwice("two devices")
	if got := metricValue(t, base, "ingest_query_windows_memoised_total"); got != float64(before.Scan.WindowsMemoised) {
		t.Fatalf("ingest_query_windows_memoised_total = %g after serving %d", got, before.Scan.WindowsMemoised)
	}
	if got := metricValue(t, base, "ingest_query_memo_bytes"); got == 0 {
		t.Fatal("ingest_query_memo_bytes is 0 with windows memoised")
	}
	if got := metricValue(t, base, "ingest_query_memo_block_bytes"); got == 0 || got >= metricValue(t, base, "ingest_query_memo_bytes") {
		t.Fatalf("ingest_query_memo_block_bytes = %g after a wide query kept blocks beside its windows", got)
	}
	if got := metricValue(t, base, "ingest_query_memo_index_bytes"); got == 0 || got >= metricValue(t, base, "ingest_query_memo_bytes") {
		t.Fatalf("ingest_query_memo_index_bytes = %g after a wide query kept indexes beside its windows", got)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"ingest_query_memo_windows_evicted_total", "ingest_query_memo_indexes_evicted_total", "ingest_query_memo_blocks_evicted_total"} {
		if !strings.Contains(string(exposition), "\n# TYPE "+k+" counter\n"+k+" 0\n") {
			t.Fatalf("/metrics does not show counter %s at 0 inside the memo's budget", k)
		}
	}
	if got := metricValue(t, base, "ingest_query_windows_computed_total"); got == 0 || got < float64(before.Scan.WindowsMemoised) {
		t.Fatalf("ingest_query_windows_computed_total = %g, %d windows memoised since", got, before.Scan.WindowsMemoised)
	}
	// The wide first query decoded every sealed block whole, so an
	// unwindowed query over the same range — which no window memo serves —
	// is trimmed from the blocks it kept, opening no file.
	unwindowed := fmt.Sprintf("from=%d&to=%d", head.SpanStartUS-day, head.SpanEndUS+2*day)
	var plain tsq.Result
	if code := adminGet(t, base+"/query?"+unwindowed, &plain); code != http.StatusOK {
		t.Fatalf("unwindowed /query: %d", code)
	}
	if sc := plain.Scan; sc.BlocksCached == 0 || sc.BlocksCached != sc.BlocksScanned || sc.BytesDecompressed != 0 || sc.Files != 0 {
		t.Fatalf("unwindowed query after a wide one: %+v, want every block from the memo", sc)
	}
	if got := metricValue(t, base, "ingest_query_blocks_cached_total"); got != float64(plain.Scan.BlocksCached) {
		t.Fatalf("ingest_query_blocks_cached_total = %g after serving %d", got, plain.Scan.BlocksCached)
	}

	streamTrace(t, addrOf(s), dts[2])
	after := askTwice("three devices")
	if want := before.Records + int64(len(dts[2].Records)); after.Records != want || after.Devices != 3 {
		t.Fatalf("after the third device: %d records of %d devices, want %d of 3", after.Records, after.Devices, want)
	}
}

// TestQueryLiveTail: records from sessions still open (no FIN) are visible
// to /query via the synced, unsealed segment tail.
func TestQueryLiveTail(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, Config{
		AdminAddr: "127.0.0.1:0", Shards: 2, QueueDepth: 16, BatchSize: 4,
		SegmentDir: dir,
	})
	defer s.Shutdown(context.Background()) //nolint:errcheck

	c, err := Dial(s.Addr().String(), "live-dev", 0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	recs := []trace.Record{
		{Type: trace.RecAppName, TS: 10, App: 1, AppName: "com.live"},
		{Type: trace.RecProcState, TS: 20, App: 1, State: trace.StateForeground},
		{Type: trace.RecScreen, TS: 30, ScreenOn: true},
		{Type: trace.RecScreen, TS: 40, ScreenOn: false},
		{Type: trace.RecProcState, TS: 50, App: 1, State: trace.StateBackground},
	}
	for i := range recs {
		if err := c.Send(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// The records travel through the shard queue asynchronously; poll the
	// accepted-record counter rather than sleeping blind.
	deadline := time.Now().Add(5 * time.Second)
	for s.counters.records.Load() < int64(len(recs)) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d records applied", s.counters.records.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}

	base := "http://" + s.AdminAddr().String()
	var res tsq.Result
	if code := adminGet(t, base+"/query?from=0&to=1000", &res); code != http.StatusOK {
		t.Fatalf("/query: %d", code)
	}
	if res.Records != int64(len(recs)) {
		t.Fatalf("live tail query saw %d records, want %d", res.Records, len(recs))
	}
	// No network records were sent, so no energy was attributed and the
	// app table is rightly empty — but the device itself must be visible.
	if res.Devices != 1 {
		t.Fatalf("live tail query saw %d devices, want 1", res.Devices)
	}
	if len(res.Apps) != 0 {
		t.Fatalf("no-traffic live tail grew app rows: %+v", res.Apps)
	}
}

// TestQueryEndpointErrors: disabled store, bad parameters.
func TestQueryEndpointErrors(t *testing.T) {
	s := startServer(t, Config{AdminAddr: "127.0.0.1:0", Shards: 1})
	defer s.Shutdown(context.Background()) //nolint:errcheck
	base := "http://" + s.AdminAddr().String()
	if code := adminGet(t, base+"/query?from=0&to=10", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("query without segment dir: %d, want 503", code)
	}

	dir := t.TempDir()
	s2 := startServer(t, Config{AdminAddr: "127.0.0.1:0", Shards: 1, SegmentDir: dir})
	defer s2.Shutdown(context.Background()) //nolint:errcheck
	base2 := "http://" + s2.AdminAddr().String()
	for _, raw := range []string{"from=20&to=10", "frm=0", "window=1us&from=0&to=10"} {
		if code := adminGet(t, base2+"/query?"+raw, nil); code != http.StatusBadRequest {
			t.Fatalf("query %q: %d, want 400", raw, code)
		}
	}
	// A well-formed query over an empty store succeeds with zero rows.
	var res tsq.Result
	if code := adminGet(t, base2+"/query?from=0&to=10", &res); code != http.StatusOK {
		t.Fatalf("empty-store query: %d", code)
	}
	if res.Records != 0 || len(res.Apps) != 0 {
		t.Fatalf("empty-store query returned rows: %+v", res)
	}
}

// TestSegmentRollAndReseed: a tiny SegmentMaxBytes forces mid-stream
// rolls; a restarted server continues file numbering instead of
// clobbering sealed history.
func TestSegmentRollAndReseed(t *testing.T) {
	dir := t.TempDir()
	dt := synthgen.GenerateDevice(synthgen.Small(1, 2), 0)

	s := startServer(t, Config{
		AdminAddr: "127.0.0.1:0", Shards: 1, BatchSize: 64,
		SegmentDir: dir, SegmentMaxBytes: 32 << 10,
	})
	streamTrace(t, s.Addr().String(), dt)
	if _, err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	first := segmentFiles(t, dir)
	if len(first) < 2 {
		t.Fatalf("expected multiple rolled segments, got %v", first)
	}
	// All sealed (drain seals): each file must carry a footer index.
	for _, name := range first {
		path := filepath.Join(dir, name)
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		st, _ := f.Stat()
		_, _, _, ok, err := trace.ReadBlockIndex(f, st.Size())
		f.Close()
		if err != nil || !ok {
			t.Fatalf("%s not sealed (ok=%v err=%v)", name, ok, err)
		}
	}

	// Restart into the same dir and stream a second device: numbering must
	// extend, not overwrite.
	s2 := startServer(t, Config{
		AdminAddr: "127.0.0.1:0", Shards: 1, BatchSize: 64,
		SegmentDir: dir, SegmentMaxBytes: 32 << 10,
	})
	dt2 := synthgen.GenerateDevice(synthgen.Small(2, 2), 1)
	streamTrace(t, s2.Addr().String(), dt2)
	if _, err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	second := segmentFiles(t, dir)
	if len(second) <= len(first) {
		t.Fatalf("restart produced no new segments: %v -> %v", first, second)
	}
	for _, name := range first {
		found := false
		for _, n := range second {
			if n == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("restart lost sealed segment %s", name)
		}
	}
}

func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), segmentExt) {
			names = append(names, ent.Name())
		}
	}
	return names
}

func addrOf(s *Server) string { return s.Addr().String() }

func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%g", &v) //nolint:errcheck
			return v
		}
	}
	return 0
}

// TestSanitizeSegmentName: injective, filesystem-safe, no dotfiles.
func TestSanitizeSegmentName(t *testing.T) {
	cases := map[string]string{
		"u01":        "u01",
		"dev.a":      "dev.a",
		".hidden":    "%2Ehidden",
		"a/b":        "a%2Fb",
		"a b":        "a%20b",
		"per%cent":   "per%25cent",
		"UPPER_low-": "UPPER_low-",
	}
	for in, want := range cases {
		if got := sanitizeSegmentName(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
	long := strings.Repeat("x", 4096)
	s := sanitizeSegmentName(long)
	if len(s) > 128 || s == sanitizeSegmentName(long+"y") {
		t.Fatalf("long-name fallback broken: %q", s)
	}
}

// TestSegmentStoreMatchesRecordAtATime: whatever the batching, appendBatch
// leaves the files — byte for byte — and the counts that appending the
// same records one at a time through ColumnWriter.Write leaves, with the
// drop and roll decision taken after every record. The model below is that
// record-at-a-time store, files in memory. Device clocks step backwards,
// Syncs land between batches (so a Sync's cut can be what takes a file
// over its limit), and one limit is smaller than the file header.
func TestSegmentStoreMatchesRecordAtATime(t *testing.T) {
	dt := synthgen.GenerateDevice(synthgen.Small(1, 2), 0)
	recs := append([]trace.Record(nil), dt.Records[:6000]...)
	backwards := map[int]bool{}
	for i := 501; i < len(recs); i += 1000 {
		recs[i].TS = recs[i-1].TS - 10_000_000
		backwards[i] = true
	}
	recs[2502].TS, backwards[2502] = recs[2501].TS-1, true // two in a row

	for _, tc := range []struct {
		maxBytes int64
		n        int
	}{{1, 300}, {40 << 10, len(recs)}, {1 << 30, len(recs)}} {
		recs := recs[:tc.n]
		for _, chunk := range []int{1, 7, 128, len(recs)} {
			// syncBefore reports whether a Sync lands ahead of record i. Not
			// ahead of a backwards record: with nothing unsynced the drop gate
			// is off and the writer refuses it, which disables the device.
			syncBefore := func(i int) bool { return i > 0 && i%(13*chunk) == 0 && !backwards[i] }

			var want [][]byte
			var wantKept, wantDropped int64
			var buf *bytes.Buffer
			var w *trace.ColumnWriter
			var last trace.Timestamp
			dirty := false
			for i := range recs {
				if syncBefore(i) && w != nil && dirty {
					if err := w.Sync(); err != nil {
						t.Fatal(err)
					}
					dirty = false
				}
				if w == nil {
					buf = new(bytes.Buffer)
					w, _ = trace.NewColumnWriter(buf, dt.Device, recs[i].TS)
				}
				if dirty && recs[i].TS < last {
					wantDropped++
					continue
				}
				if err := w.Write(&recs[i]); err != nil {
					t.Fatal(err)
				}
				last, dirty = recs[i].TS, true
				wantKept++
				if int64(buf.Len()) >= tc.maxBytes {
					if err := w.Flush(); err != nil {
						t.Fatal(err)
					}
					want, w = append(want, buf.Bytes()), nil
				}
			}
			if w != nil {
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				want = append(want, buf.Bytes())
			}

			dir := t.TempDir()
			c := newCounters()
			st := newSegmentStore(dir, tc.maxBytes, nil, c)
			var b trace.RecordBatch
			for lo := 0; lo < len(recs); lo += chunk {
				if syncBefore(lo) {
					if err := st.sync(); err != nil {
						t.Fatal(err)
					}
				}
				b.Reset()
				for i := lo; i < lo+chunk && i < len(recs); i++ {
					b.Append(&recs[i])
				}
				st.appendBatch(dt.Device, &b)
			}
			st.closeAll()

			name := fmt.Sprintf("maxBytes=%d chunk=%d", tc.maxBytes, chunk)
			if k, d := c.segRecords.Load(), c.segRecordsDropped.Load(); k != wantKept || d != wantDropped || c.segErrors.Load() != 0 {
				t.Fatalf("%s: kept %d dropped %d errors %d, want %d, %d, 0", name, k, d, c.segErrors.Load(), wantKept, wantDropped)
			}
			files := segmentFiles(t, dir)
			if len(files) != len(want) {
				t.Fatalf("%s: %d segment files, want %d", name, len(files), len(want))
			}
			for i, f := range files {
				got, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want[i]) {
					t.Fatalf("%s: %s differs from the record-at-a-time file (%d vs %d bytes)", name, f, len(got), len(want[i]))
				}
			}
		}
	}
}
