// Golden end-to-end harness: a fixed-seed fleet is evaluated through BOTH
// pipelines — the batch Study and the streamed ingest server — and every
// headline number, figure series and what-if row is compared against the
// checked-in testdata/golden.json. Any unintended change to generation,
// energy attribution, analysis or the ingest path shows up as a diff here.
//
// Regenerate after an intended change with:
//
//	go test -run TestGolden -update
//
// Integer quantities must match exactly. Floats are compared with a 1e-9
// relative tolerance: the streamed pipeline merges per-device results in
// shard-map iteration order, so the final float sums differ across runs in
// the last bits (addition is not associative), and the batch pipeline is
// kept to the same tolerance for symmetry.
package netenergy_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"netenergy/internal/core"
	"netenergy/internal/energy"
	"netenergy/internal/ingest"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
	"netenergy/internal/tsq"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json with freshly computed values")

const goldenPath = "testdata/golden.json"

// goldenUsers/goldenDays size the fixed fleet: big enough that every
// artifact is non-degenerate (Chrome transitions exist, Table 2 apps have
// bg-only days), small enough that the test runs in a few seconds.
const (
	goldenUsers = 5
	goldenDays  = 10
)

type goldenTable2Row struct {
	Label                string  `json:"label"`
	Users                int     `json:"users"`
	PctBgOnlyDays        float64 `json:"pct_bg_only_days"`
	MaxConsecutiveBgDays int     `json:"max_consecutive_bg_days"`
	AvgReductionPct      float64 `json:"avg_energy_reduction_pct"`
	FleetReductionPct    float64 `json:"fleet_energy_reduction_pct"`
}

type goldenBatch struct {
	TotalEnergyJ        float64 `json:"total_energy_j"`
	BackgroundFraction  float64 `json:"background_fraction"`
	PerceptibleFraction float64 `json:"perceptible_fraction"`
	ServiceFraction     float64 `json:"service_fraction"`
	FirstMinuteFraction float64 `json:"first_minute_fraction"`

	Fig4Found   bool      `json:"fig4_found"`
	Fig4Offsets []float64 `json:"fig4_offsets"`
	Fig4Bytes   []float64 `json:"fig4_bytes"`

	Fig5Transitions int     `json:"fig5_transitions"`
	Fig5P50         float64 `json:"fig5_p50"`
	Fig5P90         float64 `json:"fig5_p90"`
	Fig5P99         float64 `json:"fig5_p99"`

	Fig6FirstMinute  float64   `json:"fig6_first_minute"`
	Fig6Spike5m      float64   `json:"fig6_spike_5m"`
	Fig6Spike10m     float64   `json:"fig6_spike_10m"`
	Fig6TotalBgBytes float64   `json:"fig6_total_bg_bytes"`
	Fig6Bytes        []float64 `json:"fig6_bytes"`

	Table2 []goldenTable2Row `json:"table2"`
}

type goldenStream struct {
	Devices             int     `json:"devices"`
	Records             int64   `json:"records"`
	TotalEnergyJ        float64 `json:"total_energy_j"`
	BackgroundFraction  float64 `json:"background_fraction"`
	FirstMinuteFraction float64 `json:"first_minute_fraction"`
	Fig6FirstMinute     float64 `json:"fig6_first_minute"`
	Fig6Spike5m         float64 `json:"fig6_spike_5m"`
	Fig6Spike10m        float64 `json:"fig6_spike_10m"`
	ScreenOffByteShare  float64 `json:"screen_off_byte_share"`
}

// goldenQuery pins the tsq engine's answer over the same fixed-seed
// fleet written to METR-3 segment files: whole-span totals, the top-app
// ranking, and a narrow sub-window that must exercise block pushdown.
type goldenQuery struct {
	Records      int64        `json:"records"`
	Devices      int          `json:"devices"`
	TotalEnergyJ float64      `json:"total_energy_j"`
	TotalBytes   int64        `json:"total_bytes"`
	TopApps      []tsq.AppRow `json:"top_apps"`
	HourWindows  int          `json:"hour_windows"`
	SubRecords   int64        `json:"sub_records"`
	SubEnergyJ   float64      `json:"sub_energy_j"`
}

type goldenFile struct {
	Users  int          `json:"users"`
	Days   int          `json:"days"`
	Seed   uint64       `json:"seed"`
	Batch  goldenBatch  `json:"batch"`
	Stream goldenStream `json:"stream"`
	Query  goldenQuery  `json:"query"`
}

func computeGoldenBatch(t *testing.T, cfg synthgen.Config) goldenBatch {
	t.Helper()
	study, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := study.Headline()
	var g goldenBatch
	g.TotalEnergyJ = h.TotalEnergyJ
	g.BackgroundFraction = h.BackgroundFraction
	g.PerceptibleFraction = h.PerceptibleFraction
	g.ServiceFraction = h.ServiceFraction
	g.FirstMinuteFraction = h.FirstMinute.Fraction

	if tl, ok := study.Fig4(); ok {
		g.Fig4Found = true
		g.Fig4Offsets = tl.Offsets
		g.Fig4Bytes = tl.Bytes
	}
	f5 := study.Fig5()
	g.Fig5Transitions = len(f5.Durations)
	g.Fig5P50 = f5.CDF.Quantile(0.50)
	g.Fig5P90 = f5.CDF.Quantile(0.90)
	g.Fig5P99 = f5.CDF.Quantile(0.99)

	f6 := study.Fig6()
	g.Fig6FirstMinute = f6.FirstMinute
	g.Fig6Spike5m = f6.Spike5m
	g.Fig6Spike10m = f6.Spike10m
	g.Fig6TotalBgBytes = f6.TotalBgBytes
	g.Fig6Bytes = f6.Bytes

	for _, row := range study.Table2(3) {
		g.Table2 = append(g.Table2, goldenTable2Row{
			Label:                row.Label,
			Users:                row.Users,
			PctBgOnlyDays:        row.PctBgOnlyDays,
			MaxConsecutiveBgDays: row.MaxConsecutiveBgDays,
			AvgReductionPct:      row.AvgEnergyReductionPct,
			FleetReductionPct:    row.FleetEnergyReductionPct,
		})
	}
	return g
}

// computeGoldenStream delivers the same fleet through a real in-process
// ingest server — TCP, framing, sharding, drain — and evaluates the live
// headline over the drained result.
func computeGoldenStream(t *testing.T, cfg synthgen.Config) goldenStream {
	t.Helper()
	srv := ingest.NewServer(ingest.Config{Addr: "127.0.0.1:0", Shards: 4, QueueDepth: 64, BatchSize: 64})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	fleet := synthgen.GenerateInMemory(cfg)
	var want int64
	var wg sync.WaitGroup
	for _, dt := range fleet {
		want += int64(len(dt.Records))
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := ingest.StreamTrace(ingest.SessionConfig{
				Addr:   srv.Addr().String(),
				Device: dt.Device,
				Start:  dt.Start,
			}, dt.Records)
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := srv.Shutdown(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st := srv.Stats(false)
	if st.Records != want {
		t.Fatalf("stream accepted %d records, sent %d", st.Records, want)
	}
	h := ingest.HeadlineOf(res, st.Devices, st.Records)
	return goldenStream{
		Devices:             h.Devices,
		Records:             h.Records,
		TotalEnergyJ:        h.TotalEnergyJ,
		BackgroundFraction:  h.BackgroundFraction,
		FirstMinuteFraction: h.FirstMinuteFraction,
		Fig6FirstMinute:     h.Fig6FirstMinute,
		Fig6Spike5m:         h.Fig6Spike5m,
		Fig6Spike10m:        h.Fig6Spike10m,
		ScreenOffByteShare:  h.ScreenOffByteShare,
	}
}

// computeGoldenQuery writes the fleet to per-device METR-3 segment files
// and runs the tsq engine over them offline — the same code path the
// ingestd /query endpoint and the tsq CLI use.
func computeGoldenQuery(t *testing.T, cfg synthgen.Config) goldenQuery {
	t.Helper()
	mem := synthgen.GenerateInMemory(cfg)
	dir := t.TempDir()
	minTS := trace.Timestamp(math.MaxInt64)
	var maxTS trace.Timestamp
	for _, dt := range mem {
		for i := range dt.Records {
			if dt.Records[i].TS < minTS {
				minTS = dt.Records[i].TS
			}
			if dt.Records[i].TS > maxTS {
				maxTS = dt.Records[i].TS
			}
		}
		f, err := os.Create(filepath.Join(dir, dt.Device+"-000000.metr3"))
		if err != nil {
			t.Fatal(err)
		}
		w, err := trace.NewColumnWriter(f, dt.Device, dt.Start)
		if err != nil {
			t.Fatal(err)
		}
		for i := range dt.Records {
			if err := w.Write(&dt.Records[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	eng := tsq.Engine{Opts: energy.DefaultOptions()}
	hour := trace.Timestamp(time.Hour / time.Microsecond)
	// Totals come from the unwindowed query: windowed results restart the
	// radio accountant at each window edge (per-window restricted-run
	// semantics), so their sum differs from the whole-trace total by the
	// energy of radio tails cut at window boundaries.
	full, err := eng.QueryDir(dir, tsq.Query{From: minTS, To: maxTS + 1, TopN: 5})
	if err != nil {
		t.Fatal(err)
	}
	win, err := eng.QueryDir(dir, tsq.Query{From: minTS, To: maxTS + 1, Window: hour})
	if err != nil {
		t.Fatal(err)
	}
	// A six-hour slice from the middle of the span must prune blocks via
	// the per-block firstTS/lastTS seek index.
	span := maxTS + 1 - minTS
	sub, err := eng.QueryDir(dir, tsq.Query{From: minTS + span/4, To: minTS + span/4 + 6*hour})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Scan.BlocksSkipped == 0 {
		t.Errorf("sub-window query skipped no blocks: %+v", sub.Scan)
	}
	return goldenQuery{
		Records:      full.Records,
		Devices:      full.Devices,
		TotalEnergyJ: full.TotalEnergyJ,
		TotalBytes:   full.TotalBytes,
		TopApps:      full.Apps,
		HourWindows:  len(win.Windows),
		SubRecords:   sub.Records,
		SubEnergyJ:   sub.TotalEnergyJ,
	}
}

func TestGolden(t *testing.T) {
	cfg := synthgen.Small(goldenUsers, goldenDays)
	got := goldenFile{
		Users:  goldenUsers,
		Days:   goldenDays,
		Seed:   cfg.Seed,
		Batch:  computeGoldenBatch(t, cfg),
		Stream: computeGoldenStream(t, cfg),
		Query:  computeGoldenQuery(t, cfg),
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGolden -update` to create it)", err)
	}
	var want goldenFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if want.Users != got.Users || want.Days != got.Days || want.Seed != got.Seed {
		t.Fatalf("golden fleet config drifted: file has %d users x %d days seed %d, test uses %d x %d seed %d — regenerate with -update",
			want.Users, want.Days, want.Seed, got.Users, got.Days, got.Seed)
	}

	cmp := newGoldenCmp(t)
	b, wb := got.Batch, want.Batch
	cmp.float("batch.total_energy_j", b.TotalEnergyJ, wb.TotalEnergyJ)
	cmp.float("batch.background_fraction", b.BackgroundFraction, wb.BackgroundFraction)
	cmp.float("batch.perceptible_fraction", b.PerceptibleFraction, wb.PerceptibleFraction)
	cmp.float("batch.service_fraction", b.ServiceFraction, wb.ServiceFraction)
	cmp.float("batch.first_minute_fraction", b.FirstMinuteFraction, wb.FirstMinuteFraction)
	if b.Fig4Found != wb.Fig4Found {
		t.Errorf("fig4 found = %v, golden %v", b.Fig4Found, wb.Fig4Found)
	}
	cmp.floats("batch.fig4_offsets", b.Fig4Offsets, wb.Fig4Offsets)
	cmp.floats("batch.fig4_bytes", b.Fig4Bytes, wb.Fig4Bytes)
	cmp.ints("batch.fig5_transitions", int64(b.Fig5Transitions), int64(wb.Fig5Transitions))
	cmp.float("batch.fig5_p50", b.Fig5P50, wb.Fig5P50)
	cmp.float("batch.fig5_p90", b.Fig5P90, wb.Fig5P90)
	cmp.float("batch.fig5_p99", b.Fig5P99, wb.Fig5P99)
	cmp.float("batch.fig6_first_minute", b.Fig6FirstMinute, wb.Fig6FirstMinute)
	cmp.float("batch.fig6_spike_5m", b.Fig6Spike5m, wb.Fig6Spike5m)
	cmp.float("batch.fig6_spike_10m", b.Fig6Spike10m, wb.Fig6Spike10m)
	cmp.float("batch.fig6_total_bg_bytes", b.Fig6TotalBgBytes, wb.Fig6TotalBgBytes)
	cmp.floats("batch.fig6_bytes", b.Fig6Bytes, wb.Fig6Bytes)
	if len(b.Table2) != len(wb.Table2) {
		t.Fatalf("table2 rows = %d, golden %d", len(b.Table2), len(wb.Table2))
	}
	for i := range b.Table2 {
		r, wr := b.Table2[i], wb.Table2[i]
		pfx := fmt.Sprintf("batch.table2[%s]", wr.Label)
		if r.Label != wr.Label {
			t.Errorf("%s: label %q", pfx, r.Label)
		}
		cmp.ints(pfx+".users", int64(r.Users), int64(wr.Users))
		cmp.ints(pfx+".max_consecutive", int64(r.MaxConsecutiveBgDays), int64(wr.MaxConsecutiveBgDays))
		cmp.float(pfx+".pct_bg_only_days", r.PctBgOnlyDays, wr.PctBgOnlyDays)
		cmp.float(pfx+".avg_reduction", r.AvgReductionPct, wr.AvgReductionPct)
		cmp.float(pfx+".fleet_reduction", r.FleetReductionPct, wr.FleetReductionPct)
	}

	s, ws := got.Stream, want.Stream
	cmp.ints("stream.devices", int64(s.Devices), int64(ws.Devices))
	cmp.ints("stream.records", s.Records, ws.Records)
	cmp.float("stream.total_energy_j", s.TotalEnergyJ, ws.TotalEnergyJ)
	cmp.float("stream.background_fraction", s.BackgroundFraction, ws.BackgroundFraction)
	cmp.float("stream.first_minute_fraction", s.FirstMinuteFraction, ws.FirstMinuteFraction)
	cmp.float("stream.fig6_first_minute", s.Fig6FirstMinute, ws.Fig6FirstMinute)
	cmp.float("stream.fig6_spike_5m", s.Fig6Spike5m, ws.Fig6Spike5m)
	cmp.float("stream.fig6_spike_10m", s.Fig6Spike10m, ws.Fig6Spike10m)
	cmp.float("stream.screen_off_byte_share", s.ScreenOffByteShare, ws.ScreenOffByteShare)

	qr, wq := got.Query, want.Query
	cmp.ints("query.records", qr.Records, wq.Records)
	cmp.ints("query.devices", int64(qr.Devices), int64(wq.Devices))
	cmp.float("query.total_energy_j", qr.TotalEnergyJ, wq.TotalEnergyJ)
	cmp.ints("query.total_bytes", qr.TotalBytes, wq.TotalBytes)
	cmp.ints("query.hour_windows", int64(qr.HourWindows), int64(wq.HourWindows))
	cmp.ints("query.sub_records", qr.SubRecords, wq.SubRecords)
	cmp.float("query.sub_energy_j", qr.SubEnergyJ, wq.SubEnergyJ)
	if len(qr.TopApps) != len(wq.TopApps) {
		t.Fatalf("query.top_apps rows = %d, golden %d", len(qr.TopApps), len(wq.TopApps))
	}
	for i := range qr.TopApps {
		pfx := fmt.Sprintf("query.top_apps[%d]", i)
		cmp.ints(pfx+".app", int64(qr.TopApps[i].App), int64(wq.TopApps[i].App))
		if qr.TopApps[i].Name != wq.TopApps[i].Name {
			t.Errorf("%s.name = %q, golden %q", pfx, qr.TopApps[i].Name, wq.TopApps[i].Name)
		}
		cmp.float(pfx+".energy_j", qr.TopApps[i].EnergyJ, wq.TopApps[i].EnergyJ)
		cmp.ints(pfx+".bytes", qr.TopApps[i].Bytes, wq.TopApps[i].Bytes)
	}

	// The pipelines must agree with each other, not just with the file:
	// batch Study, streamed ingest, and the segment query engine all
	// attribute the same total over the same fleet.
	cmp.float("batch-vs-stream total_energy_j", got.Batch.TotalEnergyJ, got.Stream.TotalEnergyJ)
	cmp.float("batch-vs-stream background_fraction", got.Batch.BackgroundFraction, got.Stream.BackgroundFraction)
	cmp.float("query-vs-batch total_energy_j", got.Query.TotalEnergyJ, got.Batch.TotalEnergyJ)
}

// TestGoldenMETR3 routes the same fixed-seed fleet through the columnar
// METR-3 container on disk: every record must survive the round trip
// bit-identically, and a Study opened with block-parallel columnar
// decoding must reproduce the golden batch headline — the end-to-end
// contract the row formats already carry, now pinned to the column codec.
func TestGoldenMETR3(t *testing.T) {
	cfg := synthgen.Small(goldenUsers, goldenDays)
	dir := t.TempDir()
	fleet, err := synthgen.GenerateFleet(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	mem := synthgen.GenerateInMemory(cfg)
	if len(fleet.Paths) != len(mem) {
		t.Fatalf("fleet has %d files, generated %d devices", len(fleet.Paths), len(mem))
	}
	for i, path := range fleet.Paths {
		if f, err := trace.DetectFileFormat(path); err != nil || f != trace.FormatColumnar {
			t.Fatalf("%s: format %v, err %v", path, f, err)
		}
		got, err := trace.ReadFileParallel(path, 8)
		if err != nil {
			t.Fatal(err)
		}
		want := mem[i]
		if got.Device != want.Device || len(got.Records) != len(want.Records) {
			t.Fatalf("%s: device %q records %d, want %q %d",
				path, got.Device, len(got.Records), want.Device, len(want.Records))
		}
		for j := range want.Records {
			a, b := &want.Records[j], &got.Records[j]
			if a.Type != b.Type || a.TS != b.TS || a.App != b.App || a.Dir != b.Dir ||
				a.Net != b.Net || a.State != b.State || a.ScreenOn != b.ScreenOn ||
				a.AppName != b.AppName || !bytes.Equal(a.Payload, b.Payload) {
				t.Fatalf("%s: record %d differs after METR-3 round trip", path, j)
			}
		}
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Skipf("no golden file: %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	study, err := core.OpenParallel(dir, 16) // 16 > 5 files: intra-file block parallelism
	if err != nil {
		t.Fatal(err)
	}
	h := study.Headline()
	cmp := newGoldenCmp(t)
	cmp.float("metr3.total_energy_j", h.TotalEnergyJ, want.Batch.TotalEnergyJ)
	cmp.float("metr3.background_fraction", h.BackgroundFraction, want.Batch.BackgroundFraction)
	cmp.float("metr3.first_minute_fraction", h.FirstMinute.Fraction, want.Batch.FirstMinuteFraction)
}

// goldenCmp compares quantities with a relative float tolerance and exact
// integers, reporting every mismatch by name.
type goldenCmp struct{ t *testing.T }

func newGoldenCmp(t *testing.T) goldenCmp { return goldenCmp{t} }

const goldenRelTol = 1e-9

func (c goldenCmp) float(name string, got, want float64) {
	c.t.Helper()
	if got == want {
		return
	}
	diff := math.Abs(got - want)
	scale := math.Max(math.Abs(got), math.Abs(want))
	if diff > goldenRelTol*scale+1e-12 {
		c.t.Errorf("%s = %v, golden %v (diff %g)", name, got, want, diff)
	}
}

func (c goldenCmp) floats(name string, got, want []float64) {
	c.t.Helper()
	if len(got) != len(want) {
		c.t.Errorf("%s: length %d, golden %d", name, len(got), len(want))
		return
	}
	for i := range got {
		c.float(fmt.Sprintf("%s[%d]", name, i), got[i], want[i])
	}
}

func (c goldenCmp) ints(name string, got, want int64) {
	c.t.Helper()
	if got != want {
		c.t.Errorf("%s = %d, golden %d", name, got, want)
	}
}
