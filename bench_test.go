// Benchmark harness: one benchmark per paper artifact (Figures 1-6, Tables
// 1-2, headline statistics) plus the ablations DESIGN.md calls out. Each
// benchmark regenerates its artifact on a fixed-seed fleet and reports the
// key measured quantity via b.ReportMetric, so `go test -bench=.` doubles
// as the reproduction run.
//
// The fleet is generated once and shared; per-iteration work is the
// analysis itself (the interesting cost), not the synthesis.
package netenergy_test

import (
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"netenergy/internal/analysis"
	"netenergy/internal/appmodel"
	"netenergy/internal/core"
	"netenergy/internal/energy"
	"netenergy/internal/radio"
	"netenergy/internal/rng"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
	"netenergy/internal/whatif"
)

var (
	benchOnce  sync.Once
	benchStudy *core.Study
)

// benchFleet returns a shared 8-user, 21-day study (seeded, deterministic).
func benchFleet(b *testing.B) *core.Study {
	b.Helper()
	benchOnce.Do(func() {
		s, err := core.Run(synthgen.Small(8, 21))
		if err != nil {
			panic(err)
		}
		benchStudy = s
	})
	return benchStudy
}

// --- Figures ---

func BenchmarkFig1TopApps(b *testing.B) {
	s := benchFleet(b)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(s.Fig1().Counts)
	}
	b.ReportMetric(float64(n), "apps_in_top10s")
}

func BenchmarkFig2DataEnergy(b *testing.B) {
	s := benchFleet(b)
	b.ResetTimer()
	var topJ float64
	for i := 0; i < b.N; i++ {
		res := s.Fig2()
		topJ = res.ByEnergy[0].Energy
	}
	b.ReportMetric(topJ, "top_app_J")
}

func BenchmarkFig3StateBreakdown(b *testing.B) {
	s := benchFleet(b)
	b.ResetTimer()
	var bg float64
	for i := 0; i < b.N; i++ {
		sbs := s.Fig3()
		bg = 0
		for _, sb := range sbs {
			bg += sb.BackgroundShare()
		}
		bg /= float64(len(sbs))
	}
	b.ReportMetric(bg, "mean_bg_share")
}

func BenchmarkFig4ChromeTimeline(b *testing.B) {
	s := benchFleet(b)
	b.ResetTimer()
	var post float64
	for i := 0; i < b.N; i++ {
		tl, ok := s.Fig4()
		if !ok {
			b.Fatal("no Chrome transition")
		}
		post = 0
		for j, off := range tl.Offsets {
			if off >= tl.Before {
				post += tl.Bytes[j]
			}
		}
	}
	b.ReportMetric(post, "post_bg_bytes")
}

func BenchmarkFig5PersistCDF(b *testing.B) {
	s := benchFleet(b)
	b.ResetTimer()
	var p99 float64
	for i := 0; i < b.N; i++ {
		res := s.Fig5()
		p99 = res.CDF.Quantile(0.99)
	}
	b.ReportMetric(p99, "p99_persist_s")
}

func BenchmarkFig6SinceForeground(b *testing.B) {
	s := benchFleet(b)
	b.ResetTimer()
	var res analysis.SinceForegroundResult
	for i := 0; i < b.N; i++ {
		res = s.Fig6()
	}
	b.ReportMetric(100*res.FirstMinute, "first_min_pct")
	b.ReportMetric(res.Spike5m, "spike5m_x")
	b.ReportMetric(res.Spike10m, "spike10m_x")
}

// --- Tables ---

func BenchmarkTable1CaseStudies(b *testing.B) {
	s := benchFleet(b)
	b.ResetTimer()
	var weiboJday, twitterJday float64
	for i := 0; i < b.N; i++ {
		rows := s.Table1()
		for _, r := range rows {
			switch r.Label {
			case "Weibo":
				weiboJday = r.JPerDay
			case "Twitter":
				twitterJday = r.JPerDay
			}
		}
	}
	b.ReportMetric(weiboJday, "weibo_J_day")
	b.ReportMetric(twitterJday, "twitter_J_day")
}

func BenchmarkTable2WhatIf(b *testing.B) {
	s := benchFleet(b)
	b.ResetTimer()
	var weiboCut float64
	for i := 0; i < b.N; i++ {
		rows := s.Table2(3)
		for _, r := range rows {
			if r.Label == "Weibo" {
				weiboCut = r.AvgEnergyReductionPct
			}
		}
	}
	b.ReportMetric(weiboCut, "weibo_reduction_pct")
}

// --- Headline statistics ---

func BenchmarkHeadlineStateShares(b *testing.B) {
	s := benchFleet(b)
	b.ResetTimer()
	var h analysis.Headline
	for i := 0; i < b.N; i++ {
		h = s.Headline()
	}
	b.ReportMetric(100*h.BackgroundFraction, "bg_pct")
	b.ReportMetric(100*h.PerceptibleFraction, "perceptible_pct")
	b.ReportMetric(100*h.ServiceFraction, "service_pct")
}

func BenchmarkHeadlineFirstMinute(b *testing.B) {
	s := benchFleet(b)
	b.ResetTimer()
	var f float64
	for i := 0; i < b.N; i++ {
		f = analysis.FirstMinute(s.Devices, 60, 0.8).Fraction
	}
	b.ReportMetric(100*f, "apps_meeting_pct")
}

func BenchmarkHeadlineBrowserShares(b *testing.B) {
	s := benchFleet(b)
	b.ResetTimer()
	var chrome, firefox float64
	for i := 0; i < b.N; i++ {
		shares := analysis.BrowserShares(s.Devices, []string{
			appmodel.PkgChrome, appmodel.PkgFirefox, appmodel.PkgStockBrowser,
		})
		chrome, firefox = shares[appmodel.PkgChrome], shares[appmodel.PkgFirefox]
	}
	b.ReportMetric(100*chrome, "chrome_bg_pct")
	b.ReportMetric(100*firefox, "firefox_bg_pct")
}

// --- Ablations ---

// BenchmarkAblationAttribution contrasts the paper's shared-radio tail
// attribution (tail energy to the last packet across all apps) with naive
// per-app accounting where every app is billed as if it had the radio to
// itself — the double-counting the paper's rule avoids.
func BenchmarkAblationAttribution(b *testing.B) {
	s := benchFleet(b)
	dev := s.Devices[0]
	b.ResetTimer()
	var shared, isolated float64
	for i := 0; i < b.N; i++ {
		shared = dev.Energy.Ledger.Total
		// Naive: run an independent accountant per app.
		accts := map[uint32]*radio.Accountant{}
		isolated = 0
		for j := range dev.Energy.Packets {
			p := &dev.Energy.Packets[j]
			a := accts[p.App]
			if a == nil {
				a = radio.NewAccountant(radio.LTE())
				accts[p.App] = a
			}
			dir := radio.Down
			if p.Dir == trace.DirUp {
				dir = radio.Up
			}
			a.OnPacket(p.TS.Seconds(), p.Bytes, dir)
		}
		for _, a := range accts {
			a.Finish()
			isolated += a.TotalEnergy()
		}
	}
	b.ReportMetric(shared, "shared_J")
	b.ReportMetric(isolated, "isolated_J")
	if isolated < shared {
		b.Fatalf("isolated accounting (%v) should never be below shared (%v)", isolated, shared)
	}
}

// BenchmarkAblationBatching sweeps the batching factor of a 5-minute poller
// (same bytes per day) and reports the energy ratio between unbatched and
// 8x-batched schedules.
func BenchmarkAblationBatching(b *testing.B) {
	run := func(k int) float64 {
		dt := &trace.DeviceTrace{Device: "bench", Start: 0, Apps: trace.NewAppTable()}
		g := appmodel.NewGen(dt, rng.New(3))
		app := dt.Apps.Intern("bench.app")
		p := &appmodel.PeriodicPoller{
			Period: 300 * float64(k), Jitter: 0.1,
			UpBytes: 1500 * int64(k), DownBytes: 140000 * int64(k),
			UpdatesPerConn: 4, BgState: trace.StateService,
		}
		p.Generate(g, app, nil, 0, trace.Timestamp(0).AddSeconds(2*86400))
		dt.SortByTime()
		opts := energy.DefaultOptions()
		opts.KeepPackets = false
		res, err := energy.Process(dt, opts)
		if err != nil {
			b.Fatal(err)
		}
		return res.Ledger.Total
	}
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = run(1) / run(8)
	}
	b.ReportMetric(ratio, "x1_vs_x8_ratio")
}

// BenchmarkAblationRadioModels replays the same device trace against the
// LTE, 3G and WiFi models.
func BenchmarkAblationRadioModels(b *testing.B) {
	dt := synthgen.GenerateDevice(synthgen.Small(1, 3), 0)
	models := []radio.Params{radio.LTE(), radio.ThreeG(), radio.WiFi()}
	totals := make([]float64, len(models))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for mi, m := range models {
			opts := energy.DefaultOptions()
			opts.Radio = m
			opts.KeepPackets = false
			res, err := energy.Process(dt, opts)
			if err != nil {
				b.Fatal(err)
			}
			totals[mi] = res.Ledger.Total
		}
	}
	b.ReportMetric(totals[0], "lte_J")
	b.ReportMetric(totals[1], "threeg_J")
	b.ReportMetric(totals[2], "wifi_J")
}

// BenchmarkAblationKillThreshold sweeps the §5 policy threshold 1..7 days.
func BenchmarkAblationKillThreshold(b *testing.B) {
	s := benchFleet(b)
	b.ResetTimer()
	var pts []whatif.SweepPoint
	for i := 0; i < b.N; i++ {
		pts = s.Sweep(7)
	}
	b.ReportMetric(pts[0].FleetSavedPct, "kill1d_fleet_pct")
	b.ReportMetric(pts[2].FleetSavedPct, "kill3d_fleet_pct")
	b.ReportMetric(pts[6].FleetSavedPct, "kill7d_fleet_pct")
}

// --- Pipeline micro/macro benches ---

func BenchmarkGenerateDevice(b *testing.B) {
	cfg := synthgen.Small(1, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dt := synthgen.GenerateDevice(cfg, i%4)
		if len(dt.Records) == 0 {
			b.Fatal("empty trace")
		}
	}
}

func BenchmarkProcessDevice(b *testing.B) {
	dt := synthgen.GenerateDevice(synthgen.Small(1, 7), 0)
	pkts := 0
	for i := range dt.Records {
		if dt.Records[i].Type == trace.RecPacket {
			pkts++
		}
	}
	opts := energy.DefaultOptions()
	opts.KeepPackets = false
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := energy.Process(dt, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pkts), "packets")
}

func BenchmarkLoadDevice(b *testing.B) {
	dt := synthgen.GenerateDevice(synthgen.Small(1, 7), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Load(dt, energy.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDoze simulates the Android M Doze policy the paper's
// conclusion anticipates: suppress background traffic after 1 h of device
// idleness with 6-hourly maintenance windows, re-accounting radio energy
// over the surviving packets.
func BenchmarkAblationDoze(b *testing.B) {
	s := benchFleet(b)
	b.ResetTimer()
	var res whatif.DozeResult
	for i := 0; i < b.N; i++ {
		res = whatif.SimulateDozeFleet(s.Devices, radio.LTE(), whatif.DefaultDoze())
	}
	b.ReportMetric(res.SavedPct, "doze_saved_pct")
	b.ReportMetric(float64(res.Suppressed), "suppressed_pkts")
}

// BenchmarkAblationFastDormancy shortens the LTE tail to 3 s (the
// radio-layer energy-saving feature the paper's conclusion cites) and
// reports the energy ratio against the standard 11.576 s tail.
func BenchmarkAblationFastDormancy(b *testing.B) {
	dt := synthgen.GenerateDevice(synthgen.Small(1, 3), 0)
	std := radio.LTE()
	fast := radio.LTE()
	fast.TailPhases = []radio.TailPhase{
		{Duration: 0.2, Power: 1.28804},
		{Duration: 2.8, Power: 1.06004},
	}
	run := func(p radio.Params) float64 {
		opts := energy.DefaultOptions()
		opts.Radio = p
		opts.KeepPackets = false
		res, err := energy.Process(dt, opts)
		if err != nil {
			b.Fatal(err)
		}
		return res.Ledger.Total
	}
	b.ResetTimer()
	var stdJ, fastJ float64
	for i := 0; i < b.N; i++ {
		stdJ = run(std)
		fastJ = run(fast)
	}
	b.ReportMetric(stdJ, "standard_J")
	b.ReportMetric(fastJ, "fast_dormancy_J")
	b.ReportMetric(100*(stdJ-fastJ)/stdJ, "saved_pct")
	if fastJ >= stdJ {
		b.Fatal("fast dormancy should reduce energy")
	}
}

// BenchmarkExtensionScreenOff measures the screen-off traffic share — the
// related-work view (Huang et al., IMC'12) the study's dataset supports.
func BenchmarkExtensionScreenOff(b *testing.B) {
	s := benchFleet(b)
	b.ResetTimer()
	var res analysis.ScreenOffResult
	for i := 0; i < b.N; i++ {
		res = analysis.ScreenOff(s.Devices, 10)
	}
	b.ReportMetric(100*res.OffEnergyFraction(), "off_energy_pct")
	b.ReportMetric(100*res.OffByteFraction(), "off_bytes_pct")
}

// BenchmarkExtensionLeakHosts measures the ad/analytics share of Chrome's
// leaked background traffic (§4.1's in-lab validation).
func BenchmarkExtensionLeakHosts(b *testing.B) {
	s := benchFleet(b)
	b.ResetTimer()
	var third float64
	for i := 0; i < b.N; i++ {
		third = s.LeakHosts().ThirdPartyShare()
	}
	b.ReportMetric(100*third, "third_party_pct")
}

// BenchmarkExtensionRetransmissions measures wasted wire bytes and energy
// from TCP retransmissions across the fleet.
func BenchmarkExtensionRetransmissions(b *testing.B) {
	s := benchFleet(b)
	b.ResetTimer()
	var res analysis.RetransResult
	for i := 0; i < b.N; i++ {
		res = s.Retrans()
	}
	b.ReportMetric(100*res.Total.RetransFraction(), "retrans_pct")
	b.ReportMetric(res.WastedEnergyJ, "wasted_J")
}

// BenchmarkExtensionDNS measures resolver-traffic overhead.
func BenchmarkExtensionDNS(b *testing.B) {
	s := benchFleet(b)
	b.ResetTimer()
	var res analysis.DNSResult
	for i := 0; i < b.N; i++ {
		res = s.DNSOverhead()
	}
	b.ReportMetric(float64(res.Lookups), "lookups")
	b.ReportMetric(100*res.WakeFraction(), "wake_pct")
	b.ReportMetric(res.Energy, "dns_J")
}

// BenchmarkExtensionBatchPolicy simulates fleet-wide 4x background batching
// (the §6 recommendation) with full energy re-accounting.
func BenchmarkExtensionBatchPolicy(b *testing.B) {
	s := benchFleet(b)
	b.ResetTimer()
	var res whatif.BatchResult
	for i := 0; i < b.N; i++ {
		res = s.Batching(4)
	}
	b.ReportMetric(res.SavedPct, "saved_pct")
	b.ReportMetric(res.MaxDelayS, "max_delay_s")
}

// BenchmarkAblationCarrierVariants replays one device against three LTE
// parameter sets — the paper's "values vary by device and carrier" caveat
// quantified.
func BenchmarkAblationCarrierVariants(b *testing.B) {
	dt := synthgen.GenerateDevice(synthgen.Small(1, 3), 0)
	variants := radio.LTEVariants()
	totals := make([]float64, len(variants))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for vi, v := range variants {
			opts := energy.DefaultOptions()
			opts.Radio = v
			opts.KeepPackets = false
			res, err := energy.Process(dt, opts)
			if err != nil {
				b.Fatal(err)
			}
			totals[vi] = res.Ledger.Total
		}
	}
	b.ReportMetric(totals[0], "std_J")
	b.ReportMetric(totals[1], "short_tail_J")
	b.ReportMetric(totals[2], "hot_idle_J")
}

// BenchmarkStudy is the paper path end to end, as bench/'s batch_study
// workload runs it: a METR-3 fleet of 16 devices x 16 384 records on disk ->
// core.OpenParallel on one worker per core -> the full report, whose CRC is
// held constant across iterations.
func BenchmarkStudy(b *testing.B) {
	const users, records = 16, 16384
	dir := b.TempDir()
	for i := 0; i < users; i++ {
		// A device cut to a fixed record count, so an iteration is the same
		// amount of work whatever the user's activity level.
		cfg := synthgen.Small(i+1, 1+records/7700)
		var dt *trace.DeviceTrace
		for {
			if dt = synthgen.GenerateDevice(cfg, i); len(dt.Records) >= records {
				break
			}
			cfg.Days = cfg.Days*records/(len(dt.Records)+1)*5/4 + 1
		}
		dt.Records = dt.Records[:records]
		f, err := os.Create(filepath.Join(dir, dt.Device+".metr"))
		if err != nil {
			b.Fatal(err)
		}
		if err := dt.SerializeColumnar(f); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	var first uint32
	for i := 0; i < b.N; i++ {
		s, err := core.OpenParallel(dir, workers)
		if err != nil {
			b.Fatal(err)
		}
		h := crc32.NewIEEE()
		if err := s.WriteReport(h); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			first = h.Sum32()
		} else if h.Sum32() != first {
			b.Fatalf("report crc %08x, first iteration's was %08x", h.Sum32(), first)
		}
	}
	b.ReportMetric(float64(users*records), "records/op")
}
