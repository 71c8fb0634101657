// Package core orchestrates the full study end-to-end: synthesise (or open)
// a fleet of device traces, run the energy attribution, and evaluate every
// figure, table and headline statistic of the paper. It is the high-level
// API the command-line tools, the examples and the benchmark harness build
// on.
package core

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"netenergy/internal/analysis"
	"netenergy/internal/appmodel"
	"netenergy/internal/energy"
	"netenergy/internal/obs"
	"netenergy/internal/radio"
	"netenergy/internal/report"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
	"netenergy/internal/whatif"
)

// Study is a loaded dataset plus everything needed to reproduce the paper's
// evaluation artifacts.
type Study struct {
	Config  synthgen.Config
	Devices []*analysis.DeviceData
	// Networks compares cellular vs WiFi energy for the same fleet (§3's
	// premise); computed at load time while the raw traces are in hand.
	Networks analysis.NetworkComparison

	// LoadSeconds is how long generation/loading took (recorded by
	// Run/OpenParallel, exposed as analyze_load_seconds when instrumented).
	LoadSeconds float64

	// workers is how many goroutines the Study was loaded on, and how many
	// WriteReport renders its sections on.
	workers int

	metrics *obs.Registry
}

// Instrument attaches a metrics registry: every subsequent figure/table
// evaluation records its wall time into an
// analyze_stage_seconds{stage="..."} histogram, and the load duration is
// exposed as the analyze_load_seconds gauge. Nil detaches.
func (s *Study) Instrument(reg *obs.Registry) {
	s.metrics = reg
	if reg != nil {
		reg.GaugeFunc("analyze_load_seconds", "fleet generation/load wall time",
			func() float64 { return s.LoadSeconds })
		reg.GaugeFunc("analyze_devices", "devices in the loaded fleet",
			func() float64 { return float64(len(s.Devices)) })
	}
}

// stage returns a completion callback timing one named evaluation stage.
// With no registry attached it costs two branches and no allocation beyond
// the closure.
func (s *Study) stage(name string) func() {
	if s.metrics == nil {
		return func() {}
	}
	h := s.metrics.Histogram(`analyze_stage_seconds{stage="`+name+`"}`,
		"per-stage evaluation wall time", obs.DurationBuckets())
	t0 := time.Now()                                      //repolint:allow determinism stage timing is telemetry; it feeds -stats-json, never an artifact
	return func() { h.Observe(time.Since(t0).Seconds()) } //repolint:allow determinism stage timing is telemetry; it feeds -stats-json, never an artifact
}

// Run generates the configured fleet in memory and loads it.
func Run(cfg synthgen.Config) (*Study, error) {
	t0 := time.Now() //repolint:allow determinism load wall-time telemetry for operators; LoadSeconds never reaches a report or golden artifact
	dts := synthgen.GenerateInMemory(cfg)
	devs, err := analysis.LoadAll(dts, energy.DefaultOptions())
	if err != nil {
		return nil, err
	}
	s := newStudy(devs, analysis.Workers())
	s.Config = cfg
	s.LoadSeconds = time.Since(t0).Seconds() //repolint:allow determinism load wall-time telemetry for operators; LoadSeconds never reaches a report or golden artifact
	return s, nil
}

// newStudy folds the loaded devices, in the order given, into a Study that
// renders on workers goroutines.
func newStudy(devs []*analysis.DeviceData, workers int) *Study {
	s := &Study{Devices: devs, workers: workers}
	for _, d := range devs {
		s.Networks.Add(d.Networks)
	}
	return s
}

// Open loads an on-disk fleet previously written by cmd/gentrace.
func Open(dir string) (*Study, error) { return OpenParallel(dir, 1) }

// OpenParallel loads an on-disk fleet with up to workers device files in
// flight at once, and returns a Study whose WriteReport renders on as many
// goroutines. Per-device files are independent, so loading — read, decode,
// energy replay — parallelises cleanly; results are folded in path order,
// so the Study, and every byte of its report, is identical regardless of
// worker count. Every file is read by its footer index into a pooled
// arena that is handed back once the device is folded (see
// trace.ReadFileParallel), so memory in flight is workers arenas — one at
// workers <= 1 — on top of the loaded DeviceData. When the fleet has fewer
// files than workers, the surplus goroutines decode blocks inside each
// file (v1 containers just stream).
func OpenParallel(dir string, workers int) (*Study, error) {
	t0 := time.Now() //repolint:allow determinism load wall-time telemetry for operators; LoadSeconds never reaches a report or golden artifact
	fleet, err := trace.OpenFleet(dir)
	if err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = 1
	}
	files, inner := workers, 1
	if workers > len(fleet.Paths) {
		files = len(fleet.Paths)
		inner = (workers + files - 1) / files
	}

	devs := make([]*analysis.DeviceData, len(fleet.Paths))
	errs := make([]error, len(fleet.Paths))
	sem := make(chan struct{}, files)
	var wg sync.WaitGroup
	for i, path := range fleet.Paths {
		wg.Add(1)
		go func(i int, path string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			dt, err := trace.ReadFileParallel(path, inner)
			if err != nil {
				errs[i] = fmt.Errorf("core: reading %s: %w", path, err)
				return
			}
			// Everything Load retains from dt (app table strings, parsed
			// packet tuples, energy sums) is a copy, so the decode buffers
			// go back for the next file whether or not it succeeds.
			defer dt.Recycle()
			devs[i], errs[i] = analysis.Load(dt, energy.DefaultOptions())
		}(i, path)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	s := newStudy(devs, workers)
	s.LoadSeconds = time.Since(t0).Seconds() //repolint:allow determinism load wall-time telemetry for operators; LoadSeconds never reaches a report or golden artifact
	return s, nil
}

// Table1Packages is the fixed row order of the paper's Table 1.
var Table1Packages = []string{
	appmodel.PkgWeibo, appmodel.PkgTwitter, appmodel.PkgFacebook, appmodel.PkgPlus,
	appmodel.PkgSamsungPush, appmodel.PkgUrbanairship, appmodel.PkgMaps, appmodel.PkgGmail,
	appmodel.PkgGoWeatherWdg, appmodel.PkgGoWeather, appmodel.PkgAccuweather, appmodel.PkgAccuweatherW,
	appmodel.PkgSpotify, appmodel.PkgPandora,
	appmodel.PkgPocketcasts, appmodel.PkgPodcastaddict,
}

// Table1Labels are the display names matching Table1Packages.
var Table1Labels = []string{
	"Weibo", "Twitter", "Facebook", "Plus",
	"Samsung Push", "Urbanairship", "Maps", "Gmail",
	"Go Weather widget", "Go Weather", "Accuweather", "Accuweather widget",
	"Spotify", "Pandora",
	"Pocketcasts", "Podcastaddict",
}

// Table2Packages is the fixed column order of the paper's Table 2 (the
// extracted header names are garbled in the source; DESIGN.md documents the
// mapping).
var Table2Packages = []string{
	appmodel.PkgSamsungPush, appmodel.PkgWeibo, appmodel.PkgMessenger,
	appmodel.PkgESPN, appmodel.PkgForecast, appmodel.PkgGoWeather,
}

// Table2Labels are the display names matching Table2Packages.
var Table2Labels = []string{
	"SamsungPush", "Weibo", "Messenger", "ESPN", "Forecast", "GoWeather",
}

// Headline computes the prose statistics (84% background, first-minute
// criterion, browser shares).
func (s *Study) Headline() analysis.Headline {
	defer s.stage("headline")()
	return analysis.ComputeHeadline(s.Devices)
}

// Fig1 computes Figure 1 (apps in users' top-10 lists, >=2 users).
func (s *Study) Fig1() analysis.TopAppsResult {
	defer s.stage("fig1")()
	return analysis.TopApps(s.Devices, 2)
}

// Fig2 computes Figure 2 (top data and energy consumers).
func (s *Study) Fig2() analysis.HungryAppsResult {
	defer s.stage("fig2")()
	return analysis.HungryApps(s.Devices, 12)
}

// Fig3 computes Figure 3 (per-state energy for the top-12 apps).
func (s *Study) Fig3() []analysis.StateBreakdown {
	defer s.stage("fig3")()
	return analysis.StateBreakdowns(s.Devices, nil)
}

// Fig4 computes Figure 4 (Chrome traffic around a background transition).
func (s *Study) Fig4() (analysis.TimelineResult, bool) {
	defer s.stage("fig4")()
	return analysis.Timeline(s.Devices, appmodel.PkgChrome, 300, 900, 10)
}

// Fig5 computes Figure 5 (persistence of Chrome traffic after
// backgrounding).
func (s *Study) Fig5() analysis.PersistenceCDF {
	defer s.stage("fig5")()
	return analysis.Persistence(s.Devices, appmodel.PkgChrome)
}

// Fig6 computes Figure 6 (background bytes vs time since foreground, 10 s
// bins over 2 hours).
func (s *Study) Fig6() analysis.SinceForegroundResult {
	defer s.stage("fig6")()
	return analysis.SinceForeground(s.Devices, 10, 7200)
}

// LeakHosts attributes Chrome's background traffic to destination hosts
// and categories — the §4.1 validation that leaked traffic includes ad and
// analytics content.
func (s *Study) LeakHosts() analysis.HostBreakdownResult {
	defer s.stage("leak_hosts")()
	return analysis.HostBreakdown(s.Devices, appmodel.PkgChrome, true)
}

// ScreenOff computes the screen-off traffic characterisation (extension).
func (s *Study) ScreenOff() analysis.ScreenOffResult {
	defer s.stage("screen_off")()
	return analysis.ScreenOff(s.Devices, 10)
}

// WeeklyTrend computes the §3.1 longitudinal background-energy view.
func (s *Study) WeeklyTrend() analysis.WeeklyTrend {
	defer s.stage("weekly")()
	return analysis.Weekly(s.Devices)
}

// DNSOverhead computes the resolver-traffic overhead (extension).
func (s *Study) DNSOverhead() analysis.DNSResult {
	defer s.stage("dns")()
	return analysis.DNS(s.Devices, radio.LTE())
}

// Batching simulates the §6 batch-your-updates recommendation at the given
// coalescing factor.
func (s *Study) Batching(factor int) whatif.BatchResult {
	defer s.stage("batching")()
	return whatif.SimulateBatchingFleet(s.Devices, radio.LTE(), factor)
}

// Retrans computes the TCP retransmission overhead (extension).
func (s *Study) Retrans() analysis.RetransResult {
	defer s.stage("retrans")()
	return analysis.Retransmissions(s.Devices, 10)
}

// Table1 computes the sixteen case-study rows.
func (s *Study) Table1() []analysis.CaseStudy {
	defer s.stage("table1")()
	return analysis.CaseStudies(s.Devices, Table1Packages, Table1Labels)
}

// Table2 computes the what-if rows for the paper's six example apps.
func (s *Study) Table2(killAfterDays int) []whatif.AppResult {
	defer s.stage("table2")()
	return whatif.Evaluate(s.Devices, Table2Packages, Table2Labels, killAfterDays)
}

// Sweep runs the kill-threshold ablation over 1..maxDays.
func (s *Study) Sweep(maxDays int) []whatif.SweepPoint {
	defer s.stage("sweep")()
	return whatif.SweepThresholds(s.Devices, maxDays)
}

// WriteReport renders every artifact to w — the full `cmd/analyze` output.
// The report is byte-identical however many goroutines the Study was opened
// with: the unit of concurrency is the section, each evaluated start to
// finish on one goroutine into its own buffer — so no float sum inside a
// figure changes association — and the buffers are written out in the fixed
// order below.
func (s *Study) WriteReport(w io.Writer) error {
	return writeSections(w, s.workers, []func(io.Writer) error{
		func(w io.Writer) error { return report.Headline(w, s.Headline()) },
		func(w io.Writer) error { return report.TopApps(w, s.Fig1()) },
		func(w io.Writer) error { return report.HungryApps(w, s.Fig2()) },
		func(w io.Writer) error { return report.StateBreakdowns(w, s.Fig3()) },
		func(w io.Writer) error {
			tl, ok := s.Fig4()
			if !ok {
				_, err := fmt.Fprintln(w, "Figure 4: no Chrome background transition found")
				return err
			}
			return report.Timeline(w, tl)
		},
		func(w io.Writer) error { return report.Persistence(w, s.Fig5()) },
		func(w io.Writer) error { return report.HostBreakdown(w, s.LeakHosts()) },
		func(w io.Writer) error { return report.SinceForeground(w, s.Fig6()) },
		func(w io.Writer) error { return report.CaseStudies(w, s.Table1()) },
		func(w io.Writer) error { return report.WhatIf(w, s.Table2(3), 3) },
		func(w io.Writer) error { return report.ScreenOff(w, s.ScreenOff()) },
		func(w io.Writer) error { return report.Retransmissions(w, s.Retrans()) },
		func(w io.Writer) error { return report.Longitudinal(w, s.WeeklyTrend(), s.Networks) },
		func(w io.Writer) error { return report.DNS(w, s.DNSOverhead()) },
	})
}

// writeSections renders sections on up to workers goroutines (the caller's
// included; workers <= 1 is the caller alone, in order) and writes them to
// w in order, a blank line between two. The first section to fail, in
// section order, decides the error, and nothing is written past the last
// section before it.
func writeSections(w io.Writer, workers int, sections []func(io.Writer) error) error {
	bufs := make([]bytes.Buffer, len(sections))
	errs := make([]error, len(sections))
	var next atomic.Int64
	render := func() {
		for i := int(next.Add(1)) - 1; i < len(sections); i = int(next.Add(1)) - 1 {
			errs[i] = sections[i](&bufs[i])
		}
	}
	var wg sync.WaitGroup
	for g := 1; g < workers && g < len(sections); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			render()
		}()
	}
	render()
	wg.Wait()

	for i := range sections {
		if errs[i] != nil {
			return errs[i]
		}
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := w.Write(bufs[i].Bytes()); err != nil {
			return err
		}
	}
	return nil
}
