// Browserleak reproduces §4.1 in miniature: a single device runs Chrome (a
// browser whose background tabs keep polling), Firefox and the stock
// browser (which suspend tabs) through identical browsing schedules. The
// example prints each browser's background energy share, Chrome's
// persistence distribution (the Figure 5 view) and the packet timeline
// around one leaky transition (the Figure 4 view).
package main

import (
	"fmt"
	"os"

	"netenergy/internal/analysis"
	"netenergy/internal/appmodel"
	"netenergy/internal/energy"
	"netenergy/internal/report"
	"netenergy/internal/rng"
	"netenergy/internal/trace"
)

func main() {
	const days = 14
	dt := &trace.DeviceTrace{Device: "lab", Start: 0, Apps: trace.NewAppTable()}
	src := rng.New(42)
	g := appmodel.NewGen(dt, src)

	// One browsing schedule shared by all three browsers: six sessions a
	// day (offset per browser so their traffic does not interleave).
	mkSessions := func(offset float64) []appmodel.Session {
		var out []appmodel.Session
		for d := 0; d < days; d++ {
			for _, hour := range []float64{9, 12.5, 15, 18, 20, 22} {
				start := trace.Timestamp(0).AddSeconds(float64(d)*86400 + hour*3600 + offset)
				out = append(out, appmodel.Session{Start: start, End: start.AddSeconds(240)})
			}
		}
		return out
	}

	browsers := []struct {
		pkg     string
		label   string
		offset  float64
		leaking bool
	}{
		{appmodel.PkgChrome, "Chrome (leaky)", 0, true},
		{appmodel.PkgFirefox, "Firefox (suspends tabs)", 900, false},
		{appmodel.PkgStockBrowser, "Stock browser (suspends tabs)", 1800, false},
	}
	for _, b := range browsers {
		app := dt.Apps.Intern(b.pkg)
		dt.Records = append(dt.Records, trace.Record{Type: trace.RecAppName, App: app, AppName: b.pkg})
		model := &appmodel.Browser{
			PageLoadPeriod: 35, PageUpBytes: 6000, PageDownBytes: 700000,
		}
		if b.leaking {
			model.LeakProb = 0.5
			model.LeakPeriod = 7
			model.LeakUpBytes = 1200
			model.LeakDownBytes = 6000
			model.LeakMedian = 120
			model.LeakSigma = 2.2
			model.Residual = appmodel.ResidualCfg{Bursts: 2, Window: 12, Up: 2000, Down: 30000}
		}
		model.Generate(g, app, mkSessions(b.offset), 0, trace.Timestamp(0).AddSeconds(days*86400))
	}
	dt.SortByTime()

	dd, err := analysis.Load(dt, energy.DefaultOptions())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	devs := []*analysis.DeviceData{dd}

	fmt.Println("Identical browsing schedules, three browsers, LTE model:")
	shares := analysis.BrowserShares(devs, []string{
		appmodel.PkgChrome, appmodel.PkgFirefox, appmodel.PkgStockBrowser,
	})
	merged := analysis.MergedLedger(devs)
	for _, b := range browsers {
		app, _ := dd.Apps.Lookup(b.pkg)
		fmt.Printf("  %-30s %8.0f J total, %4.1f%% in background\n",
			b.label, merged.ByApp[app], 100*shares[b.pkg])
	}

	fmt.Println()
	if err := report.Persistence(os.Stdout, analysis.Persistence(devs, appmodel.PkgChrome)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Println()
	if tl, ok := analysis.Timeline(devs, appmodel.PkgChrome, 120, 600, 20); ok {
		if err := report.Timeline(os.Stdout, tl); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
