// Command analyze reproduces the paper's evaluation artifacts over a
// dataset: every figure series, both tables and the headline statistics.
//
// Usage:
//
//	analyze -data data/               # full report over an on-disk fleet
//	analyze -gen -users 10 -days 28   # generate in memory, then analyse
//	analyze -data data/ -fig 5        # a single figure
//	analyze -data data/ -table 1      # a single table
//	analyze -data data/ -headline     # headline statistics only
//	analyze -data data/ -stream       # bounded-memory single-pass summary
//	analyze -data data/ -csv fig6.csv -fig 6
//	analyze -data data/ -workers 8    # load 8 device files at once, render the report on 8 goroutines
//	analyze -data data/ -stream -csv fig6.csv  # stream mode CSV export
//	analyze -gen -stats-json stats.json        # dump per-stage timings
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"netenergy/internal/analysis"
	"netenergy/internal/core"
	"netenergy/internal/energy"
	"netenergy/internal/obs"
	"netenergy/internal/report"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

func main() {
	var (
		data     = flag.String("data", "", "directory of .metr trace files")
		gen      = flag.Bool("gen", false, "generate the dataset in memory instead of reading -data")
		users    = flag.Int("users", 20, "users for -gen")
		days     = flag.Int("days", 126, "days for -gen")
		seed     = flag.Uint64("seed", 20151028, "seed for -gen")
		fig      = flag.Int("fig", 0, "print only figure N (1-6)")
		table    = flag.Int("table", 0, "print only table N (1-2)")
		headline = flag.Bool("headline", false, "print only the headline statistics")
		hosts    = flag.Bool("hosts", false, "print only the Chrome leak-traffic host attribution")
		stream   = flag.Bool("stream", false, "bounded-memory single-pass summary of an on-disk fleet")
		device   = flag.String("device", "", "restrict analyses to one device (e.g. u03)")
		kill     = flag.Int("kill", 3, "kill-after-days threshold for table 2")
		csvPath  = flag.String("csv", "", "also write the selected figure's raw series as CSV")
		workers  = flag.Int("workers", runtime.NumCPU(), "device files loaded at once, and goroutines the full report's sections render on (same bytes for every count)")
		statsOut = flag.String("stats-json", "", "write end-of-run metrics (per-stage timings) as JSON to this path, or - for stderr")
	)
	flag.Parse()

	if *stream {
		if err := runStream(*data, *csvPath); err != nil {
			fmt.Fprintln(os.Stderr, "analyze:", err)
			os.Exit(1)
		}
		return
	}

	study, err := load(*data, *gen, *users, *days, *seed, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
	var reg *obs.Registry
	if *statsOut != "" {
		reg = obs.New()
		study.Instrument(reg)
	}
	if *device != "" {
		var kept []*analysis.DeviceData
		for _, d := range study.Devices {
			if d.Device == *device {
				kept = append(kept, d)
			}
		}
		if len(kept) == 0 {
			fmt.Fprintf(os.Stderr, "analyze: device %q not in dataset\n", *device)
			os.Exit(1)
		}
		study.Devices = kept
	}
	w := os.Stdout
	switch {
	case *headline:
		err = report.Headline(w, study.Headline())
	case *hosts:
		err = report.HostBreakdown(w, study.LeakHosts())
	case *fig != 0:
		err = printFigure(w, study, *fig, *csvPath)
	case *table == 1:
		err = report.CaseStudies(w, study.Table1())
	case *table == 2:
		err = report.WhatIf(w, study.Table2(*kill), *kill)
	default:
		err = study.WriteReport(w)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
	if reg != nil {
		dumpStats(reg, *statsOut)
	}
}

// dumpStats writes the registry snapshot as indented JSON (to stderr when
// path is "-", keeping stdout clean for the report).
func dumpStats(reg *obs.Registry, path string) {
	snap := reg.Snapshot()
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze: stats-json:", err)
		return
	}
	out = append(out, '\n')
	if path == "-" {
		os.Stderr.Write(out) //nolint:errcheck
		return
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "analyze: stats-json:", err)
	}
}

func load(data string, gen bool, users, days int, seed uint64, workers int) (*core.Study, error) {
	if gen || data == "" {
		cfg := synthgen.Default()
		cfg.Users = users
		cfg.Days = days
		cfg.Seed = seed
		fmt.Fprintf(os.Stderr, "analyze: generating %d users x %d days in memory\n", users, days)
		return core.Run(cfg)
	}
	return core.OpenParallel(data, workers)
}

func printFigure(w io.Writer, s *core.Study, n int, csvPath string) error {
	var csvW io.Writer
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		csvW = f
	}
	switch n {
	case 1:
		return report.TopApps(w, s.Fig1())
	case 2:
		return report.HungryApps(w, s.Fig2())
	case 3:
		return report.StateBreakdowns(w, s.Fig3())
	case 4:
		tl, ok := s.Fig4()
		if !ok {
			return fmt.Errorf("no Chrome background transition in dataset")
		}
		if csvW != nil {
			rows := make([][]string, len(tl.Offsets))
			for i := range tl.Offsets {
				power := 0.0
				if i < len(tl.PowerW) {
					power = tl.PowerW[i]
				}
				rows[i] = []string{
					fmt.Sprintf("%.0f", tl.Offsets[i]-tl.Before),
					fmt.Sprintf("%.0f", tl.Bytes[i]),
					fmt.Sprintf("%.4f", power),
				}
			}
			if err := report.CSV(csvW, []string{"t_rel_s", "bytes", "radio_power_w"}, rows); err != nil {
				return err
			}
		}
		return report.Timeline(w, tl)
	case 5:
		res := s.Fig5()
		if csvW != nil {
			xs, ps := res.CDF.Points(200)
			rows := make([][]string, len(xs))
			for i := range xs {
				rows[i] = []string{fmt.Sprintf("%.1f", xs[i]), fmt.Sprintf("%.5f", ps[i])}
			}
			if err := report.CSV(csvW, []string{"persistence_s", "cdf"}, rows); err != nil {
				return err
			}
		}
		return report.Persistence(w, res)
	case 6:
		res := s.Fig6()
		if csvW != nil {
			rows := make([][]string, len(res.Offsets))
			for i := range res.Offsets {
				rows[i] = []string{
					fmt.Sprintf("%.0f", res.Offsets[i]),
					fmt.Sprintf("%.0f", res.Bytes[i]),
				}
			}
			if err := report.CSV(csvW, []string{"since_fg_s", "bg_bytes"}, rows); err != nil {
				return err
			}
		}
		return report.SinceForeground(w, res)
	default:
		return fmt.Errorf("unknown figure %d (valid: 1-6)", n)
	}
}

// runStream computes the bounded-memory summary: headline energy shares,
// the Figure 6 aggregates, the first-minute criterion and the screen split,
// in one sequential pass per trace file. With csvPath the Fig. 6 series is
// exported in the same shape as the batch mode's -fig 6 -csv.
func runStream(data, csvPath string) error {
	if data == "" {
		return fmt.Errorf("-stream requires -data")
	}
	fleet, err := trace.OpenFleet(data)
	if err != nil {
		return err
	}
	res, err := analysis.StreamFleet(fleet, energy.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Printf("streamed %d devices: %.0f J attributed (%d decode errors)\n",
		len(fleet.Paths), res.Ledger.Total, res.DecodeErrors)
	fmt.Printf("background energy fraction: %.3f  (paper: 0.84)\n", res.Ledger.BackgroundFraction())
	fmt.Printf("apps >=80%% bg bytes in 60s: %.3f  (paper: 0.84)\n", res.FirstMinuteFraction(0.8))
	f6 := res.SinceForeground()
	fmt.Printf("fig6 first-minute share: %.1f%%  spike@5min %.1fx  spike@10min %.1fx\n",
		100*f6.FirstMinute, f6.Spike5m, f6.Spike10m)
	total := res.OffBytes + res.OnBytes
	if total > 0 {
		fmt.Printf("screen-off bytes: %.1f%%\n", 100*float64(res.OffBytes)/float64(total))
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		rows := make([][]string, len(f6.Offsets))
		for i := range f6.Offsets {
			rows[i] = []string{
				fmt.Sprintf("%.0f", f6.Offsets[i]),
				fmt.Sprintf("%.0f", f6.Bytes[i]),
			}
		}
		if err := report.CSV(f, []string{"since_fg_s", "bg_bytes"}, rows); err != nil {
			return err
		}
		fmt.Printf("wrote fig6 series to %s\n", csvPath)
	}
	return nil
}
