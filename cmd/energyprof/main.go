// Command energyprof is an ARO/PowerTutor-style per-app network energy
// profiler for a single device trace: it replays the trace through a radio
// power model and prints each app's energy, data, efficiency and
// foreground/background split.
//
// Usage:
//
//	energyprof -trace data/u00.metr [-radio lte|3g|wifi] [-top 20]
//	energyprof -trace capture.pcap        # pcap input (single unknown app)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"netenergy/internal/energy"
	"netenergy/internal/flows"
	"netenergy/internal/pcapio"
	"netenergy/internal/radio"
	"netenergy/internal/report"
	"netenergy/internal/trace"
)

func main() {
	var (
		path     = flag.String("trace", "", "METR trace file to profile (required)")
		radioArg = flag.String("radio", "lte", "radio model: lte, 3g or wifi")
		top      = flag.Int("top", 20, "number of apps to print")
		topFlows = flag.Int("flows", 0, "also print the top N flows by energy")
	)
	flag.Parse()
	if *path == "" {
		flag.Usage()
		os.Exit(2)
	}
	var params radio.Params
	switch *radioArg {
	case "lte":
		params = radio.LTE()
	case "3g":
		params = radio.ThreeG()
	case "wifi":
		params = radio.WiFi()
	default:
		fmt.Fprintf(os.Stderr, "energyprof: unknown radio model %q\n", *radioArg)
		os.Exit(2)
	}

	dt, err := readTrace(*path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "energyprof:", err)
		os.Exit(1)
	}
	opts := energy.DefaultOptions()
	opts.Radio = params
	opts.KeepPackets = *topFlows > 0
	res, err := energy.Process(dt, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "energyprof:", err)
		os.Exit(1)
	}

	l := res.Ledger
	fmt.Printf("device %s: %.0f J attributed over %.1f days (%s model, idle baseline %.0f J, %d decode errors)\n",
		dt.Device, l.Total, res.Span[1].Sub(res.Span[0])/86400, params.Name, l.IdleEnergy, res.DecodeErrors)
	fmt.Printf("background share: %.1f%%\n\n", 100*l.BackgroundFraction())

	type row struct {
		app    uint32
		energy float64
	}
	rows := make([]row, 0, len(l.ByApp))
	for app, e := range l.ByApp {
		rows = append(rows, row{app, e})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].energy != rows[j].energy {
			return rows[i].energy > rows[j].energy
		}
		return rows[i].app < rows[j].app
	})
	if *top > 0 && len(rows) > *top {
		rows = rows[:*top]
	}
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		bytes := l.BytesByApp[r.app]
		eff := 0.0
		if bytes > 0 {
			eff = r.energy / (float64(bytes) / 1e6)
		}
		out = append(out, []string{
			dt.Apps.Name(r.app),
			fmt.Sprintf("%.0f", r.energy),
			fmt.Sprintf("%.1f", float64(bytes)/1e6),
			fmt.Sprintf("%.2f", eff),
			fmt.Sprintf("%.0f%%", 100*l.AppBackgroundFraction(r.app)),
		})
	}
	if err := report.Table(os.Stdout, []string{"app", "J", "MB", "J/MB", "bg"}, out); err != nil {
		fmt.Fprintln(os.Stderr, "energyprof:", err)
		os.Exit(1)
	}

	if *topFlows > 0 {
		if err := printTopFlows(dt, res, *topFlows); err != nil {
			fmt.Fprintln(os.Stderr, "energyprof:", err)
			os.Exit(1)
		}
	}
}

// printTopFlows assembles flows from the attributed packets and prints the
// costliest — the per-flow view Table 1 is built from.
func printTopFlows(dt *trace.DeviceTrace, res *energy.Result, n int) error {
	asm := flows.NewAssembler(res.Conns)
	for i := range res.Packets {
		p := &res.Packets[i]
		asm.Add(flows.PacketInfo{
			TS: p.TS, App: p.App, Conn: p.Conn, Dir: p.Dir,
			Bytes: p.Bytes, State: p.State, Energy: p.Energy,
		})
	}
	fs := asm.Flows()
	sort.Slice(fs, func(i, j int) bool { return fs[i].Energy > fs[j].Energy })
	if len(fs) > n {
		fs = fs[:n]
	}
	fmt.Printf("\ntop %d flows by energy:\n", len(fs))
	rows := make([][]string, 0, len(fs))
	for _, f := range fs {
		rows = append(rows, []string{
			dt.Apps.Name(f.App),
			f.Tuple.String(),
			fmt.Sprintf("%.1f J", f.Energy),
			fmt.Sprintf("%.2f MB", float64(f.Bytes())/1e6),
			fmt.Sprintf("%.0f s", f.Duration()),
			fmt.Sprintf("%d pkts", f.Packets),
		})
	}
	return report.Table(os.Stdout, []string{"app", "flow", "energy", "data", "duration", "packets"}, rows)
}

// readTrace loads a METR or pcap file, detected by extension.
func readTrace(path string) (*trace.DeviceTrace, error) {
	if strings.HasSuffix(path, ".pcap") {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return pcapio.ToTrace(f, path)
	}
	return trace.ReadFile(path)
}
