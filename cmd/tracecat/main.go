// Command tracecat inspects METR trace files: summary statistics, record
// dumps, per-app breakdowns and NDJSON export.
//
// Usage:
//
//	tracecat -trace data/u00.metr                 # summary stats
//	tracecat -trace data/u00.metr -head 20        # first 20 records
//	tracecat -trace data/u00.metr -app com.sina.weibo -head 50
//	tracecat -trace data/u00.metr -ndjson > u00.ndjson
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"netenergy/internal/report"
	"netenergy/internal/trace"
)

func main() {
	var (
		path   = flag.String("trace", "", "METR trace file (required)")
		head   = flag.Int("head", 0, "print the first N records")
		appPkg = flag.String("app", "", "restrict -head output to one app package")
		ndjson = flag.Bool("ndjson", false, "dump the whole trace as NDJSON to stdout")
	)
	flag.Parse()
	if *path == "" {
		flag.Usage()
		os.Exit(2)
	}
	dt, err := trace.ReadFile(*path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecat:", err)
		os.Exit(1)
	}
	switch {
	case *ndjson:
		err = dt.ExportNDJSON(os.Stdout)
	case *head > 0:
		err = printHead(dt, *head, *appPkg)
	default:
		err = printStats(os.Stdout, dt, *path)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecat:", err)
		os.Exit(1)
	}
}

func printHead(dt *trace.DeviceTrace, n int, appPkg string) error {
	appFilter := int64(-1)
	if appPkg != "" {
		app, ok := dt.Apps.Lookup(appPkg)
		if !ok {
			return fmt.Errorf("app %q not in trace", appPkg)
		}
		appFilter = int64(app)
	}
	printed := 0
	for i := range dt.Records {
		r := &dt.Records[i]
		if appFilter >= 0 {
			if r.Type == trace.RecScreen || uint32(appFilter) != r.App {
				continue
			}
		}
		fmt.Printf("%12.3f  %s\n", r.TS.Sub(dt.Start), r.String())
		if printed++; printed >= n {
			break
		}
	}
	return nil
}

func printStats(w io.Writer, dt *trace.DeviceTrace, path string) error {
	counts := map[trace.RecordType]int{}
	bytesByApp := map[uint32]int64{}
	pktsByApp := map[uint32]int{}
	var firstTS, lastTS trace.Timestamp
	if len(dt.Records) > 0 {
		firstTS, lastTS = dt.Records[0].TS, dt.Records[0].TS
	}
	var totalStored int64
	for i := range dt.Records {
		r := &dt.Records[i]
		counts[r.Type]++
		firstTS, lastTS = min(firstTS, r.TS), max(lastTS, r.TS)
		if r.Type == trace.RecPacket {
			bytesByApp[r.App] += int64(len(r.Payload))
			pktsByApp[r.App]++
			totalStored += int64(len(r.Payload))
		}
	}
	container := "?"
	if f, err := trace.DetectFileFormat(path); err == nil {
		container = f.String()
	}
	fmt.Fprintf(w, "device %s: %d records over %.1f days (%d apps registered, %s container)\n",
		dt.Device, len(dt.Records), lastTS.Sub(firstTS)/86400, dt.Apps.Len(), container)
	for _, rt := range []trace.RecordType{trace.RecAppName, trace.RecPacket, trace.RecProcState, trace.RecUIEvent, trace.RecScreen} {
		fmt.Fprintf(w, "  %-10s %d\n", rt.String(), counts[rt])
	}
	fmt.Fprintf(w, "  stored packet bytes: %.1f MB (snap-length captures)\n\n", float64(totalStored)/1e6)

	type row struct {
		app  uint32
		pkts int
	}
	rows := make([]row, 0, len(pktsByApp))
	for app, n := range pktsByApp {
		rows = append(rows, row{app, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].pkts != rows[j].pkts {
			return rows[i].pkts > rows[j].pkts
		}
		return rows[i].app < rows[j].app
	})
	if len(rows) > 15 {
		rows = rows[:15]
	}
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			dt.Apps.Name(r.app),
			fmt.Sprintf("%d", r.pkts),
			fmt.Sprintf("%.2f MB", float64(bytesByApp[r.app])/1e6),
		})
	}
	return report.Table(w, []string{"app", "packets", "stored"}, out)
}
