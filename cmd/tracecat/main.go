// Command tracecat inspects METR trace files: summary statistics, record
// dumps, per-app breakdowns and NDJSON export.
//
// Usage:
//
//	tracecat -trace data/u00.metr                 # summary stats
//	tracecat -trace data/u00.metr -head 20        # first 20 records
//	tracecat -trace data/u00.metr -app com.sina.weibo -head 50
//	tracecat -trace data/u00.metr -ndjson > u00.ndjson
//	tracecat -trace data/u00.metr -convert u00.metr2 -format metr2
//
// With -convert, the trace is rewritten into the container named by
// -format (flat, deflate, metr2 or metr3); records survive bit-identically, only
// the container changes.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"netenergy/internal/report"
	"netenergy/internal/trace"
)

func main() {
	var (
		path    = flag.String("trace", "", "METR trace file (required)")
		head    = flag.Int("head", 0, "print the first N records")
		appPkg  = flag.String("app", "", "restrict -head output to one app package")
		ndjson  = flag.Bool("ndjson", false, "dump the whole trace as NDJSON to stdout")
		convert = flag.String("convert", "", "rewrite the trace into this file using -format")
		format  = flag.String("format", "", "target container for -convert: "+trace.FormatNames())
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
	case *convert != "":
		err = convertTrace(dt, *path, *convert, *format)
	case *ndjson:
		err = dt.ExportNDJSON(os.Stdout)
	case *head > 0:
		err = printHead(dt, *head, *appPkg)
	default:
		err = printStats(dt, *path)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecat:", err)
		os.Exit(1)
	}
}

// convertTrace rewrites dt into dst using the named container format.
func convertTrace(dt *trace.DeviceTrace, src, dst, formatName string) error {
	if formatName == "" {
		return fmt.Errorf("-convert requires -format (flat, deflate, metr2 or metr3)")
	}
	f, err := trace.ParseFormat(formatName)
	if err != nil {
		return err
	}
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if err := dt.SerializeFormat(out, f); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	st, err := os.Stat(dst)
	if err != nil {
		return err
	}
	from, err := trace.DetectFileFormat(src)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tracecat: %s (%s) -> %s (%s), %d records, %.1f MB\n",
		src, from, dst, f, len(dt.Records), float64(st.Size())/1e6)
	return nil
}

func printHead(dt *trace.DeviceTrace, n int, appPkg string) error {
	appFilter := int64(-1)
	if appPkg != "" {
		for i := 0; i < dt.Apps.Len(); i++ {
			if dt.Apps.Name(uint32(i)) == appPkg {
				appFilter = int64(i)
			}
		}
		if appFilter < 0 {
			return fmt.Errorf("app %q not in trace", appPkg)
		}
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

func printStats(dt *trace.DeviceTrace, path string) error {
	counts := map[trace.RecordType]int{}
	bytesByApp := map[uint32]int64{}
	pktsByApp := map[uint32]int{}
	var firstTS, lastTS trace.Timestamp
	var totalStored int64
	for i := range dt.Records {
		r := &dt.Records[i]
		counts[r.Type]++
		if firstTS == 0 || r.TS < firstTS {
			firstTS = r.TS
		}
		if r.TS > lastTS {
			lastTS = r.TS
		}
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
	fmt.Printf("device %s: %d records over %.1f days (%d apps registered, %s container)\n",
		dt.Device, len(dt.Records), lastTS.Sub(firstTS)/86400, dt.Apps.Len(), container)
	for _, rt := range []trace.RecordType{trace.RecAppName, trace.RecPacket, trace.RecProcState, trace.RecUIEvent, trace.RecScreen} {
		fmt.Printf("  %-10s %d\n", rt.String(), counts[rt])
	}
	fmt.Printf("  stored packet bytes: %.1f MB (snap-length captures)\n\n", float64(totalStored)/1e6)

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
	return report.Table(os.Stdout, []string{"app", "packets", "stored"}, out)
}
