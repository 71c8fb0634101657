// Command metr2pcap converts between this repository's METR trace format
// and classic libpcap captures, so traces can be inspected with
// tcpdump/Wireshark and real captures can be fed to the energy profiler.
//
// Usage:
//
//	metr2pcap -in data/u00.metr -out u00.pcap            # export (cellular only)
//	metr2pcap -in data/u00.metr -out u00.pcap -all       # export all interfaces
//	metr2pcap -in capture.pcap -out capture.metr -import # import a pcap
//
// Exports read either METR container (flat, METR-3); imports write METR-3.
//
// pcap has no process mappings, directions or process states: exports drop
// them, imports assign all packets to a single synthetic app.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"netenergy/internal/pcapio"
	"netenergy/internal/trace"
)

func main() {
	var (
		in    = flag.String("in", "", "input file (required)")
		out   = flag.String("out", "", "output file (required)")
		all   = flag.Bool("all", false, "export all interfaces, not just cellular")
		imprt = flag.Bool("import", false, "convert pcap -> METR instead of METR -> pcap")
	)
	flag.Parse()
	if *in == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*in, *out, *all, *imprt); err != nil {
		fmt.Fprintln(os.Stderr, "metr2pcap:", err)
		os.Exit(1)
	}
}

func run(in, out string, all, imprt bool) error {
	if imprt {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		device := strings.TrimSuffix(in, ".pcap")
		dt, err := pcapio.ToTrace(f, device)
		if err != nil {
			return err
		}
		of, err := os.Create(out)
		if err != nil {
			return err
		}
		defer of.Close()
		if err := dt.SerializeColumnar(of); err != nil {
			return err
		}
		fmt.Printf("imported %d packets into %s\n", len(dt.Packets()), out)
		return nil
	}

	dt, err := trace.ReadFile(in)
	if err != nil {
		return err
	}
	of, err := os.Create(out)
	if err != nil {
		return err
	}
	defer of.Close()
	n, err := pcapio.FromTrace(of, dt, trace.NetCellular, !all)
	if err != nil {
		return err
	}
	fmt.Printf("exported %d packets to %s\n", n, out)
	return nil
}
