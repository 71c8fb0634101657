package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"netenergy/internal/trace"
)

// TestPrintStatsSpan: the span is last record minus first record, also for
// a trace whose first record sits at timestamp 0 (which used to read as
// "unset" and make the second distinct timestamp the start).
func TestPrintStatsSpan(t *testing.T) {
	const day = trace.Timestamp(86400 * 1_000_000)
	for _, c := range []struct {
		name  string
		start trace.Timestamp
	}{
		{"from 0", 0},
		{"from 2012", 1354320000 * 1_000_000},
	} {
		dt := &trace.DeviceTrace{Device: "d", Start: c.start, Apps: trace.NewAppTable()}
		for _, ts := range []trace.Timestamp{c.start, c.start + day, c.start + 3*day} {
			dt.Records = append(dt.Records, trace.Record{Type: trace.RecScreen, TS: ts, ScreenOn: true})
		}
		var out bytes.Buffer
		if err := printStats(&out, dt, filepath.Join(t.TempDir(), "absent.metr")); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "3 records over 3.0 days") {
			t.Errorf("%s: stats say %q, want 3 records over 3.0 days", c.name, strings.SplitN(out.String(), "\n", 2)[0])
		}
	}
}
