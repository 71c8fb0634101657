package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netenergy/internal/trace"
)

// copyFixture copies one of internal/trace's legacy-container fixtures into
// dir and returns its path and the trace it holds.
func copyFixture(t *testing.T, dir, name string) (string, *trace.DeviceTrace) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "trace", "testdata", "legacy", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	dt, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, dt
}

// requireConverted fails unless path is a METR-3 file holding want's
// records, compared through the NDJSON dump and payload byte for payload
// byte.
func requireConverted(t *testing.T, path string, want *trace.DeviceTrace) {
	t.Helper()
	if f, err := trace.DetectFileFormat(path); err != nil || f != trace.FormatColumnar {
		t.Fatalf("%s: format %v, err %v, want metr3", path, f, err)
	}
	got, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := want.ExportNDJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.ExportNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	if got.Device != want.Device || got.Start != want.Start || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%s: header or NDJSON dump differs from the source's", path)
	}
	for i := range want.Records {
		if !bytes.Equal(got.Records[i].Payload, want.Records[i].Payload) {
			t.Fatalf("%s: record %d payload differs", path, i)
		}
	}
}

// onlyFiles fails unless dir holds exactly the named files: a conversion
// leaves no temporary behind, whether it succeeded or not.
func onlyFiles(t *testing.T, dir string, names ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if fmt.Sprint(got) != fmt.Sprint(names) {
		t.Fatalf("%s holds %v, want %v", dir, got, names)
	}
}

// TestConvertFixtures: each legacy container converts to METR-3 with every
// record intact — into a new file, and onto itself.
func TestConvertFixtures(t *testing.T) {
	for _, name := range []string{"u00.metr2", "u00.metz1"} {
		dir := t.TempDir()
		src, dt := copyFixture(t, dir, name)
		before, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}

		dst := filepath.Join(dir, "u00.metr")
		if err := convertTrace(dt, src, dst); err != nil {
			t.Fatal(err)
		}
		requireConverted(t, dst, dt)
		if after, _ := os.ReadFile(src); !bytes.Equal(after, before) {
			t.Fatalf("%s: converting to another file changed the source", name)
		}
		if st, err := os.Stat(dst); err != nil || st.Mode().Perm() != 0o644 {
			t.Fatalf("%s: mode %v, err %v, want 0644", dst, st.Mode(), err)
		}

		if err := convertTrace(dt, src, src); err != nil {
			t.Fatalf("%s onto itself: %v", name, err)
		}
		requireConverted(t, src, dt)
		onlyFiles(t, dir, "u00.metr", name)
	}
}

// TestConvertFailureLeavesFilesAlone: a conversion that fails mid-write — an
// unordered flat trace, which METR-3 refuses — leaves no partial
// destination, does not touch a destination that already exists, and does
// not touch the source when that is the destination.
func TestConvertFailureLeavesFilesAlone(t *testing.T) {
	dir := t.TempDir()
	dt := &trace.DeviceTrace{Device: "unordered", Apps: trace.NewAppTable()}
	for i := 0; i < 40000; i++ { // more than one block, so bytes are written before the refusal
		dt.Records = append(dt.Records, trace.Record{Type: trace.RecPacket, TS: trace.Timestamp(i),
			Net: trace.NetCellular, Payload: make([]byte, 20)})
	}
	dt.Records = append(dt.Records, trace.Record{Type: trace.RecScreen, TS: 5})
	flat, err := dt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	src, dst := filepath.Join(dir, "src.metr"), filepath.Join(dir, "dst.metr")
	if err := os.WriteFile(src, flat, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := convertTrace(dt, src, dst); !errors.Is(err, trace.ErrOutOfOrder) {
		t.Fatalf("convert: %v, want ErrOutOfOrder", err)
	}
	onlyFiles(t, dir, "src.metr")

	precious := []byte("what was there before")
	if err := os.WriteFile(dst, precious, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := convertTrace(dt, src, dst); !errors.Is(err, trace.ErrOutOfOrder) {
		t.Fatalf("convert over an existing file: %v, want ErrOutOfOrder", err)
	}
	if got, _ := os.ReadFile(dst); !bytes.Equal(got, precious) {
		t.Fatal("a failed conversion changed the existing destination")
	}

	if err := convertTrace(dt, src, src); !errors.Is(err, trace.ErrOutOfOrder) {
		t.Fatalf("convert onto itself: %v, want ErrOutOfOrder", err)
	}
	if got, _ := os.ReadFile(src); !bytes.Equal(got, flat) {
		t.Fatal("a failed conversion onto the source changed the source")
	}
	onlyFiles(t, dir, "dst.metr", "src.metr")
}

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
