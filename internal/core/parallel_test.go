package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"netenergy/internal/obs"
	"netenergy/internal/synthgen"
)

// genFleetDir writes a small on-disk fleet once per test/benchmark run.
func genFleetDir(tb testing.TB, users, days int) string {
	tb.Helper()
	dir := tb.TempDir()
	if _, err := synthgen.GenerateFleet(synthgen.Small(users, days), dir); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// genFlatFleetDir writes the same fleet as flat METR1 files, which nothing
// but a test puts on disk any more: they have no footer index, so loading
// them is the streaming fallback.
func genFlatFleetDir(tb testing.TB, users, days int) string {
	tb.Helper()
	dir := tb.TempDir()
	for _, dt := range synthgen.GenerateInMemory(synthgen.Small(users, days)) {
		f, err := os.Create(filepath.Join(dir, dt.Device+".metr"))
		if err != nil {
			tb.Fatal(err)
		}
		if err := dt.Serialize(f); err != nil {
			tb.Fatal(err)
		}
		if err := f.Close(); err != nil {
			tb.Fatal(err)
		}
	}
	return dir
}

// TestOpenParallelMatchesOpen: the parallel loader must produce the same
// study as the sequential one, device order included.
func TestOpenParallelMatchesOpen(t *testing.T) {
	dir := genFleetDir(t, 4, 2)
	seq, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	par, err := OpenParallel(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Devices) != len(par.Devices) {
		t.Fatalf("device counts differ: %d vs %d", len(seq.Devices), len(par.Devices))
	}
	for i := range seq.Devices {
		if seq.Devices[i].Device != par.Devices[i].Device {
			t.Errorf("device order differs at %d: %s vs %s",
				i, seq.Devices[i].Device, par.Devices[i].Device)
		}
		a, b := seq.Devices[i].Energy.Ledger.Total, par.Devices[i].Energy.Ledger.Total
		if math.Abs(a-b) > 1e-9*(1+a) {
			t.Errorf("device %s energy differs: %v vs %v", seq.Devices[i].Device, a, b)
		}
	}
	hs, hp := seq.Headline(), par.Headline()
	if math.Abs(hs.BackgroundFraction-hp.BackgroundFraction) > 1e-12 {
		t.Errorf("headline differs: %v vs %v", hs.BackgroundFraction, hp.BackgroundFraction)
	}
	if math.Abs(seq.Networks.CellularJ-par.Networks.CellularJ) > 1e-9*(1+seq.Networks.CellularJ) {
		t.Errorf("network totals differ: %v vs %v", seq.Networks.CellularJ, par.Networks.CellularJ)
	}
}

// TestOpenParallelBlockedFleet: a fleet stored in the blocked container
// gentrace writes must load identically to the same fleet in flat files,
// which take the streaming fallback — including when the worker budget
// exceeds the file count, which turns on intra-file block-parallel decoding.
func TestOpenParallelBlockedFleet(t *testing.T) {
	users, days := 3, 2
	flat := genFlatFleetDir(t, users, days)
	blocked := genFleetDir(t, users, days)
	ref, err := Open(flat)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 16} { // 16 > 3 files -> inner block parallelism
		got, err := OpenParallel(blocked, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got.Devices) != len(ref.Devices) {
			t.Fatalf("workers=%d: device counts differ: %d vs %d",
				workers, len(got.Devices), len(ref.Devices))
		}
		for i := range ref.Devices {
			if ref.Devices[i].Device != got.Devices[i].Device {
				t.Errorf("workers=%d: device order differs at %d", workers, i)
			}
			a, b := ref.Devices[i].Energy.Ledger.Total, got.Devices[i].Energy.Ledger.Total
			if math.Abs(a-b) > 1e-9*(1+a) {
				t.Errorf("workers=%d: device %s energy differs: %v vs %v",
					workers, ref.Devices[i].Device, a, b)
			}
		}
		if math.Abs(ref.Networks.CellularJ-got.Networks.CellularJ) > 1e-9*(1+ref.Networks.CellularJ) {
			t.Errorf("workers=%d: network totals differ", workers)
		}
	}
}

// TestReportIdenticalForEveryWorkerCount: the report is the same bytes
// whether the fleet was generated in memory (Run) or opened from disk on 1,
// 2 or 8 workers, on one core or four, with every section timing itself
// into a shared registry from whichever goroutine renders it (run under
// -race: sections evaluate concurrently over the same devices).
func TestReportIdenticalForEveryWorkerCount(t *testing.T) {
	cfg := synthgen.Small(5, 4)
	dir := t.TempDir()
	if _, err := synthgen.GenerateFleet(cfg, dir); err != nil {
		t.Fatal(err)
	}
	render := func(s *Study, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		s.Instrument(reg)
		var buf bytes.Buffer
		if err := s.WriteReport(&buf); err != nil {
			t.Fatal(err)
		}
		if n := len(reg.Snapshot().Histograms); n != 14 {
			t.Errorf("%d stage histograms recorded, want one per section", n)
		}
		return buf.Bytes()
	}
	var want []byte
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		reports := map[string][]byte{"Run": render(Run(cfg))}
		for _, workers := range []int{1, 2, 8} {
			reports[fmt.Sprintf("OpenParallel(%d)", workers)] = render(OpenParallel(dir, workers))
		}
		runtime.GOMAXPROCS(prev)
		if want == nil {
			want = reports["OpenParallel(1)"]
		}
		for name, got := range reports {
			if !bytes.Equal(got, want) {
				t.Errorf("GOMAXPROCS=%d: %s report differs from the single-worker one (%d vs %d bytes)",
					procs, name, len(got), len(want))
			}
		}
	}
}

// TestWriteSectionsError: a failing section's error is the report's, and w
// holds the sections before it, whole, and nothing else — whichever
// goroutine got to which section first.
func TestWriteSectionsError(t *testing.T) {
	boom := errors.New("boom")
	text := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	sections := []func(io.Writer) error{
		text("one\n"), text("two\n"),
		func(w io.Writer) error {
			if _, err := io.WriteString(w, "partial, and then"); err != nil {
				return err
			}
			return boom
		},
		text("four\n"),
		func(io.Writer) error { return errors.New("a later failure must not win") },
	}
	for _, workers := range []int{0, 1, 2, 8} {
		for round := 0; round < 20; round++ {
			var buf bytes.Buffer
			if err := writeSections(&buf, workers, sections); err != boom {
				t.Fatalf("workers=%d: err = %v, want the third section's", workers, err)
			}
			if got := buf.String(); got != "one\n\ntwo\n" {
				t.Fatalf("workers=%d: wrote %q", workers, got)
			}
		}
		var buf bytes.Buffer
		if err := writeSections(&buf, workers, sections[:2]); err != nil || buf.String() != "one\n\ntwo\n" {
			t.Fatalf("workers=%d: clean run wrote %q, err %v", workers, buf.String(), err)
		}
	}
}

// BenchmarkOpenParallel shows the loader on a multi-device fleet: six files
// on 1 and 4 workers (and one per core beyond that) — more files than
// workers, the case every real fleet is in, where each file is decoded by
// the one goroutine that loads it — and on 16, where the surplus workers
// decode blocks inside each file. The gain tracks available cores; on a
// single-core box the sub-benchmarks tie.
func BenchmarkOpenParallel(b *testing.B) {
	dir := genFleetDir(b, 6, 2)
	workerCounts := []int{1, 4, 16}
	if n := runtime.NumCPU(); n > 4 && n != 16 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := OpenParallel(dir, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
