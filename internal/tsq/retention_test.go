package tsq

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"netenergy/internal/energy"
	"netenergy/internal/trace"
)

// TestApplyRetentionStoppedPartWay stops a retention pass after its
// rollup write and after each segment it removes, as a crash there would:
// whatever is on disk then must answer the pre-retention total — through
// a fresh listing and through a catalog opened before the pass — and a
// second pass must remove what the first left without folding it again.
func TestApplyRetentionStoppedPartWay(t *testing.T) {
	src, traces := writeSegmentDir(t, 3, 3)
	span := traceSpan(traces)
	const window = trace.Timestamp(6 * 3600 * 1e6)
	cutoff := span[1] + 1 // every sealed segment is folded
	// At the rollup's width: a windowed answer is what folding keeps.
	q := Query{From: span[0], To: span[1] + 1, Window: window}
	eng := Engine{Opts: energy.DefaultOptions()}
	want := mustQuery(t, eng, src, q)

	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	errStop := errors.New("stopped")
	defer func() { removeSegment = os.Remove }()
	for stop := 0; stop <= len(entries); stop++ {
		dir := t.TempDir()
		for _, ent := range entries {
			b, err := os.ReadFile(filepath.Join(src, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, ent.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		live := Engine{Opts: eng.Opts, Memo: NewMemo()}
		cat, err := OpenCatalog(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := live.QueryCatalog(cat, q); err != nil { // the memo holds every index
			t.Fatal(err)
		}

		removed := 0
		removeSegment = func(path string) error {
			if removed == stop {
				return errStop
			}
			removed++
			return os.Remove(path)
		}
		first, err := eng.ApplyRetention(dir, cutoff, window)
		removeSegment = os.Remove
		if stopped := stop < len(entries); stopped != errors.Is(err, errStop) {
			t.Fatalf("stop after %d removals: ApplyRetention: %v", stop, err)
		}

		check := func(when string) {
			t.Helper()
			got := mustQuery(t, eng, dir, q)
			if !relClose(got.TotalEnergyJ, want.TotalEnergyJ) || !got.Downsampled {
				t.Fatalf("stop after %d removals, %s: total %.1f J (downsampled %v), want %.1f J",
					stop, when, got.TotalEnergyJ, got.Downsampled, want.TotalEnergyJ)
			}
			viaCat, err := live.QueryCatalog(cat, q)
			if err != nil {
				t.Fatalf("stop after %d removals, %s: catalog: %v", stop, when, err)
			}
			if !relClose(viaCat.TotalEnergyJ, want.TotalEnergyJ) {
				t.Fatalf("stop after %d removals, %s: catalog total %.1f J, want %.1f J",
					stop, when, viaCat.TotalEnergyJ, want.TotalEnergyJ)
			}
		}
		check("stopped")

		second, err := eng.ApplyRetention(dir, cutoff, window)
		if err != nil {
			t.Fatal(err)
		}
		if first.RecordsFolded+second.RecordsFolded != want.Records ||
			first.FilesRemoved+second.FilesRemoved != len(entries) {
			t.Fatalf("stop after %d removals: passes %+v then %+v, want %d records folded and %d files removed in all",
				stop, first, second, want.Records, len(entries))
		}
		check("after a second pass")
	}
}
