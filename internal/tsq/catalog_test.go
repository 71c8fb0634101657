package tsq

import (
	"os"
	"path/filepath"
	"testing"

	"netenergy/internal/energy"
)

// TestCatalogWarmQueryTouchesNoFile: once a node's memo holds a query's
// windows, indexes and blocks, answering it again through the catalog
// lists nothing and stats and opens no segment file — so it answers the
// same with the directory moved away, where a fresh listing fails.
func TestCatalogWarmQueryTouchesNoFile(t *testing.T) {
	dir, traces := writeSegmentDir(t, 2, 2)
	span := traceSpan(traces)
	cat, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()}
	for _, q := range []Query{
		{From: span[0], To: span[1] + 1, Window: hourUS},
		{From: span[0] + hourUS/2, To: span[1] - hourUS/2},
	} {
		want, err := eng.QueryCatalog(cat, q)
		if err != nil {
			t.Fatal(err)
		}
		if want.Records == 0 {
			t.Fatalf("%+v matched nothing", q)
		}
		gone := filepath.Join(t.TempDir(), "gone")
		if err := os.Rename(dir, gone); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.QueryDir(dir, q); err == nil {
			t.Fatal("a listing of a directory that is gone answered")
		}
		got, err := eng.QueryCatalog(cat, q)
		if err != nil {
			t.Fatalf("%+v, warm, directory gone: %v", q, err)
		}
		if a, b := answer(t, got), answer(t, want); a != b {
			t.Fatalf("%+v, warm, directory gone:\n%s\nwant\n%s", q, a, b)
		}
		if err := os.Rename(gone, dir); err != nil {
			t.Fatal(err)
		}
	}
}
