package tsq

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refFold is the map fold the window-major fold replaced, kept as its
// oracle: one map from app ID to row per window, one from window start to
// window, each row added the moment it arrives.
type refFold struct {
	res     *Result
	apps    map[uint32]int
	wins    map[int64]int
	winApps []map[uint32]int
}

func newRefFold(r *Result) *refFold {
	f := &refFold{res: r, apps: refIndexApps(r.Apps), wins: make(map[int64]int, len(r.Windows))}
	for i := range r.Windows {
		f.wins[r.Windows[i].StartUS] = i
		f.winApps = append(f.winApps, refIndexApps(r.Windows[i].Apps))
	}
	return f
}

func refIndexApps(rows []AppRow) map[uint32]int {
	idx := make(map[uint32]int, len(rows))
	for i := range rows {
		idx[rows[i].App] = i
	}
	return idx
}

func refAddRows(dst []AppRow, idx map[uint32]int, rows []AppRow) []AppRow {
	for _, row := range rows {
		if i, ok := idx[row.App]; ok {
			dst[i].EnergyJ += row.EnergyJ
			dst[i].Bytes += row.Bytes
			if dst[i].Name == "" {
				dst[i].Name = row.Name
			}
		} else {
			idx[row.App] = len(dst)
			dst = append(dst, row)
		}
	}
	return dst
}

func (f *refFold) addApps(rows []AppRow) {
	f.res.Apps = refAddRows(f.res.Apps, f.apps, rows)
}

func (f *refFold) addWindow(w WindowRow) {
	i, ok := f.wins[w.StartUS]
	if !ok {
		i = len(f.res.Windows)
		f.wins[w.StartUS] = i
		f.winApps = append(f.winApps, make(map[uint32]int, len(w.Apps)))
		f.res.Windows = append(f.res.Windows, WindowRow{StartUS: w.StartUS, EndUS: w.EndUS})
	}
	row := &f.res.Windows[i]
	row.EnergyJ += w.EnergyJ
	row.Bytes += w.Bytes
	row.Apps = refAddRows(row.Apps, f.winApps[i], w.Apps)
}

// refFillNames is how a query labelled rows after the map fold: a row
// without a name takes the one registered last for its app.
func refFillNames(res *Result, names map[uint32]string) {
	if len(names) == 0 {
		return
	}
	label := func(rows []AppRow) {
		for i := range rows {
			if rows[i].Name == "" {
				rows[i].Name = names[rows[i].App]
			}
		}
	}
	label(res.Apps)
	for i := range res.Windows {
		label(res.Windows[i].Apps)
	}
}

// refFinalize is Finalize as it was, through sort.Slice.
func refFinalize(r *Result, topn int) {
	trunc := func(rows []AppRow) []AppRow {
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].EnergyJ != rows[j].EnergyJ {
				return rows[i].EnergyJ > rows[j].EnergyJ
			}
			return rows[i].App < rows[j].App
		})
		if topn > 0 && len(rows) > topn {
			rows = rows[:topn]
		}
		return rows
	}
	r.Apps = trunc(r.Apps)
	sort.Slice(r.Windows, func(i, j int) bool { return r.Windows[i].StartUS < r.Windows[j].StartUS })
	for i := range r.Windows {
		r.Windows[i].Apps = trunc(r.Windows[i].Apps)
	}
}

// plainResult is Result without its methods: encoding/json encodes it by
// reflection, bit-exactly for every finite float (-0 included).
type plainResult Result

func plainJSON(t testing.TB, r *Result) string {
	t.Helper()
	b, err := json.Marshal((*plainResult)(r))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// foldGen draws the rows the fold oracle is run over: a small pool of
// sparse app IDs, so IDs repeat within and across windows, names on some
// rows, signed zeros and energies of very different sizes, and window
// starts on both sides of the epoch.
type foldGen struct {
	r     *rand.Rand
	apps  []uint32
	width int64
}

func newFoldGen(seed int64) *foldGen {
	r := rand.New(rand.NewSource(seed))
	g := &foldGen{r: r, width: int64(1+r.Intn(3)) * 3600e6}
	for i, n := 0, 1+r.Intn(24); i < n; i++ {
		g.apps = append(g.apps, []uint32{0, 1, 7, 1000, 1 << 20, math.MaxUint32}[r.Intn(6)]+uint32(r.Intn(40)))
	}
	return g
}

func (g *foldGen) energy() float64 {
	switch g.r.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return g.r.Float64() * 1e-9
	case 3:
		return g.r.NormFloat64() * 1e6
	default:
		return g.r.Float64() * 30
	}
}

func (g *foldGen) rows() []AppRow {
	n := g.r.Intn(len(g.apps) + 2)
	if n == 0 && g.r.Intn(2) == 0 {
		return nil
	}
	rows := make([]AppRow, 0, n)
	for i := 0; i < n; i++ {
		row := AppRow{App: g.apps[g.r.Intn(len(g.apps))], EnergyJ: g.energy(), Bytes: g.r.Int63n(1 << 30)}
		if g.r.Intn(5) == 0 {
			row.Name = []string{"", "mail", "com.example.app", "ünïcode"}[g.r.Intn(4)]
		}
		rows = append(rows, row)
	}
	return rows
}

func (g *foldGen) window() WindowRow {
	start := int64(g.r.Intn(40)-12) * g.width
	end := start + g.width
	if g.r.Intn(10) == 0 {
		end = start + 1 // a first add's end is the window's, whatever later ones say
	}
	rows := g.rows()
	var e float64
	var b int64
	for _, r := range rows {
		e += r.EnergyJ
		b += r.Bytes
	}
	return WindowRow{StartUS: start, EndUS: end, EnergyJ: e + g.energy(), Bytes: b, Apps: rows}
}

// result is a finalized Result as a query returns it, or one whose rows
// are in no order.
func (g *foldGen) result() *Result {
	var ref Result
	f := newRefFold(&ref)
	for i, n := 0, g.r.Intn(30); i < n; i++ {
		w := g.window()
		f.addApps(w.Apps)
		f.addWindow(w)
	}
	// A result decoded from JSON may carry any window total, -0 included.
	for i := range ref.Windows {
		if g.r.Intn(4) == 0 {
			ref.Windows[i].EnergyJ = g.energy()
		}
	}
	ref.Devices, ref.Records = g.r.Intn(5), g.r.Int63n(1e6)
	ref.TotalEnergyJ, ref.TotalBytes = g.energy(), g.r.Int63n(1<<40)
	if g.r.Intn(2) == 0 {
		refFinalize(&ref, g.r.Intn(4))
	}
	return &ref
}

// clone deep-copies r, so each fold gets rows of its own.
func clone(r *Result) *Result {
	c := *r
	c.Apps = append([]AppRow(nil), r.Apps...)
	c.Windows = append([]WindowRow(nil), r.Windows...)
	for i := range c.Windows {
		c.Windows[i].Apps = append([]AppRow(nil), r.Windows[i].Apps...)
	}
	if r.Apps == nil {
		c.Apps = nil
	}
	return &c
}

// TestFoldMatchesReference: over random contribution sequences — into an
// empty result and into one that already has rows, with sparse and
// repeated app IDs, empty rows, negative window starts, names on rows and
// name registrations — the window-major fold, and Merge through it, give
// what the map fold and its name fill gave, bit for bit, before and after
// Finalize with and without a top-N cut.
func TestFoldMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		g := newFoldGen(seed)
		base := &Result{}
		if seed%3 != 0 {
			base = g.result()
		}
		got, want := clone(base), clone(base)
		f, ref := newFold(got, g.r.Intn(4), g.r.Intn(40)), newRefFold(want)
		names := map[uint32]string{}
		for i, n := 0, g.r.Intn(60); i < n; i++ {
			if seed%2 == 0 && g.r.Intn(3) == 0 {
				// A name registration, for an app that may have no row.
				app := g.apps[g.r.Intn(len(g.apps))] + uint32(g.r.Intn(2))
				name := []string{"", "reg", "reg2"}[g.r.Intn(3)]
				f.name(app, name)
				names[app] = name
			}
			w := g.window()
			apps, window := g.r.Intn(4) != 0, g.r.Intn(4) != 0
			f.add(w, apps, window)
			if apps {
				ref.addApps(w.Apps)
			}
			if window {
				ref.addWindow(w)
			}
		}
		f.finish()
		refFillNames(want, names)
		// The map fold leaves new windows in arrival order, the new one in
		// start order; Finalize sorts both the same.
		for _, r := range []*Result{got, want} {
			sort.Slice(r.Windows, func(i, j int) bool { return r.Windows[i].StartUS < r.Windows[j].StartUS })
		}
		if a, b := plainJSON(t, got), plainJSON(t, want); a != b {
			t.Fatalf("seed %d: fold gives\n%s\nthe map fold\n%s", seed, a, b)
		}
		topn := g.r.Intn(5)
		got.Finalize(topn)
		refFinalize(want, topn)
		if a, b := plainJSON(t, got), plainJSON(t, want); a != b {
			t.Fatalf("seed %d: finalized fold gives\n%s\nthe map fold\n%s", seed, a, b)
		}

		// Merge: a result with rows takes another's.
		other := g.result()
		got, want = clone(base), clone(base)
		got.Merge(clone(other))
		refMerge(want, clone(other))
		got.Finalize(0)
		refFinalize(want, 0)
		if a, b := plainJSON(t, got), plainJSON(t, want); a != b {
			t.Fatalf("seed %d: Merge gives\n%s\nthe map fold\n%s", seed, a, b)
		}
	}
}

// refMerge is Result.Merge through the map fold.
func refMerge(r, other *Result) {
	if other.FromUS < r.FromUS {
		r.FromUS = other.FromUS
	}
	if other.ToUS > r.ToUS {
		r.ToUS = other.ToUS
	}
	if r.WindowUS == 0 {
		r.WindowUS = other.WindowUS
	}
	r.Devices += other.Devices
	r.Records += other.Records
	r.TotalEnergyJ += other.TotalEnergyJ
	r.TotalBytes += other.TotalBytes
	f := newRefFold(r)
	f.addApps(other.Apps)
	for _, w := range other.Windows {
		f.addWindow(w)
	}
	r.Downsampled = r.Downsampled || other.Downsampled
	r.Scan.add(other.Scan)
}
