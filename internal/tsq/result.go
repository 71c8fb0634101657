package tsq

import (
	"cmp"
	"slices"

	"netenergy/internal/trace"
)

// AppRow is one app's aggregate inside a window or a whole result.
// EnergyJ is radio energy attributed to the app by the accountant
// (idle floor excluded, matching the ingest headline's total_energy_j);
// Bytes is the app's wire bytes.
type AppRow struct {
	App     uint32  `json:"app"`
	Name    string  `json:"name,omitempty"`
	EnergyJ float64 `json:"energy_j"`
	Bytes   int64   `json:"bytes"`
}

// WindowRow is one epoch-aligned rollup window [StartUS, EndUS).
type WindowRow struct {
	StartUS int64    `json:"start_us"`
	EndUS   int64    `json:"end_us"`
	EnergyJ float64  `json:"energy_j"`
	Bytes   int64    `json:"bytes"`
	Apps    []AppRow `json:"apps,omitempty"`
}

// ScanStats mirrors trace.ScanStats with JSON tags: the pushdown
// counters are part of the result so callers (and tests) can assert
// that the seek index actually skipped blocks.
type ScanStats struct {
	// Files counts the files the scan opened: a sealed file whose blocks
	// the Memo kept, every one the query needed, is not.
	Files         int `json:"files"`
	BlocksTotal   int `json:"blocks_total"`
	BlocksSkipped int `json:"blocks_skipped"`
	BlocksScanned int `json:"blocks_scanned"`
	// BlocksCached counts the scanned blocks the engine's Memo served from
	// memory, neither read nor decoded.
	BlocksCached int `json:"blocks_cached,omitempty"`
	// BytesDecompressed is the uncompressed block payload the scan wrote
	// into the blocks of sealed files it decoded: of each, the bytes
	// through the last row it kept. Unsealed files are read whole and not
	// counted, and a block served from the Memo adds nothing.
	BytesDecompressed int64 `json:"bytes_decompressed,omitempty"`
	RecordsScanned    int64 `json:"records_scanned"`
	RecordsMatched    int64 `json:"records_matched"`
	// WindowsMemoised counts the device-windows answered from the engine's
	// Memo rather than from blocks: with it, a result whose blocks_scanned
	// is 0 still says where its records came from.
	WindowsMemoised int `json:"windows_memoised,omitempty"`
	// WindowsComputed counts the settled device-windows the query computed
	// because the Memo did not hold them, and kept there.
	WindowsComputed int `json:"windows_computed,omitempty"`
	// BlocksRefused counts the blocks the scan decoded whole that the Memo
	// did not keep, as a rule for want of room (see Memo).
	BlocksRefused int `json:"blocks_refused,omitempty"`
}

func statsOf(s trace.ScanStats) ScanStats {
	return ScanStats{
		Files:             s.Files,
		BlocksTotal:       s.BlocksTotal,
		BlocksSkipped:     s.BlocksSkipped,
		BlocksScanned:     s.BlocksScanned,
		BlocksCached:      s.BlocksCached,
		BlocksRefused:     s.BlocksRefused,
		BytesDecompressed: s.BytesDecompressed,
		RecordsScanned:    s.RecordsScanned,
		RecordsMatched:    s.RecordsMatched,
	}
}

func (s *ScanStats) add(o ScanStats) {
	s.Files += o.Files
	s.BlocksTotal += o.BlocksTotal
	s.BlocksSkipped += o.BlocksSkipped
	s.BlocksScanned += o.BlocksScanned
	s.BlocksCached += o.BlocksCached
	s.BytesDecompressed += o.BytesDecompressed
	s.RecordsScanned += o.RecordsScanned
	s.RecordsMatched += o.RecordsMatched
	s.WindowsMemoised += o.WindowsMemoised
	s.WindowsComputed += o.WindowsComputed
	s.BlocksRefused += o.BlocksRefused
}

// Result is one query's answer. Rows are sorted by energy descending
// (app ID ascending on ties) — deterministic for identical inputs.
type Result struct {
	FromUS   int64 `json:"from_us"`
	ToUS     int64 `json:"to_us"`
	WindowUS int64 `json:"window_us,omitempty"`

	Devices      int     `json:"devices"`
	Records      int64   `json:"records"`
	TotalEnergyJ float64 `json:"total_energy_j"`
	TotalBytes   int64   `json:"total_bytes"`

	Apps    []AppRow    `json:"apps"`
	Windows []WindowRow `json:"windows,omitempty"`

	// Downsampled marks results that include retention rollups: those
	// contributions are window-granular, so a query bound cutting
	// through a rollup window includes the whole window.
	Downsampled bool `json:"downsampled,omitempty"`

	Scan ScanStats `json:"scan"`
}

// Merge folds other into r: app rows merge by ID, windows by start,
// counters add. Results over disjoint device sets combine this way —
// window boundaries are epoch-aligned, so rows line up without
// re-bucketing. Call Finalize afterwards to re-sort and apply top-N.
func (r *Result) Merge(other *Result) {
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
	f := newFold(r, len(other.Windows), 0)
	f.add(WindowRow{Apps: other.Apps}, true, false)
	for _, w := range other.Windows {
		f.add(w, false, true)
	}
	f.finish()
	r.Downsampled = r.Downsampled || other.Downsampled
	r.Scan.add(other.Scan)
}

// Finalize sorts every row list (energy desc, app asc) and truncates to
// topn (0 = keep all). Idempotent.
func (r *Result) Finalize(topn int) {
	r.Apps = sortTruncApps(r.Apps, topn)
	slices.SortFunc(r.Windows, func(a, b WindowRow) int { return cmp.Compare(a.StartUS, b.StartUS) })
	for i := range r.Windows {
		r.Windows[i].Apps = sortTruncApps(r.Windows[i].Apps, topn)
	}
}

// sortTruncApps orders rows by energy and keeps the first topn, or all for
// topn 0. Past topn rows it sorts only the first topn and then inserts
// each later row that beats the last kept one: on a total order the same
// rows in the same order as a whole sort.
func sortTruncApps(rows []AppRow, topn int) []AppRow {
	if topn <= 0 || len(rows) <= topn {
		slices.SortFunc(rows, byEnergy)
		return rows
	}
	top := rows[:topn]
	slices.SortFunc(top, byEnergy)
	for i := topn; i < len(rows); i++ {
		if byEnergy(rows[i], top[topn-1]) < 0 {
			j, _ := slices.BinarySearchFunc(top, rows[i], byEnergy)
			copy(top[j+1:], top[j:topn-1])
			top[j] = rows[i]
		}
	}
	return top
}

// byEnergy is the rows' order: energy descending, app ID ascending.
func byEnergy(a, b AppRow) int {
	if a.EnergyJ != b.EnergyJ {
		if a.EnergyJ > b.EnergyJ {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.App, b.App)
}

// fold adds app and window rows into a Result by app ID and window
// start, in the order it is called in, so the float sums of a query are
// those of its device-then-window order whoever produced the rows.
//
// The whole-range app table is summed as rows arrive. Window rows are
// only recorded, each with the dense per-fold ordinal of its rows' apps,
// and summed window by window in finish: one pass in start order, each
// window's rows in one arena, with no map per window. While a fold is in
// use, nothing else may add rows to its Result, nor change the rows
// handed to add.
type fold struct {
	res  *Result
	ord  map[uint32]int32 // app ID -> ordinal
	app  []int32          // ordinal -> index in res.Apps, or -1
	wins []contrib        // window contributions in call order; the first base are res's own
	base int
	ords []int32 // the ordinal of every row of wins, in order
	// names is the name registered last for each ordinal, if any: finish
	// gives it to the app's rows that have none.
	names []string
}

// contrib is one window contribution: its rows, only read, and where
// their ordinals start in fold.ords.
type contrib struct {
	w   WindowRow
	off int
}

// newFold indexes the rows r already holds: its windows become the first
// contributions, each the start of its window. wins and rows, where the
// caller knows them, are the window contributions and the rows in them
// still to come; they size the fold's tables.
func newFold(r *Result, wins, rows int) *fold {
	f := &fold{res: r, ord: make(map[uint32]int32, len(r.Apps)+min(rows, 256))}
	if wins > 0 {
		f.wins = make([]contrib, 0, len(r.Windows)+wins)
		f.ords = make([]int32, 0, rows)
	}
	for i := range r.Apps {
		f.app[f.ordinal(r.Apps[i].App)] = int32(i)
	}
	for _, w := range r.Windows {
		f.add(w, false, true)
	}
	f.base = len(f.wins)
	return f
}

// ordinal returns app's ordinal, giving it the next one if it has none.
func (f *fold) ordinal(app uint32) int32 {
	o, ok := f.ord[app]
	if !ok {
		o = int32(len(f.app))
		f.ord[app] = o
		f.app = append(f.app, -1)
	}
	return o
}

// name registers name for app, in place of any registered before.
func (f *fold) name(app uint32, name string) {
	o := f.ordinal(app)
	for len(f.names) <= int(o) {
		f.names = append(f.names, "")
	}
	f.names[o] = name
}

// label gives row, of ordinal o, its registered name if it has none.
func (f *fold) label(row *AppRow, o int32) {
	if row.Name == "" && int(o) < len(f.names) {
		row.Name = f.names[o]
	}
}

// add merges w's rows into the whole-range app table when apps is set,
// and records w as a contribution to its window when window is set. The
// first add of an app copies its row; later ones add energy and bytes,
// and give the row a name if it has none.
func (f *fold) add(w WindowRow, apps, window bool) {
	if window {
		f.wins = append(f.wins, contrib{w: w, off: len(f.ords)})
	}
	for _, row := range w.Apps {
		o := f.ordinal(row.App)
		if window {
			f.ords = append(f.ords, o)
		}
		if !apps {
			continue
		}
		if i := f.app[o]; i >= 0 {
			addRow(&f.res.Apps[i], &row)
		} else {
			f.app[o] = int32(len(f.res.Apps))
			f.res.Apps = append(f.res.Apps, row)
		}
	}
}

func addRow(dst, row *AppRow) {
	dst.EnergyJ += row.EnergyJ
	dst.Bytes += row.Bytes
	if dst.Name == "" {
		dst.Name = row.Name
	}
}

// finish sums the recorded contributions into res.Windows, in start
// order. A window's total starts from its base row, if res held one, and
// adds every contribution to it in call order; so do its app rows, whose
// first add copies the row.
func (f *fold) finish() {
	if f.names != nil {
		for o, i := range f.app {
			if i >= 0 {
				f.label(&f.res.Apps[i], int32(o))
			}
		}
	}
	if len(f.wins) == f.base && f.names == nil {
		return // res's windows are as they were
	}
	order := f.byStart()

	// Two passes over the same windows: the first counts each window's
	// distinct apps, so that the rows get one arena of the right size; the
	// second sums. slot[o] is the arena index of ordinal o's row in the
	// current window when it is at least the window's first index, g0.
	slot := make([]int, len(f.app))
	for i := range slot {
		slot[i] = -1
	}
	windows, rows := 0, 0
	for i := 0; i < len(order); {
		windows++
		g0, start := rows, f.wins[order[i]].w.StartUS
		for ; i < len(order) && f.wins[order[i]].w.StartUS == start; i++ {
			c := &f.wins[order[i]]
			for _, o := range f.ords[c.off : c.off+len(c.w.Apps)] {
				if slot[o] < g0 {
					slot[o] = rows
					rows++
				}
			}
		}
	}
	for i := range slot {
		slot[i] = -1
	}
	arena := make([]AppRow, 0, rows)
	out := make([]WindowRow, 0, windows)
	for i := 0; i < len(order); {
		first := &f.wins[order[i]].w
		row := WindowRow{StartUS: first.StartUS, EndUS: first.EndUS}
		g0, i0 := len(arena), i
		for ; i < len(order) && f.wins[order[i]].w.StartUS == row.StartUS; i++ {
			c := &f.wins[order[i]]
			if int(order[i]) < f.base {
				row.EnergyJ, row.Bytes = c.w.EnergyJ, c.w.Bytes
			} else {
				row.EnergyJ += c.w.EnergyJ
				row.Bytes += c.w.Bytes
			}
			for k, o := range f.ords[c.off : c.off+len(c.w.Apps)] {
				if s := slot[o]; s >= g0 {
					addRow(&arena[s], &c.w.Apps[k])
				} else {
					slot[o] = len(arena)
					arena = append(arena, c.w.Apps[k])
				}
			}
		}
		if f.names != nil {
			for _, n := range order[i0:i] {
				c := &f.wins[n]
				for _, o := range f.ords[c.off : c.off+len(c.w.Apps)] {
					f.label(&arena[slot[o]], o)
				}
			}
		}
		if len(arena) > g0 {
			row.Apps = arena[g0:len(arena):len(arena)]
		}
		out = append(out, row)
	}
	f.res.Windows = out
}

// byStart returns the numbers of f.wins ordered by window start, those of
// one start in call order: a merge sort of the runs in which the calls
// came (one per device, in a query), stable, so O(n log runs).
func (f *fold) byStart() []int32 {
	n := len(f.wins)
	buf := make([]int32, 2*n)
	a, b := buf[:n], buf[n:]
	runs := []int{0}
	for i := range a {
		a[i] = int32(i)
		if i > 0 && f.wins[i].w.StartUS < f.wins[i-1].w.StartUS {
			runs = append(runs, i)
		}
	}
	runs = append(runs, n)
	for len(runs) > 2 {
		next := runs[:1]
		for k := 0; k+1 < len(runs); k += 2 {
			lo, mid, hi := runs[k], runs[k+1], runs[k+1]
			if k+2 < len(runs) {
				hi = runs[k+2]
			}
			i, j := lo, mid
			for o := lo; o < hi; o++ {
				if j == hi || i < mid && f.wins[a[i]].w.StartUS <= f.wins[a[j]].w.StartUS {
					b[o] = a[i]
					i++
				} else {
					b[o] = a[j]
					j++
				}
			}
			next = append(next, hi)
		}
		a, b, runs = b, a, next
	}
	return a
}
