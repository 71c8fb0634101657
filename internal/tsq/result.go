package tsq

import (
	"sort"

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
	f := newFold(r)
	f.addApps(other.Apps)
	for _, w := range other.Windows {
		f.addWindow(w)
	}
	r.Downsampled = r.Downsampled || other.Downsampled
	r.Scan.add(other.Scan)
}

// Finalize sorts every row list (energy desc, app asc) and truncates to
// topn (0 = keep all). Idempotent.
func (r *Result) Finalize(topn int) {
	r.Apps = sortTruncApps(r.Apps, topn)
	sort.Slice(r.Windows, func(i, j int) bool { return r.Windows[i].StartUS < r.Windows[j].StartUS })
	for i := range r.Windows {
		r.Windows[i].Apps = sortTruncApps(r.Windows[i].Apps, topn)
	}
}

func sortTruncApps(rows []AppRow, topn int) []AppRow {
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

// fold adds app and window rows into a Result by app ID and window
// start. It keeps its indexes from one add to the next, so folding the
// ~800 device-windows of a wide query is linear in the rows added, and
// it adds in the order it is called in, so the float sums of a query
// are those of its device-then-window order whoever produced the rows.
// While a fold is in use, nothing else may add rows to its Result.
type fold struct {
	res     *Result
	apps    map[uint32]int   // app ID -> index in res.Apps
	wins    map[int64]int    // window start -> index in res.Windows
	winApps []map[uint32]int // per res.Windows entry: app ID -> index in its Apps
}

// newFold indexes the rows r already holds.
func newFold(r *Result) *fold {
	f := &fold{res: r, apps: indexApps(r.Apps), wins: make(map[int64]int, len(r.Windows))}
	for i := range r.Windows {
		f.wins[r.Windows[i].StartUS] = i
		f.winApps = append(f.winApps, indexApps(r.Windows[i].Apps))
	}
	return f
}

func indexApps(rows []AppRow) map[uint32]int {
	idx := make(map[uint32]int, len(rows))
	for i := range rows {
		idx[rows[i].App] = i
	}
	return idx
}

// addRows merges rows into dst by app ID; rows is only read, never kept.
func addRows(dst []AppRow, idx map[uint32]int, rows []AppRow) []AppRow {
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

// addApps merges rows into the result's whole-range app table.
func (f *fold) addApps(rows []AppRow) {
	f.res.Apps = addRows(f.res.Apps, f.apps, rows)
}

// addWindow merges w into the result's window of the same start.
func (f *fold) addWindow(w WindowRow) {
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
	row.Apps = addRows(row.Apps, f.winApps[i], w.Apps)
}
