package tsq

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"netenergy/internal/trace"
)

// Retention: sealed segments wholly older than a cutoff are folded into
// a downsampled rollup (per-window, per-app energy at a fixed width)
// stored as rollup.json beside the segments, then deleted. Queries over
// a retained range are answered from the rollup at window granularity —
// Result.Downsampled marks such answers. Unsealed segments (no footer
// index) are never retained: they are still being written.

// rollupName is the sidecar file QueryDir merges and ApplyRetention
// maintains. It is atomically replaced (tmp + rename), so a crashed
// retention pass leaves either the old or the new rollup, never a torn
// one — though it may leave an already-folded segment on disk, which is
// benign double-retention work, not data loss, because folding happens
// before deletion.
const rollupName = "rollup.json"

// rollupFile is the on-disk schema.
type rollupFile struct {
	Version  int         `json:"version"`
	WindowUS int64       `json:"window_us"`
	Devices  int         `json:"devices"`
	Records  int64       `json:"records"`
	Windows  []WindowRow `json:"windows"`
}

// RetentionReport summarises one ApplyRetention pass.
type RetentionReport struct {
	FilesRemoved  int   `json:"files_removed"`
	FilesKept     int   `json:"files_kept"`
	RecordsFolded int64 `json:"records_folded"`
}

// ApplyRetention folds every sealed segment in dir whose newest record
// is older than cutoff into the directory rollup at the given window
// width, then removes the segment. The width must match an existing
// rollup's (mixing widths would mis-bucket history).
func (e Engine) ApplyRetention(dir string, cutoff, window trace.Timestamp) (RetentionReport, error) {
	var rep RetentionReport
	if window <= 0 {
		return rep, fmt.Errorf("tsq: retention window must be positive")
	}
	roll, err := readRollup(dir)
	if err != nil {
		return rep, err
	}
	if roll == nil {
		roll = &rollupFile{Version: 1, WindowUS: int64(window)}
	} else if roll.WindowUS != int64(window) {
		return rep, fmt.Errorf("tsq: rollup window %dus does not match requested %dus",
			roll.WindowUS, int64(window))
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return rep, err
	}
	// Removable segments are folded per device, not per file: the radio
	// accountant is stateful across a device's stream, so a device split
	// over several segments must replay as one ordered stream — exactly
	// what QueryFiles does — or tail energy at each split boundary would
	// be mis-bucketed.
	byDevice := map[string][]string{}
	var devices []string
	for _, ent := range entries {
		if ent.IsDir() || ent.Name() == rollupName {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		seg, err := statSegment(path)
		if err != nil || !seg.sealed() || seg.first > seg.last || seg.last >= cutoff {
			rep.FilesKept++
			continue // not a segment at all, unsealed, empty, or too new
		}
		if _, ok := byDevice[seg.device]; !ok {
			devices = append(devices, seg.device)
		}
		byDevice[seg.device] = append(byDevice[seg.device], path)
	}
	sort.Strings(devices)
	for _, device := range devices {
		paths := byDevice[device]
		// Fold the device's segments at window granularity. The
		// full-range query bound keeps every record; TopN 0 keeps every
		// app row.
		q := Query{From: math.MinInt64 / 2, To: math.MaxInt64 / 2, Window: window}
		res, err := e.QueryFiles(paths, q)
		if err != nil {
			return rep, fmt.Errorf("tsq: folding %s: %w", device, err)
		}
		// writeRollup re-sorts the rows, so each device folds afresh.
		folded := Result{Windows: roll.Windows}
		f := newFold(&folded, len(res.Windows), 0)
		for _, w := range res.Windows {
			f.add(w, false, true)
		}
		f.finish()
		roll.Windows = folded.Windows
		roll.Devices += res.Devices
		roll.Records += res.Records
		rep.RecordsFolded += res.Records

		// Persist the rollup before deleting the segments: a crash between
		// the two leaves double-countable segments, never lost ones — and
		// the next pass re-folding them is detectable by the count.
		if err := writeRollup(dir, roll); err != nil {
			return rep, err
		}
		for _, path := range paths {
			if err := os.Remove(path); err != nil {
				return rep, err
			}
			rep.FilesRemoved++
		}
	}
	if rep.FilesRemoved == 0 && roll.Records == 0 {
		return rep, nil // nothing folded, don't create an empty rollup
	}
	return rep, writeRollup(dir, roll)
}

func readRollup(dir string) (*rollupFile, error) {
	b, err := os.ReadFile(filepath.Join(dir, rollupName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var roll rollupFile
	if err := json.Unmarshal(b, &roll); err != nil {
		return nil, fmt.Errorf("tsq: corrupt %s: %w", rollupName, err)
	}
	if roll.WindowUS <= 0 {
		return nil, fmt.Errorf("tsq: corrupt %s: non-positive window", rollupName)
	}
	return &roll, nil
}

func writeRollup(dir string, roll *rollupFile) error {
	// Deterministic bytes: windows sorted by start, rows by energy.
	tmp := Result{Windows: roll.Windows}
	tmp.Finalize(0)
	roll.Windows = tmp.Windows
	b, err := json.MarshalIndent(roll, "", "  ")
	if err != nil {
		return err
	}
	tmpPath := filepath.Join(dir, rollupName+".tmp")
	if err := os.WriteFile(tmpPath, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmpPath, filepath.Join(dir, rollupName))
}

// overlaps reports whether any window of the rollup (nil: none) meets
// q's range.
func (roll *rollupFile) overlaps(q Query) bool {
	if roll == nil {
		return false
	}
	for _, w := range roll.Windows {
		if w.meets(q) {
			return true
		}
	}
	return false
}

// meets reports whether the window intersects q's range.
func (w *WindowRow) meets(q Query) bool {
	return w.StartUS < int64(q.To) && w.EndUS > int64(q.From)
}

// mergeRollup folds the rollup's windows that meet q's range into a query
// result, unfinalized, and marks it Downsampled. Contributions are
// window-granular: a query bound cutting through a rollup window includes
// the whole window.
func mergeRollup(res *Result, roll *rollupFile, q Query) {
	filter := map[uint32]bool{}
	for _, a := range q.Apps {
		filter[a] = true
	}
	f := newFold(res, 0, 0)
	for _, w := range roll.Windows {
		if !w.meets(q) {
			continue
		}
		rows := w.Apps
		if len(filter) > 0 {
			rows = nil
			for _, row := range w.Apps {
				if filter[row.App] {
					rows = append(rows, row)
				}
			}
		}
		var energy float64
		var bytes int64
		for _, row := range rows {
			energy += row.EnergyJ
			bytes += row.Bytes
		}
		if len(filter) == 0 {
			energy = w.EnergyJ // includes tail energy of unattributed rows, if any
			bytes = w.Bytes
		}
		res.TotalEnergyJ += energy
		res.TotalBytes += bytes
		f.add(WindowRow{StartUS: w.StartUS, EndUS: w.EndUS, EnergyJ: energy, Bytes: bytes, Apps: rows},
			true, q.Window > 0 && int64(q.Window) == roll.WindowUS)
	}
	f.finish()
	res.Downsampled = true
}
