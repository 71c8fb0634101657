package tsq

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
// maintains. It is replaced whole (see writeRollup), and it lists every
// segment it folded before any of them is removed: a query skips a
// listed segment still on disk, and the next retention pass removes it
// without folding it again, so a pass that stops anywhere neither drops
// nor double-counts a record.
const rollupName = "rollup.json"

// rollupFile is the on-disk schema.
type rollupFile struct {
	Version  int         `json:"version"`
	WindowUS int64       `json:"window_us"`
	Devices  int         `json:"devices"`
	Records  int64       `json:"records"`
	Windows  []WindowRow `json:"windows"`
	// Folded is every segment the windows hold, in the order it was
	// folded. A name is never given to a second segment (a writer numbers
	// its files past every name here), so it is what queries and later
	// passes go by; size and index CRC are what a pass checks before it
	// removes a file of that name.
	Folded []foldedSegment `json:"folded,omitempty"`
}

// foldedSegment is one segment a rollup holds.
type foldedSegment struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
	CRC  uint32 `json:"index_crc32c"`
}

// folded is the segments roll (nil: none) folded, by name, or nil.
func (roll *rollupFile) folded() map[string]foldedSegment {
	if roll == nil || len(roll.Folded) == 0 {
		return nil
	}
	byName := make(map[string]foldedSegment, len(roll.Folded))
	for _, f := range roll.Folded {
		byName[f.Name] = f
	}
	return byName
}

// RetentionReport summarises one ApplyRetention pass.
type RetentionReport struct {
	FilesRemoved  int   `json:"files_removed"`
	FilesKept     int   `json:"files_kept"`
	RecordsFolded int64 `json:"records_folded"`
}

// removeSegment removes a folded segment file: os.Remove, but for tests
// that stop a pass part way.
var removeSegment = os.Remove

// ApplyRetention folds every sealed segment in dir whose newest record
// is older than cutoff into the directory rollup at the given window
// width, then removes the segment. A segment the rollup already lists —
// one an earlier pass folded and stopped before removing — is removed
// without being folded again. The width must match an existing rollup's
// (mixing widths would mis-bucket history).
func (e Engine) ApplyRetention(dir string, cutoff, window trace.Timestamp) (RetentionReport, error) {
	var rep RetentionReport
	if window <= 0 {
		return rep, fmt.Errorf("tsq: retention window must be positive")
	}
	roll, _, err := readRollup(dir)
	if err != nil {
		return rep, err
	}
	if roll == nil {
		roll = &rollupFile{Version: 1, WindowUS: int64(window)}
	} else if roll.WindowUS != int64(window) {
		return rep, fmt.Errorf("tsq: rollup window %dus does not match requested %dus",
			roll.WindowUS, int64(window))
	}
	folded := roll.folded()

	entries, err := os.ReadDir(dir)
	if err != nil {
		return rep, err
	}
	// Removable segments are folded per device, not per file: the radio
	// accountant is stateful across a device's stream, so a device split
	// over several segments must replay as one ordered stream — exactly
	// what QueryFiles does — or tail energy at each split boundary would
	// be mis-bucketed.
	byDevice := map[string][]segment{}
	var devices []string
	for _, ent := range entries {
		if ent.IsDir() || ent.Name() == rollupName {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		seg, err := Engine{}.statSegment(path, 0)
		if f, ok := folded[ent.Name()]; ok {
			if err != nil || !seg.sealed() || seg.size != f.Size || seg.ix.CRC() != f.CRC {
				return rep, fmt.Errorf("tsq: %s: the rollup folded a segment of this name, size %d and index CRC %08x; this is not it",
					path, f.Size, f.CRC)
			}
			if err := removeSegment(path); err != nil {
				return rep, err
			}
			rep.FilesRemoved++
			continue
		}
		if err != nil || !seg.sealed() || seg.first > seg.last || seg.last >= cutoff {
			rep.FilesKept++
			continue // not a segment at all, unsealed, empty, or too new
		}
		if _, ok := byDevice[seg.device]; !ok {
			devices = append(devices, seg.device)
		}
		byDevice[seg.device] = append(byDevice[seg.device], seg)
	}
	sort.Strings(devices)
	for _, device := range devices {
		segs := byDevice[device]
		paths := make([]string, len(segs))
		for i := range segs {
			paths[i] = segs[i].path
		}
		// Fold the device's segments at window granularity. The
		// full-range query bound keeps every record; TopN 0 keeps every
		// app row.
		q := Query{From: math.MinInt64 / 2, To: math.MaxInt64 / 2, Window: window}
		res, err := e.QueryFiles(paths, q)
		if err != nil {
			return rep, fmt.Errorf("tsq: folding %s: %w", device, err)
		}
		// writeRollup re-sorts the rows, so each device folds afresh.
		fresh := Result{Windows: roll.Windows}
		f := newFold(&fresh, len(res.Windows), 0)
		for _, w := range res.Windows {
			f.add(w, false, true)
		}
		f.finish()
		roll.Windows = fresh.Windows
		roll.Devices += res.Devices
		roll.Records += res.Records
		rep.RecordsFolded += res.Records
		for i := range segs {
			roll.Folded = append(roll.Folded, foldedSegment{Name: filepath.Base(segs[i].path), Size: segs[i].size, CRC: segs[i].ix.CRC()})
		}

		// The rollup, naming the segments, is on disk before any of them
		// is removed.
		if err := writeRollup(dir, roll); err != nil {
			return rep, err
		}
		for _, path := range paths {
			if err := removeSegment(path); err != nil {
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

// readRollup reads dir's rollup, nil when there is none, and the identity
// of the file it was read from.
func readRollup(dir string) (*rollupFile, os.FileInfo, error) {
	f, err := os.Open(filepath.Join(dir, rollupName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	b, err := io.ReadAll(f)
	if err != nil {
		return nil, nil, err
	}
	var roll rollupFile
	if err := json.Unmarshal(b, &roll); err != nil {
		return nil, nil, fmt.Errorf("tsq: corrupt %s: %w", rollupName, err)
	}
	if roll.WindowUS <= 0 {
		return nil, nil, fmt.Errorf("tsq: corrupt %s: non-positive window", rollupName)
	}
	return &roll, info, nil
}

// writeRollup replaces dir's rollup with roll: it writes a temporary file,
// syncs it, renames it into place and syncs the directory, so that a crash
// leaves the old rollup or the new one, and the new one is on disk before
// the caller removes what it folded.
func writeRollup(dir string, roll *rollupFile) error {
	// Deterministic bytes: windows sorted by start, rows by energy.
	sorted := Result{Windows: roll.Windows}
	sorted.Finalize(0)
	roll.Windows = sorted.Windows
	b, err := json.MarshalIndent(roll, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, rollupName+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // a no-op once renamed
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, rollupName)); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
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
