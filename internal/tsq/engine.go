package tsq

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"netenergy/internal/analysis"
	"netenergy/internal/energy"
	"netenergy/internal/trace"
)

// Engine executes queries over segment directories. The zero value is
// ready to use with default energy options and scans every window of
// every query.
type Engine struct {
	Opts energy.Options

	// Memo, when set, serves settled windows without a scan. A
	// long-lived process that answers the same history repeatedly
	// (ingestd) owns one; one-shot callers have no use for it.
	Memo *Memo
}

// QueryDir runs q over every segment file in dir (non-recursive),
// merging the directory's retention rollup (rollup.json) when its
// windows intersect the query range. Files are grouped by device and
// scanned in start-timestamp order, so multi-segment devices replay as
// one stream per window.
func (e Engine) QueryDir(dir string, q Query) (*Result, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		if strings.HasPrefix(name, ".") || strings.HasSuffix(name, ".json") ||
			strings.HasSuffix(name, ".tmp") {
			continue
		}
		paths = append(paths, filepath.Join(dir, name))
	}
	sort.Strings(paths)
	roll, err := readRollup(dir)
	if err != nil {
		return nil, err
	}
	if !roll.overlaps(q) {
		return e.QueryFiles(paths, q)
	}
	// Rows are cut to the top N once, after the rollup's rows are merged:
	// an app cut before the merge would keep only its rollup energy.
	all := q
	all.TopN = 0
	res, err := e.QueryFiles(paths, all)
	if err != nil {
		return nil, err
	}
	mergeRollup(res, roll, q)
	res.Finalize(q.TopN)
	return res, nil
}

// QueryFiles runs q over an explicit file list. The result is finalized
// (sorted, top-N applied); a caller that merges further re-finalizes after
// merging.
func (e Engine) QueryFiles(paths []string, q Query) (*Result, error) {
	res := &Result{
		FromUS:   int64(q.From),
		ToUS:     int64(q.To),
		WindowUS: int64(q.Window),
	}

	// Pass 1: group files by device. Each file is opened once, for its
	// header and its index (or, unsealed, its first block) — unless the
	// Memo holds its index, when a stat is all it takes. An empty file
	// holds no record: it is one created a moment ago, its header not yet
	// written, or one a crash left so.
	var query uint64
	if e.Memo != nil {
		query = e.Memo.begin()
	}
	byDevice := map[string][]segment{}
	var devices []string
	for _, path := range paths {
		seg, err := e.segment(path, query)
		if errors.Is(err, errEmptyFile) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("tsq: %s: %w", path, err)
		}
		if _, ok := byDevice[seg.device]; !ok {
			devices = append(devices, seg.device)
		}
		byDevice[seg.device] = append(byDevice[seg.device], seg)
	}
	sort.Strings(devices)

	// Pass 2: every device's windows, in window order, whether a window
	// was scanned just now or memoised by an earlier query.
	var stats trace.ScanStats
	memoised, computed := 0, 0
	params := e.memoParams(q)
	all := make([][]*partial, len(devices))
	wins, rows := 0, 0
	for i, device := range devices {
		parts, hits, misses, err := e.deviceWindows(device, byDevice[device], q, params, &stats)
		if err != nil {
			return nil, err
		}
		memoised += hits
		computed += misses
		all[i] = parts
		for _, p := range parts {
			if p.records > 0 {
				wins++
				rows += len(p.rows)
			}
		}
	}

	// The fold, in device-then-window order: the order the float sums are
	// defined in.
	if q.Window == 0 {
		wins = 0
	}
	f := newFold(res, wins, rows)
	for _, parts := range all {
		before := res.Records
		for _, p := range parts {
			if p.records == 0 {
				continue
			}
			res.Records += p.records
			res.TotalEnergyJ += p.energy
			res.TotalBytes += p.bytes
			f.add(WindowRow{
				StartUS: int64(p.start),
				EndUS:   int64(p.start + q.Window),
				EnergyJ: p.energy,
				Bytes:   p.bytes,
				Apps:    p.rows,
			}, true, q.Window > 0)
			// Only names registered inside the query range are visible —
			// resolution is best-effort, rows without one carry the
			// numeric ID alone — and the last registration wins.
			for _, r := range p.names {
				f.name(r.app, r.name)
			}
		}
		if res.Records > before {
			res.Devices++
		}
	}
	f.finish()
	res.Scan = statsOf(stats)
	res.Scan.WindowsMemoised = memoised
	res.Scan.WindowsComputed = computed
	res.Finalize(q.TopN)
	return res, nil
}

// segment is what pass 1 keeps of one file: what orders it among its
// device's files, which windows its records can fall in, and — sealed —
// its index, which pass 2 scans it through, the blocks the Memo keeps of
// it, and the identity the Memo names it by.
type segment struct {
	path   string
	device string
	start  trace.Timestamp // from the header
	ix     *trace.Index    // the footer index; nil = unsealed, so may still change

	// Every record lies in [first, last]. A sealed file's bounds are its
	// index's. An unsealed file may still grow, so its last is the
	// maximum; its first is its first record's timestamp where the
	// container keeps records in time order, and the minimum otherwise.
	first, last trace.Timestamp

	// size and mtime are those of the descriptor the index was read
	// through: a stat of the path could describe a file sealed since.
	size, mtime int64

	// ident is id(), kept from pass 1 of a sealed file with a Memo.
	ident string
	kept  trace.BlockCache // nil without a Memo, or when it holds another index for the file
	f     *os.File         // pass 2's descriptor of a sealed file, from its first read on
}

// sealed reports whether the file has a footer index, so will never change.
func (s *segment) sealed() bool { return s.ix != nil }

// id is the file's identity: what the Memo keys it by, alone or in a
// contributor set.
func (s *segment) id() string {
	b := make([]byte, 0, len(s.path)+48)
	b = append(append(b, s.path...), 0)
	b = append(strconv.AppendInt(b, s.size, 10), 0)
	b = append(strconv.AppendInt(b, s.mtime, 10), 0)
	return string(b)
}

// overlaps reports whether the file can hold a record inside r.
func (s *segment) overlaps(r trace.TimeRange) bool {
	return s.first < r.To && s.last >= r.From
}

// scan runs one range of pass 2 over the file. A sealed file is scanned
// through the index pass 1 read, its kept blocks served from memory; the
// others are read through readerAt. An unsealed
// file, which may have grown since pass 1, is opened and streamed by
// ScanFile.
func (s *segment) scan(opt trace.ScanOptions, stats *trace.ScanStats, fn func(*trace.RecordBatch) error) error {
	if !s.sealed() {
		_, err := trace.ScanFile(s.path, opt, stats, fn)
		return err
	}
	return s.ix.Scan(readerAt{s, stats}, s.kept, opt, stats, fn)
}

// readerAt reads a sealed segment for pass 2 on a descriptor opened at the
// first block the Memo does not keep, and kept for the rest of the query;
// fstat must show it is still the file the index came from.
type readerAt struct {
	s     *segment
	stats *trace.ScanStats
}

func (r readerAt) ReadAt(p []byte, off int64) (int, error) {
	s := r.s
	if s.f == nil {
		f, err := os.Open(s.path)
		if err != nil {
			return 0, err
		}
		st, err := f.Stat()
		if err == nil && (st.Size() != s.size || st.ModTime().UnixNano() != s.mtime) {
			err = fmt.Errorf("changed since its index was read: size %d, mtime %d; was %d, %d",
				st.Size(), st.ModTime().UnixNano(), s.size, s.mtime)
		}
		if err != nil {
			f.Close()
			return 0, err
		}
		s.f = f
		r.stats.Files++
	}
	return s.f.ReadAt(p, off)
}

// segment is pass 1 over one file for the query the Memo numbered query.
// With a Memo, a sealed file whose identity it knows is not opened: its
// index comes from the Memo. Any other file is read by statSegment, and
// the Memo keeps its index if it is sealed.
func (e Engine) segment(path string, query uint64) (segment, error) {
	if e.Memo == nil {
		return statSegment(path)
	}
	if st, err := os.Stat(path); err == nil {
		seg := segment{path: path, size: st.Size(), mtime: st.ModTime().UnixNano()}
		id := seg.id()
		if ix, kept := e.Memo.index(id, query); ix != nil {
			seg = sealedSegment(path, ix, seg.size, seg.mtime)
			seg.ident, seg.kept = id, kept
			return seg, nil
		}
	}
	seg, err := statSegment(path)
	if err == nil && seg.sealed() {
		seg.ident = seg.id()
		seg.kept = e.Memo.keepIndex(seg.ident, seg.ix, query)
	}
	return seg, err
}

// errEmptyFile is statSegment's answer for a file of no bytes.
var errEmptyFile = errors.New("empty file")

func statSegment(path string) (segment, error) {
	seg := segment{path: path, first: math.MinInt64, last: math.MaxInt64}
	f, err := os.Open(path)
	if err != nil {
		return seg, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return seg, err
	}
	if st.Size() == 0 {
		return seg, errEmptyFile
	}
	ix, err := trace.ReadIndex(f, st.Size())
	if err != nil {
		return seg, err
	}
	if ix != nil {
		return sealedSegment(path, ix, st.Size(), st.ModTime().UnixNano()), nil
	}
	// The index probe only used ReadAt: f is still at offset 0.
	br, err := trace.NewBatchReader(f)
	if err != nil {
		return seg, err
	}
	seg.device, seg.start = br.Device(), br.Start()
	// METR-3's writer rejects a record older than its predecessor, while a
	// flat stream may hold any order.
	if br.Format() == trace.FormatColumnar {
		// The first record bounds the file from below. A file with no whole
		// block yet keeps the minimum: the scan will see whatever it has by
		// then.
		if b, err := br.Next(); err == nil && b.Len() > 0 {
			seg.first = b.TS[0]
		}
	}
	return seg, nil
}

// sealedSegment is pass 1's view of a sealed file of this size and mtime,
// read through ix.
func sealedSegment(path string, ix *trace.Index, size, mtime int64) segment {
	seg := segment{path: path, device: ix.Device(), start: ix.Start(), ix: ix, size: size, mtime: mtime,
		first: math.MaxInt64, last: math.MinInt64}
	for _, b := range ix.Blocks() {
		if b.Count > 0 {
			seg.first, seg.last = min(seg.first, b.First), max(seg.last, b.Last)
		}
	}
	return seg
}

// memoParams is what, besides its files, a partial of q depends on — the
// half of a memo key all of q's windows share — or "" when q's windows
// cannot be memoised: no Memo, no windows, or an app filter.
func (e Engine) memoParams(q Query) string {
	if e.Memo == nil || q.Window <= 0 || len(q.Apps) > 0 {
		return ""
	}
	return fmt.Sprintf("%d %+v", q.Window, e.Opts)
}

// settled is one settled window of a device (see Memo).
type settled struct {
	start trace.Timestamp
	files string // memoKey.files: the identities of its contributing files
	part  *partial
}

// settledWindows lists, in time order, the windows of a windowed q that
// are settled for a device with these files. It gives up — nothing is
// settled — when the files would touch more windows than a query may ask
// for.
func settledWindows(segs []segment, q Query) []settled {
	w := q.Window
	lo := analysis.WindowStart(q.From+w-1, w)
	hi := analysis.WindowStart(q.To, w)
	for i := range segs {
		if !segs[i].sealed() {
			if segs[i].first == math.MinInt64 {
				return nil
			}
			hi = min(hi, analysis.WindowStart(segs[i].first, w))
		}
	}
	// One touch per (window, sealed file that can hold a record of it),
	// sorted by window and then replay order: the run of touches sharing
	// a start is that window's contributor set.
	type touch struct {
		start trace.Timestamp
		seg   int
	}
	var touches []touch
	for i := range segs {
		if !segs[i].sealed() || segs[i].first > segs[i].last {
			continue
		}
		a := max(lo, analysis.WindowStart(segs[i].first, w))
		b := min(hi-w, analysis.WindowStart(segs[i].last, w))
		if a > b {
			continue
		}
		if (b-a)/w >= trace.Timestamp(maxQueryWindows-len(touches)) {
			return nil
		}
		for s := a; s <= b; s += w {
			touches = append(touches, touch{s, i})
		}
	}
	slices.SortFunc(touches, func(a, b touch) int {
		if a.start != b.start {
			return cmp.Compare(a.start, b.start)
		}
		return cmp.Compare(a.seg, b.seg)
	})
	out := make([]settled, 0, len(touches))
	var prev []touch // the run of touches of the window before
	for i := 0; i < len(touches); {
		j := i + 1
		for j < len(touches) && touches[j].start == touches[i].start {
			j++
		}
		run := touches[i:j]
		same := len(run) == len(prev)
		for k := 0; same && k < len(run); k++ {
			same = run[k].seg == prev[k].seg
		}
		var files string
		switch {
		case same:
			files = out[len(out)-1].files // one string per run of one set
		case len(run) == 1:
			files = segs[run[0].seg].ident
		default:
			for _, t := range run {
				files += segs[t.seg].ident
			}
		}
		out = append(out, settled{start: touches[i].start, files: files})
		prev, i = run, j
	}
	return out
}

// deviceWindows returns one device's finished windows over q, in window
// order, how many of them the Memo answered, and how many settled windows
// it computed because the Memo did not hold them. Settled windows the
// Memo holds are served from it; the rest of the range — runs of windows
// it does not hold, windows the range cuts, windows an unsealed file
// reaches, or (params == "") simply everything — is scanned, each run
// restricted to its span by the block pushdown, and what a run settles
// is memoised on the way out.
func (e Engine) deviceWindows(device string, segs []segment, q Query, params string, stats *trace.ScanStats) (parts []*partial, hits, computed int, err error) {
	// Replay order within a device: (start timestamp, path).
	slices.SortFunc(segs, func(a, b segment) int {
		if a.start != b.start {
			return cmp.Compare(a.start, b.start)
		}
		return strings.Compare(a.path, b.path)
	})

	// Cut the memoised windows out of [From, To): runs is what is left,
	// misses the settled windows the runs will compute.
	var misses []settled
	var runs []trace.TimeRange
	cur := q.From
	if params != "" {
		misses = settledWindows(segs, q)
		e.Memo.lookup(params, misses)
		known := misses
		misses = misses[:0]
		for _, k := range known {
			if k.part == nil {
				misses = append(misses, k)
				continue
			}
			parts = append(parts, k.part)
			if k.part.records > 0 {
				hits++
			}
			if k.start > cur {
				runs = append(runs, trace.TimeRange{From: cur, To: k.start})
			}
			cur = k.start + q.Window
		}
	}
	if cur < q.To {
		runs = append(runs, trace.TimeRange{From: cur, To: q.To})
	}

	// Each window lies in one run, so one accumulator takes them all: a
	// window's records reach it file by file in replay order, as they
	// would from a single scan of the whole range.
	acc := analysis.NewWindowedAccumulator(device, q.Window, e.Opts)
	names := map[trace.Timestamp][]appName{} // by window start
	defer func() {
		for i := range segs {
			if segs[i].f != nil {
				segs[i].f.Close()
				segs[i].f = nil
			}
		}
	}()
	for _, run := range runs {
		opt := trace.ScanOptions{Range: run, Apps: q.Apps}
		for i := range segs {
			if !segs[i].overlaps(run) {
				continue
			}
			if err := segs[i].scan(opt, stats, func(b *trace.RecordBatch) error {
				for j, typ := range b.Types {
					if typ == trace.RecAppName {
						// The batch is the scan's buffer: the name is copied.
						start := analysis.WindowStart(b.TS[j], q.Window)
						names[start] = append(names[start], appName{b.App[j], string(b.Bytes(j))})
					}
				}
				acc.FeedBatch(b)
				return nil
			}); err != nil {
				if e.Memo != nil && segs[i].sealed() {
					e.Memo.forget(segs[i].ident)
				}
				return nil, 0, 0, fmt.Errorf("tsq: %s: %w", segs[i].path, err)
			}
		}
	}
	// A sealed file's index was read once, in pass 1, and its entries
	// count once however many runs scanned it: as pruned where the query
	// range misses them.
	for i := range segs {
		if ix := segs[i].ix; ix != nil {
			stats.BlocksTotal += len(ix.Blocks())
			stats.BlocksSkipped += ix.Pruned(q.Range())
		}
	}

	fresh := make(map[trace.Timestamp]*partial, len(misses))
	for _, win := range acc.Finish() {
		p := newPartial(win)
		p.names = names[p.start]
		fresh[p.start] = p
		parts = append(parts, p)
	}
	if len(misses) > 0 {
		for i := range misses {
			if misses[i].part = fresh[misses[i].start]; misses[i].part == nil {
				misses[i].part = &partial{start: misses[i].start} // settled, and empty
			}
		}
		e.Memo.store(params, misses)
	}
	slices.SortFunc(parts, func(a, b *partial) int { return cmp.Compare(a.start, b.start) })
	return parts, hits, len(misses), nil
}

// newPartial reduces a finished window to what a result keeps of it.
// Energy is the attributed total (idle floor excluded), matching the
// ingest headline's total_energy_j definition so the two are directly
// comparable.
func newPartial(win analysis.WindowResult) *partial {
	led := win.Res.Ledger
	p := &partial{start: win.Start, records: win.Records, energy: led.Total, rows: make([]AppRow, 0, len(led.ByApp))}
	//repolint:ordered collection order is irrelevant: rows merge by app ID and are sorted in Finalize before use
	for app, e := range led.ByApp {
		b := led.BytesByApp[app]
		p.rows = append(p.rows, AppRow{App: app, EnergyJ: e, Bytes: b})
	}
	//repolint:ordered summation into a single scalar is order-insensitive for int64
	for _, b := range led.BytesByApp {
		p.bytes += b
	}
	return p
}
