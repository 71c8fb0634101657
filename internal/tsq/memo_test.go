package tsq

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netenergy/internal/analysis"
	"netenergy/internal/energy"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

const (
	hourUS = trace.Timestamp(3600 * 1e6)
	dayUS  = 24 * hourUS
)

// answer is a result's JSON with the scan block blanked: the memo changes
// how an answer is found, never the answer.
func answer(t testing.TB, res *Result) string {
	t.Helper()
	c := *res
	c.Scan = ScanStats{}
	return mustJSON(t, &c)
}

// mustQuery answers q from dir, failing the test on error.
func mustQuery(t testing.TB, eng Engine, dir string, q Query) *Result {
	t.Helper()
	res, err := eng.QueryDir(dir, q)
	if err != nil {
		t.Fatalf("%+v: %v", q, err)
	}
	return res
}

// sameAsScan holds a memo engine's answer to the zero-value engine's.
func sameAsScan(t testing.TB, memo Engine, dir string, q Query, when string) *Result {
	t.Helper()
	want := answer(t, mustQuery(t, Engine{Opts: memo.Opts}, dir, q))
	res := mustQuery(t, memo, dir, q)
	if got := answer(t, res); got != want {
		t.Fatalf("%s: [%d,%d) window %d topn %d: memo engine answers\n%s\nscan answers\n%s",
			when, q.From, q.To, q.Window, q.TopN, got, want)
	}
	return res
}

// memoCensus counts what m holds — contributor sets, sealed files and
// their kept blocks — and checks that its byte counts are its entries' and
// kept blocks' sums, that every file entry holds its index, and that every
// kept block sits in its file's slot.
func memoCensus(t testing.TB, m *Memo) (sets, files, blocks int) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum, blockSum, indexSum int64
	slots := 0
	for el := m.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*memoEntry)
		sum += e.bytes
		if e.key.params != "" {
			sets++
			continue
		}
		files++
		indexSum += e.bytes
		if e.ix == nil || len(e.blocks) != len(e.ix.Blocks()) {
			t.Errorf("file entry %q holds no index, or the wrong number of block slots", e.key.files)
		}
		for _, b := range e.blocks {
			if b != nil {
				slots++
			}
		}
	}
	for el := m.blocks.Front(); el != nil; el = el.Next() {
		kb := el.Value.(*keptBlock)
		blockSum += kb.size
		blocks++
		if kb.file.blocks[kb.i] != el || m.entries[kb.file.key] == nil {
			t.Errorf("kept block %d of %q is not in its file's slot", kb.i, kb.file.key.files)
		}
	}
	if sum+blockSum != m.bytes || blockSum != m.blockBytes || indexSum != m.indexBytes || len(m.entries) != m.lru.Len() || slots != blocks {
		t.Errorf("memo counts %d bytes (%d of blocks, %d of indexes) in %d entries; it holds %d bytes of entries (%d of indexes) and %d of %d blocks (%d slots) in %d",
			m.bytes, m.blockBytes, m.indexBytes, len(m.entries), sum, indexSum, blockSum, blocks, slots, m.lru.Len())
	}
	return sets, files, blocks
}

// heldWindows is every window m holds, by contributor set and start.
func heldWindows(m *Memo) map[string]*partial {
	m.mu.Lock()
	defer m.mu.Unlock()
	held := map[string]*partial{}
	for key, el := range m.entries {
		for start, p := range el.Value.(*memoEntry).wins {
			width, _, _ := strings.Cut(key.params, " ")
			held[fmt.Sprintf("width %s, files %q, window %d", width, key.files, start)] = p
		}
	}
	return held
}

// holdsFile reports whether m holds an entry for any identity of path.
func holdsFile(m *Memo, path string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for key := range m.entries {
		if key.params == "" && strings.HasPrefix(key.files, path+"\x00") {
			return true
		}
	}
	return false
}

// memoQueries is the shape of every equivalence test: whole-span windows
// of three widths, a range cutting a window at each end, a range far
// wider than the data, a top-N cut, and the two shapes the memo must
// leave alone (unwindowed, app-filtered).
func memoQueries(span [2]trace.Timestamp) []Query {
	from, to := span[0], span[1]+1
	quarter := (to - from) / 4
	return []Query{
		{From: from, To: to, Window: hourUS},
		{From: from, To: to, Window: dayUS},
		{From: from, To: to, Window: 15 * 60 * 1e6},
		{From: from + quarter + 17, To: to - quarter - 23, Window: hourUS},
		{From: math.MinInt64 / 4, To: math.MaxInt64 / 4, Window: dayUS},
		{From: from, To: to, Window: hourUS, TopN: 3},
		{From: from, To: to},
		{From: from, To: to, Window: hourUS, Apps: []uint32{0, 2}},
	}
}

// TestMemoMatchesScan: cold, warm and after eviction, a memo engine's
// answer is the scan's, byte for byte; once warm, windows come from the
// memo and fully covered sealed data is not decoded at all; the shapes
// the window memo leaves alone are served from the blocks the first,
// wide query kept, without a byte decompressed or a file opened; and a
// query on a fresh memo decodes exactly what the zero-value engine does.
func TestMemoMatchesScan(t *testing.T) {
	dir, traces := writeSegmentDir(t, 2, 2)
	span := traceSpan(traces)
	for _, q := range memoQueries(span) {
		plain := mustQuery(t, Engine{Opts: energy.DefaultOptions()}, dir, q)
		fresh := sameAsScan(t, Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()}, dir, q, "fresh")
		if fresh.Scan.BytesDecompressed != plain.Scan.BytesDecompressed || fresh.Scan.BlocksCached != 0 {
			t.Fatalf("[%d,%d) window %d on a fresh memo: scan %+v, without a memo %+v",
				q.From, q.To, q.Window, fresh.Scan, plain.Scan)
		}
	}
	eng := Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()}
	for i, q := range memoQueries(span) {
		cold := sameAsScan(t, eng, dir, q, "cold")
		warm := sameAsScan(t, eng, dir, q, "warm")
		memoisable := q.Window > 0 && len(q.Apps) == 0
		if !memoisable {
			for _, res := range []*Result{cold, warm} {
				if s := res.Scan; s.BlocksScanned == 0 || s.BlocksCached != s.BlocksScanned || s.BytesDecompressed != 0 || s.Files != 0 {
					t.Fatalf("[%d,%d) apps %v after a wide query: scan %+v, want every block from memory", q.From, q.To, q.Apps, s)
				}
			}
		}
		// Only the first query is sure to start cold: a later one may find
		// windows of its width already there.
		if i == 0 && (cold.Scan.WindowsMemoised != 0 || warm.Scan.RecordsScanned >= cold.Scan.RecordsScanned) {
			t.Fatalf("first query: cold scan %+v, warm %+v", cold.Scan, warm.Scan)
		}
		if memoisable && (warm.Scan.WindowsMemoised == 0 || warm.Scan.RecordsScanned > cold.Scan.RecordsScanned) {
			t.Fatalf("[%d,%d) window %d: warm scan %+v, cold %+v", q.From, q.To, q.Window, warm.Scan, cold.Scan)
		}
		if !memoisable && warm.Scan.WindowsMemoised != 0 {
			t.Fatalf("unwindowed or filtered query served from the memo: %+v", warm.Scan)
		}
		if q.From < span[0]-dayUS && warm.Scan.RecordsScanned != 0 {
			t.Fatalf("warm query over fully covered sealed data still decoded records: %+v", warm.Scan)
		}
	}
	// Evict everything (the next store finds itself over budget), then
	// ask again: recomputed, same answers.
	eng.Memo.budget = 0
	mustQuery(t, eng, dir, Query{From: span[0], To: span[1] + 1, Window: 2 * hourUS})
	if got := eng.Memo.Bytes(); got != 0 {
		t.Fatalf("memo holds %d bytes over a zero budget", got)
	}
	eng.Memo.budget = memoBudget
	for i, q := range memoQueries(span) {
		res := sameAsScan(t, eng, dir, q, "after eviction")
		if i == 0 && (res.Scan.BlocksCached != 0 || res.Scan.BytesDecompressed == 0) {
			t.Fatalf("first query after eviction served blocks from memory: %+v", res.Scan)
		}
	}
}

// TestMemoBudget: the memo never holds more than its budget, and kept
// blocks go before any window set or index: at half budget every window
// and index is still held, some blocks are not, and the repeat is answered
// from the memoised windows, byte for byte.
func TestMemoBudget(t *testing.T) {
	dir, traces := writeSegmentDir(t, 3, 3)
	span := traceSpan(traces)
	q := Query{From: span[0], To: span[1] + 1, Window: hourUS}
	eng := Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()}
	first := mustQuery(t, eng, dir, q)
	want := answer(t, first)
	whole := eng.Memo.Bytes()
	winSets, files, blocks := memoCensus(t, eng.Memo)
	if winSets < 6 || whole == 0 || first.Scan.WindowsComputed == 0 {
		t.Fatalf("fixture memoised %d contributor sets in %d bytes: %+v", winSets, whole, first.Scan)
	}
	// A whole-span query decodes every block whole, so it keeps them all,
	// and every file's index: all of it under the one budget.
	if files != 6 || blocks != first.Scan.BlocksScanned || blocks == 0 {
		t.Fatalf("whole-span query kept %d indexes and %d blocks; scanned 6 files, %d blocks",
			files, blocks, first.Scan.BlocksScanned)
	}
	if rest := whole - eng.Memo.Stats().BlockBytes; rest > whole/2 {
		t.Fatalf("fixture: windows and indexes hold %d of %d bytes, more than half", rest, whole)
	}

	// Room for about half: the windows and indexes, and some of the blocks.
	eng.Memo = NewMemo()
	eng.Memo.budget = whole / 2
	res := mustQuery(t, eng, dir, q)
	if got := answer(t, res); got != want {
		t.Fatalf("answer changed under a half budget:\n%s\nwant\n%s", got, want)
	}
	if got := eng.Memo.Bytes(); got > eng.Memo.budget {
		t.Fatalf("memo holds %d bytes, budget %d", got, eng.Memo.budget)
	}
	s, f, b := memoCensus(t, eng.Memo)
	if s != winSets || f != files {
		t.Fatalf("half budget holds %d of %d window sets and %d of %d indexes", s, winSets, f, files)
	}
	if b == 0 || b >= blocks || res.Scan.BlocksRefused != blocks-b {
		t.Fatalf("half budget keeps %d of %d blocks, refused %d", b, blocks, res.Scan.BlocksRefused)
	}
	nonEmpty := 0
	for _, p := range heldWindows(eng.Memo) {
		if p.records > 0 {
			nonEmpty++
		}
	}
	again := mustQuery(t, eng, dir, q)
	if got := answer(t, again); got != want {
		t.Fatalf("answer changed on the repeat:\n%s\nwant\n%s", got, want)
	}
	if again.Scan.WindowsComputed != 0 || again.Scan.WindowsMemoised != nonEmpty {
		t.Fatalf("repeat under a half budget: %+v, want all %d settled windows memoised", again.Scan, nonEmpty)
	}
	if got := eng.Memo.Bytes(); got > eng.Memo.budget {
		t.Fatalf("memo holds %d bytes, budget %d", got, eng.Memo.budget)
	}
	memoCensus(t, eng.Memo)
}

// TestMemoStats: Stats splits what the memo holds by kind, and counts what
// it evicts for want of room by kind: kept blocks first, then, at a zero
// budget, every window and index it held.
func TestMemoStats(t *testing.T) {
	dir, traces := writeSegmentDir(t, 2, 2)
	span := traceSpan(traces)
	eng := Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()}
	mustQuery(t, eng, dir, Query{From: span[0], To: span[1] + 1, Window: hourUS})
	_, files, blocks := memoCensus(t, eng.Memo)
	st := eng.Memo.Stats()
	if st.Bytes != eng.Memo.Bytes() || st.IndexBytes == 0 || st.BlockBytes == 0 || st.Bytes <= st.IndexBytes+st.BlockBytes ||
		st.WindowsEvicted != 0 || st.IndexesEvicted != 0 || st.BlocksEvicted != 0 {
		t.Fatalf("after one wide query within budget: %+v", st)
	}

	// Room for the windows and indexes and half the blocks: storing the
	// windows of another width sheds blocks, and nothing else.
	eng.Memo.budget = st.Bytes - st.BlockBytes/2
	mustQuery(t, eng, dir, Query{From: span[0], To: span[1] + 1, Window: dayUS})
	st = eng.Memo.Stats()
	_, _, kept := memoCensus(t, eng.Memo)
	if st.BlocksEvicted == 0 || st.BlocksEvicted != int64(blocks-kept) || st.WindowsEvicted != 0 || st.IndexesEvicted != 0 {
		t.Fatalf("%d of %d blocks kept under a tighter budget: %+v", kept, blocks, st)
	}

	// No room at all: everything goes, counted.
	held := len(heldWindows(eng.Memo))
	eng.Memo.budget = 0
	mustQuery(t, eng, dir, Query{From: span[0], To: span[1] + 1, Window: 2 * hourUS})
	st = eng.Memo.Stats()
	if st.Bytes != 0 || st.IndexBytes != 0 || st.BlockBytes != 0 ||
		st.WindowsEvicted < int64(held) || st.IndexesEvicted < int64(files) || st.BlocksEvicted < int64(blocks) {
		t.Fatalf("zero budget after %d windows, %d indexes and %d blocks: %+v", held, files, blocks, st)
	}
}

// TestMemoWindowsOutliveBlocks: sealed files keep arriving while wide
// windowed, narrow and wide unwindowed queries alternate, under a budget
// that holds every window and index but not every block. Blocks are shed
// and refused instead of windows and indexes: no settled window is
// computed twice, every index stays, the memo never holds more than its
// budget, and every answer is the scan's.
func TestMemoWindowsOutliveBlocks(t *testing.T) {
	dir := t.TempDir()
	traces := synthgen.GenerateInMemory(synthgen.Small(3, 4))
	span := traceSpan(traces)
	const rounds = 4
	// Round r seals the r-th quarter of every device's records as a file of
	// its own; the queries ask over what has arrived so far.
	arrive := func(dir string, r int) [2]trace.Timestamp {
		for _, dt := range traces {
			lo, hi := r*len(dt.Records)/rounds, (r+1)*len(dt.Records)/rounds
			writeSegment(t, filepath.Join(dir, fmt.Sprintf("%s-%04d.metr3", dt.Device, r)), dt.Device, dt.Records[lo].TS, dt.Records[lo:hi])
		}
		return [2]trace.Timestamp{span[0], span[0] + (span[1]-span[0])*trace.Timestamp(r+1)/rounds}
	}
	queries := func(seen [2]trace.Timestamp) []Query {
		mid := (seen[0] + seen[1]) / 2
		// The unwindowed wide query fills the budget with blocks; the
		// quarter-hour one then stores windows into a full memo.
		return []Query{
			{From: span[0], To: span[1] + 1, Window: hourUS},
			{From: mid, To: mid + hourUS},
			{From: span[0], To: span[1] + 1},
			{From: span[0], To: span[1] + 1, Window: hourUS / 4},
			{From: span[0], To: span[1] + 1, Window: hourUS},
			{From: mid - 2*hourUS, To: mid - hourUS, Apps: []uint32{0, 1}},
		}
	}

	// A dry run on an unbounded memo sizes the budget: past the most the
	// windows and indexes ever hold, short of the whole.
	dry := Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()}
	dry.Memo.budget = math.MaxInt64
	dryDir := t.TempDir()
	var rest, whole int64
	for r := 0; r < rounds; r++ {
		for _, q := range queries(arrive(dryDir, r)) {
			mustQuery(t, dry, dryDir, q)
			rest = max(rest, dry.Memo.Bytes()-dry.Memo.Stats().BlockBytes)
			whole = max(whole, dry.Memo.Bytes())
		}
	}
	budget := rest + (whole-rest)/3
	if whole-rest < 4*rest {
		t.Fatalf("fixture: windows and indexes %d bytes of %d, too few blocks to shed", rest, whole)
	}

	eng := Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()}
	eng.Memo.budget = budget
	last, ever := map[string]*partial{}, map[string]*partial{}
	computed, refused := 0, 0
	for r := 0; r < rounds; r++ {
		for i, q := range queries(arrive(dir, r)) {
			when := fmt.Sprintf("round %d query %d", r, i)
			res := sameAsScan(t, eng, dir, q, when)
			computed += res.Scan.WindowsComputed
			refused += res.Scan.BlocksRefused
			if got := eng.Memo.Bytes(); got > budget {
				t.Fatalf("%s: memo holds %d bytes, budget %d", when, got, budget)
			}
			// A window held now and not after the last query was computed
			// by this one; one held before that was computed twice.
			now := heldWindows(eng.Memo)
			for k := range now {
				if last[k] == nil && ever[k] != nil {
					t.Fatalf("%s: a settled window was computed again: %s", when, k)
				}
				ever[k] = now[k]
			}
			last = now
			if _, files, _ := memoCensus(t, eng.Memo); files != len(traces)*(r+1) {
				t.Fatalf("%s: memo holds %d indexes of the %d sealed files", when, files, len(traces)*(r+1))
			}
		}
	}
	if computed != len(ever) {
		t.Fatalf("%d settled windows computed, %d distinct", computed, len(ever))
	}
	if refused == 0 {
		t.Fatal("no block was refused: the budget was never short")
	}
}

// shifted copies recs with every timestamp moved by delta.
func shifted(recs []trace.Record, delta trace.Timestamp) []trace.Record {
	out := append([]trace.Record(nil), recs...)
	for i := range out {
		out[i].TS += delta
	}
	return out
}

// TestMemoNegativeTimestamps: windows before the epoch align by floor
// division; the memo's window arithmetic must agree with the
// accumulator's on both sides of zero.
func TestMemoNegativeTimestamps(t *testing.T) {
	dir := t.TempDir()
	dt := synthgen.GenerateDevice(synthgen.Small(1, 2), 0)
	mid := dt.Records[len(dt.Records)/2].TS
	recs := shifted(dt.Records, -mid-hourUS/3)
	half := len(recs) / 2
	writeSegment(t, filepath.Join(dir, "neg-0000.metr3"), "neg", recs[0].TS, recs[:half])
	writeSegment(t, filepath.Join(dir, "neg-0001.metr3"), "neg", recs[half].TS, recs[half:])
	if recs[0].TS >= 0 || recs[len(recs)-1].TS <= 0 {
		t.Fatalf("fixture does not straddle the epoch: [%d, %d]", recs[0].TS, recs[len(recs)-1].TS)
	}
	span := [2]trace.Timestamp{recs[0].TS, recs[len(recs)-1].TS}
	eng := Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()}
	for _, q := range memoQueries(span) {
		sameAsScan(t, eng, dir, q, "cold")
		sameAsScan(t, eng, dir, q, "warm")
	}
}

// TestMemoOverlappingFiles: a device that streams again after FIN leaves
// files that overlap in time, so a window can replay records of several
// files, in file order — its partial belongs to that set of files, not
// to any one of them.
func TestMemoOverlappingFiles(t *testing.T) {
	dir := t.TempDir()
	dt := synthgen.GenerateDevice(synthgen.Small(1, 2), 0)
	n := len(dt.Records)
	writeSegment(t, filepath.Join(dir, "again-0000.metr3"), dt.Device, dt.Records[0].TS, dt.Records[:2*n/3])
	writeSegment(t, filepath.Join(dir, "again-0001.metr3"), dt.Device, dt.Records[n/3].TS, dt.Records[n/3:])
	span := traceSpan([]*trace.DeviceTrace{dt})
	eng := Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()}
	for _, q := range memoQueries(span) {
		sameAsScan(t, eng, dir, q, "cold")
		sameAsScan(t, eng, dir, q, "warm")
	}
	// Dropping either file changes who contributes to the windows they
	// shared: those are recomputed, the survivor's own are not.
	q := Query{From: span[0], To: span[1] + 1, Window: hourUS}
	second := filepath.Join(dir, "again-0001.metr3")
	if err := os.Remove(second); err != nil {
		t.Fatal(err)
	}
	res := sameAsScan(t, eng, dir, q, "after the second file is gone")
	if res.Scan.WindowsMemoised == 0 || res.Scan.RecordsScanned == 0 {
		t.Fatalf("expected part memo, part rescan: %+v", res.Scan)
	}
	writeSegment(t, second, dt.Device, dt.Records[n/3].TS, dt.Records[n/3:])
	if err := os.Remove(filepath.Join(dir, "again-0000.metr3")); err != nil {
		t.Fatal(err)
	}
	sameAsScan(t, eng, dir, q, "after the first file is gone")
}

// TestSettledWindowsKeys: every settled window is filed under exactly the
// files that can hold its records, in replay order — also where one file's
// last window is followed directly by another file's first, so that
// consecutive windows have one contributor each but not the same one.
func TestSettledWindowsKeys(t *testing.T) {
	dir := t.TempDir()
	dt := synthgen.GenerateDevice(synthgen.Small(1, 3), 0)
	n := len(dt.Records)
	paths := []string{filepath.Join(dir, "gap-0000.metr3"), filepath.Join(dir, "gap-0001.metr3"), filepath.Join(dir, "gap-0002.metr3")}
	writeSegment(t, paths[0], dt.Device, dt.Records[0].TS, dt.Records[:n/3])
	writeSegment(t, paths[1], dt.Device, dt.Records[n/2].TS, dt.Records[n/2:5*n/6])
	writeSegment(t, paths[2], dt.Device, dt.Records[5*n/6].TS, dt.Records[5*n/6-n/50:])
	eng := Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()}
	var segs []segment
	for _, path := range paths {
		seg, err := eng.segment(nil, &catFile{path: path}, eng.Memo.begin())
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, seg)
	}
	span := traceSpan([]*trace.DeviceTrace{dt})
	ws := settledWindows(segs, Query{From: span[0], To: span[1] + 1, Window: hourUS})
	singles, overlaps := 0, 0
	for i, w := range ws {
		var want string
		var n int
		for _, s := range segs {
			if analysis.WindowStart(s.first, hourUS) <= w.start && w.start <= analysis.WindowStart(s.last, hourUS) {
				want += s.ident
				n++
			}
		}
		if w.files != want {
			t.Fatalf("window %d filed under %q, want %q", w.start, w.files, want)
		}
		if i > 0 && n == 1 && ws[i-1].files != w.files && !strings.Contains(ws[i-1].files, w.files) {
			singles++
		}
		if n > 1 {
			overlaps++
		}
	}
	if singles == 0 || overlaps == 0 {
		t.Fatalf("fixture: %d windows, %d after another file's, %d with two files", len(ws), singles, overlaps)
	}
}

// TestMemoLiveTail follows one device through a segment's life: its last
// file is unsealed and growing, then seals, then the device rolls to a
// new file. Windows the tail can reach are scanned every time; the
// history before it is memoised throughout.
func TestMemoLiveTail(t *testing.T) {
	dir := t.TempDir()
	dt := synthgen.GenerateDevice(synthgen.Small(1, 4), 0)
	n := len(dt.Records)
	// The sealed file ends, and the tail first shows and then grows, all
	// inside one hour: that window keeps changing while sealed data is
	// all a stat can see of it.
	a, b := n/2, n/2
	for hour := dt.Records[n/2].TS / hourUS; dt.Records[a-1].TS/hourUS == hour; a-- {
	}
	for hour := dt.Records[n/2].TS / hourUS; dt.Records[b].TS/hourUS == hour; b++ {
	}
	if b-a < 6 {
		t.Fatalf("fixture hour holds only records [%d,%d)", a, b)
	}
	cut := [...]int{a + (b-a)/3, a + 2*(b-a)/3, 3 * n / 4, n}
	writeSegment(t, filepath.Join(dir, "live-0000.metr3"), dt.Device, dt.Records[0].TS, dt.Records[:cut[0]])

	f, err := os.Create(filepath.Join(dir, "live-0001.metr3"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewColumnWriter(f, dt.Device, dt.Records[cut[0]].TS)
	if err != nil {
		t.Fatal(err)
	}
	grow := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if err := w.Write(&dt.Records[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	eng := Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()}
	q := Query{From: dt.Records[0].TS, To: dt.Records[n-1].TS + 1, Window: hourUS}
	check := func(when string) *Result {
		t.Helper()
		sameAsScan(t, eng, dir, q, when+", cold")
		return sameAsScan(t, eng, dir, q, when+", warm")
	}

	grow(cut[0], cut[1])
	tail := check("unsealed tail")
	if tail.Scan.WindowsMemoised == 0 {
		t.Fatalf("history before an unsealed tail was not memoised: %+v", tail.Scan)
	}
	if tail.Scan.RecordsScanned < int64(cut[1]-cut[0]) {
		t.Fatalf("the unsealed tail was not scanned: %+v", tail.Scan)
	}
	grow(cut[1], cut[2])
	grown := check("grown tail")
	if grown.Records <= tail.Records {
		t.Fatalf("grown tail added no records: %d then %d", tail.Records, grown.Records)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	sealed := check("sealed tail")
	if sealed.Scan.WindowsMemoised <= grown.Scan.WindowsMemoised {
		t.Fatalf("sealing the tail settled no windows: %d then %d memoised",
			grown.Scan.WindowsMemoised, sealed.Scan.WindowsMemoised)
	}
	writeSegment(t, filepath.Join(dir, "live-0002.metr3"), dt.Device, dt.Records[cut[2]].TS, dt.Records[cut[2]:])
	rolled := check("rolled")
	if rolled.Records != int64(n) {
		t.Fatalf("rolled device answers %d records, wrote %d", rolled.Records, n)
	}
}

// TestMemoFileReplaced: a memoised window is keyed by its files'
// identities, so a file deleted by retention or rewritten under its old
// name cannot be answered from what the old bytes produced.
func TestMemoFileReplaced(t *testing.T) {
	dir, traces := writeSegmentDir(t, 2, 2)
	span := traceSpan(traces)
	q := Query{From: span[0], To: span[1] + 1, Window: hourUS}
	eng := Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()}
	before := sameAsScan(t, eng, dir, q, "cold")

	victim := traces[0]
	first := filepath.Join(dir, victim.Device+"-0000.metr3")
	if err := os.Remove(first); err != nil {
		t.Fatal(err)
	}
	gone := sameAsScan(t, eng, dir, q, "file deleted")
	if gone.Records >= before.Records {
		t.Fatalf("deleting a file lost no records: %d then %d", before.Records, gone.Records)
	}

	// Same name, a third of the records it used to hold.
	half := len(victim.Records) / 2
	writeSegment(t, first, victim.Device, victim.Start, victim.Records[:half/3])
	replaced := sameAsScan(t, eng, dir, q, "file replaced")
	if replaced.Records <= gone.Records || replaced.Records >= before.Records {
		t.Fatalf("records: whole %d, deleted %d, replaced %d", before.Records, gone.Records, replaced.Records)
	}
	sameAsScan(t, eng, dir, q, "file replaced, warm")
}

// TestMemoConcurrentQueries: one memo under identical and differing
// queries at once (run with -race): every answer is the scan's. Under a
// budget so small that stores evict while others look up; under one that
// holds the windows and a quarter of the blocks, so blocks are shed and
// refused while others are served; then under the whole budget after a
// wide query, when every scan shares the same kept blocks: a write into
// one is a race, and no kept block may read differently afterwards.
func TestMemoConcurrentQueries(t *testing.T) {
	dir, traces := writeSegmentDir(t, 2, 1)
	span := traceSpan(traces)
	queries := memoQueries(span)
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = answer(t, mustQuery(t, Engine{Opts: energy.DefaultOptions()}, dir, q))
	}
	// A budget that holds every window and index and a quarter of the
	// blocks: blocks are shed and refused while windows are served.
	dry := Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()}
	for _, q := range queries {
		mustQuery(t, dry, dir, q)
	}
	short := dry.Memo.Bytes() - dry.Memo.Stats().BlockBytes*3/4
	for _, budget := range []int64{24 << 10, short, memoBudget} {
		eng := Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()}
		eng.Memo.budget = budget
		var kept string
		if budget == memoBudget {
			mustQuery(t, eng, dir, queries[0])
			kept = keptBlocksJSON(t, eng.Memo)
		}
		var cached, refused atomic.Int64
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for round := 0; round < 2; round++ {
					for k := range queries {
						i := (k + g/2) % len(queries) // goroutines pair up on the same query
						res, err := eng.QueryDir(dir, queries[i])
						if err != nil {
							errs <- err
							return
						}
						cached.Add(int64(res.Scan.BlocksCached))
						refused.Add(int64(res.Scan.BlocksRefused))
						c := *res
						c.Scan = ScanStats{}
						got, err := json.Marshal(&c)
						if err != nil {
							errs <- err
							return
						}
						if string(got) != want[i] {
							errs <- fmt.Errorf("budget %d goroutine %d query %d: got\n%s\nwant\n%s", budget, g, i, got, want[i])
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if got := eng.Memo.Bytes(); got > budget {
			t.Fatalf("budget %d: memo holds %d bytes", budget, got)
		}
		if budget == short && (refused.Load() == 0 || cached.Load() == 0) {
			t.Fatalf("budget %d of %d: %d blocks refused, %d served", budget, dry.Memo.Bytes(), refused.Load(), cached.Load())
		}
		if budget == memoBudget {
			if cached.Load() == 0 {
				t.Fatal("no query was served a kept block")
			}
			if keptBlocksJSON(t, eng.Memo) != kept {
				t.Fatal("a kept block changed while queries shared it")
			}
		}
	}
}

// keptBlocksJSON is every block m keeps, by file and block number.
func keptBlocksJSON(t testing.TB, m *Memo) string {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	byFile := map[string][]*trace.RecordBatch{}
	for key, el := range m.entries {
		if key.params == "" {
			blocks := make([]*trace.RecordBatch, len(el.Value.(*memoEntry).blocks))
			for i, b := range el.Value.(*memoEntry).blocks {
				if b != nil {
					blocks[i] = &b.Value.(*keptBlock).batch
				}
			}
			byFile[key.files] = blocks
		}
	}
	return mustJSON(t, byFile)
}

// TestMemoTwoRunsCountBlocksOnce: when the memo holds windows in the
// middle of a sealed file, the rest of the range is two runs over that
// file. Pass 2 opens it once and scans both runs through the index pass 1
// read, and the query counts its index entries once.
func TestMemoTwoRunsCountBlocksOnce(t *testing.T) {
	dir := t.TempDir()
	dt := synthgen.GenerateDevice(synthgen.Small(1, 2), 0)
	path := filepath.Join(dir, "one-0000.metr3")
	writeSegment(t, path, dt.Device, dt.Records[0].TS, dt.Records)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	_, _, blocks, _, err := trace.ReadBlockIndex(f, st.Size())
	if err != nil {
		t.Fatal(err)
	}
	entries := len(blocks)
	span := traceSpan([]*trace.DeviceTrace{dt})
	mid := (span[0] + span[1]) / 2 / hourUS * hourUS

	eng := Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()}
	sameAsScan(t, eng, dir, Query{From: mid, To: mid + 3*hourUS, Window: hourUS}, "middle")
	q := Query{From: span[0], To: span[1] + 1, Window: hourUS}
	res := sameAsScan(t, eng, dir, q, "around the middle")
	if res.Scan.WindowsMemoised == 0 || res.Scan.BlocksScanned == 0 {
		t.Fatalf("want the middle memoised and the rest scanned: %+v", res.Scan)
	}
	if res.Scan.BlocksTotal != entries || res.Scan.Files != 1 {
		t.Fatalf("two runs over one file of %d index entries: blocks_total %d, files %d, want %d and 1",
			entries, res.Scan.BlocksTotal, res.Scan.Files, entries)
	}
	if res.Scan.BlocksSkipped > res.Scan.BlocksTotal {
		t.Fatalf("blocks_skipped %d over blocks_total %d", res.Scan.BlocksSkipped, res.Scan.BlocksTotal)
	}
}

// TestSegmentChangedBeforeScan: pass 2 scans a sealed file through the
// index pass 1 read, so a file that is no longer the one that index came
// from is refused, by name, rather than read through a stale index.
func TestSegmentChangedBeforeScan(t *testing.T) {
	dir := t.TempDir()
	dt := synthgen.GenerateDevice(synthgen.Small(1, 1), 0)
	path := filepath.Join(dir, "swap-0000.metr3")
	writeSegment(t, path, dt.Device, dt.Records[0].TS, dt.Records)
	seg, err := Engine{}.statSegment(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	writeSegment(t, path, dt.Device, dt.Records[0].TS, dt.Records[:len(dt.Records)/2])
	q := Query{From: math.MinInt64 / 4, To: math.MaxInt64 / 4}
	var stats trace.ScanStats
	_, _, _, err = Engine{}.deviceWindows(dt.Device, []segment{seg}, q, "", &stats)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "changed since its index was read") {
		t.Fatalf("scan of a file replaced after pass 1: %v", err)
	}
}

// TestSegmentChangedBeforeScanMemo is TestSegmentChangedBeforeScan with a
// Memo: pass 1 takes the index from the Memo without reading it again, and
// pass 2 opens it only at a block the Memo does not keep — where fstat
// must still refuse a file that is no longer the one the index came from.
// The refused file is dropped from the Memo.
func TestSegmentChangedBeforeScanMemo(t *testing.T) {
	dir := t.TempDir()
	dt := synthgen.GenerateDevice(synthgen.Small(1, 1), 0)
	path := filepath.Join(dir, "swap-0000.metr3")
	writeSegment(t, path, dt.Device, dt.Records[0].TS, dt.Records)
	eng := Engine{Memo: NewMemo()}
	if _, err := eng.segment(nil, &catFile{path: path}, 1); err != nil { // reads the index, and keeps it
		t.Fatal(err)
	}
	seg, err := eng.segment(nil, &catFile{path: path}, 2)
	if err != nil || seg.kept == nil || !seg.sealed() {
		t.Fatalf("second pass 1 over a sealed file: %+v, %v", seg, err)
	}
	writeSegment(t, path, dt.Device, dt.Records[0].TS, dt.Records[:len(dt.Records)/2])
	q := Query{From: math.MinInt64 / 4, To: math.MaxInt64 / 4}
	var stats trace.ScanStats
	_, _, _, err = eng.deviceWindows(dt.Device, []segment{seg}, q, "", &stats)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "changed since its index was read") {
		t.Fatalf("scan of a file replaced after pass 1: %v", err)
	}
	if holdsFile(eng.Memo, path) {
		t.Fatal("the memo still holds the file it refused")
	}
}

// TestMemoRefusesCorruptFile: a sealed file with a flipped payload byte is
// refused by name on every query, whether or not the memo has seen it, and
// nothing of it stays in the memo — neither its index nor the blocks the
// refused scan decoded whole before it reached the bad one.
func TestMemoRefusesCorruptFile(t *testing.T) {
	dir, traces := writeSegmentDir(t, 1, 2)
	span := traceSpan(traces)
	path := filepath.Join(dir, traces[0].Device+"-0001.metr3")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, _, blocks, _, err := trace.ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil || len(blocks) < 3 {
		t.Fatalf("fixture: %d blocks, %v", len(blocks), err)
	}
	// Mid-payload of the second-to-last block, which ends where the last
	// begins: the blocks before it decode whole first.
	i := len(blocks) - 2
	data[blocks[i+1].Offset-1-int64(blocks[i].CompLen)/2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	eng := Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()}
	for _, q := range []Query{
		{From: span[0], To: span[1] + 1},
		{From: span[0], To: span[1] + 1, Window: hourUS},
		{From: span[0], To: span[1] + 1},
	} {
		for round := 0; round < 2; round++ {
			_, err := eng.QueryDir(dir, q)
			if err == nil || !strings.Contains(err.Error(), path) || !errors.Is(err, trace.ErrCorrupt) {
				t.Fatalf("window %d round %d over a corrupt file: %v", q.Window, round, err)
			}
			if holdsFile(eng.Memo, path) {
				t.Fatalf("window %d round %d: the memo keeps a file it refused", q.Window, round)
			}
			memoCensus(t, eng.Memo)
		}
	}
}

// TestMemoIndexFollowsFileIdentity: a file's index and kept blocks are
// keyed by its identity, so a file replaced under its name — a new size,
// or the same bytes with a new mtime — is read again, not served from the
// old entry.
func TestMemoIndexFollowsFileIdentity(t *testing.T) {
	dir, traces := writeSegmentDir(t, 1, 2)
	span := traceSpan(traces)
	// Unwindowed, so only indexes and kept blocks can serve it.
	q := Query{From: span[0], To: span[1] + 1}
	eng := Engine{Opts: energy.DefaultOptions(), Memo: NewMemo()}
	sameAsScan(t, eng, dir, q, "cold")
	warm := sameAsScan(t, eng, dir, q, "warm")
	if warm.Scan.BlocksCached != warm.Scan.BlocksScanned || warm.Scan.Files != 0 {
		t.Fatalf("warm whole-span query: %+v, want every block from memory", warm.Scan)
	}

	victim := traces[0]
	path := filepath.Join(dir, victim.Device+"-0000.metr3")
	writeSegment(t, path, victim.Device, victim.Start, victim.Records[:len(victim.Records)/6])
	resized := sameAsScan(t, eng, dir, q, "file replaced, new size")
	if resized.Records >= warm.Records || resized.Scan.Files != 1 {
		t.Fatalf("replaced file: %d records then %d, scan %+v", warm.Records, resized.Records, resized.Scan)
	}
	sameAsScan(t, eng, dir, q, "file replaced, warm")

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	later := st.ModTime().Add(time.Hour)
	if err := os.Chtimes(path, later, later); err != nil {
		t.Fatal(err)
	}
	touched := sameAsScan(t, eng, dir, q, "file touched")
	if touched.Scan.Files != 1 || touched.Scan.BlocksCached == touched.Scan.BlocksScanned {
		t.Fatalf("file with a new mtime served from its old entry: %+v", touched.Scan)
	}
}
