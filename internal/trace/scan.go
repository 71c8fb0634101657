package trace

import (
	"bufio"
	"errors"
	"io"
	"os"
	"sort"
)

// Range-pushdown scan over a single trace file: the footer index's
// per-block firstTS/lastTS (honest min/max — the writer rejects
// out-of-order records) prune blocks wholly outside a half-open time
// window [From, To) before any byte of the block is read or decompressed.
// Within a surviving block, records are trimmed to the window by binary
// search on the (sorted) timestamp column, and an optional app predicate
// is applied column-at-a-time before any row assembly; the block's
// payloads are decompressed only through the last row kept (see
// Index.Scan). Files without an
// intact footer — flat v1 streams and METR-3 files still being
// written (the ingest segment store's live tail) — fall back to a
// streaming scan with the same record-level semantics, just without
// block skips.

// TimeRange is a half-open query window [From, To) in trace timestamps.
type TimeRange struct {
	From Timestamp // inclusive
	To   Timestamp // exclusive
}

// Contains reports whether ts falls inside the window: From <= ts < To.
// A record exactly at To is out; a record exactly at From is in.
func (t TimeRange) Contains(ts Timestamp) bool {
	return ts >= t.From && ts < t.To
}

// overlapsBlock reports whether a block spanning [first, last]
// (inclusive on both ends — these are record timestamps, not bounds)
// can hold an in-window record. A block whose last == From must still
// be scanned (that record is in the window); a block whose first == To
// is skipped (every record is at or past the exclusive bound).
func (t TimeRange) overlapsBlock(first, last Timestamp) bool {
	return first < t.To && last >= t.From
}

// ScanStats counts pushdown effectiveness across one or more scans.
// BlocksSkipped is the proof the seek index worked: blocks never read,
// decompressed or decoded because their advertised range missed the
// window. BytesDecompressed is the proof the rest of the pushdown did:
// of the blocks scanned, only the payload bytes through the last row
// delivered are written. BlocksCached is the proof a BlockCache did: of
// the blocks scanned, those served from memory, neither read nor decoded;
// BlocksRefused counts the blocks it was offered, decoded whole, and did
// not take.
type ScanStats struct {
	Files             int   // files opened
	BlocksTotal       int   // index entries examined (indexed files only)
	BlocksSkipped     int   // blocks pruned by the [From, To) overlap test
	BlocksScanned     int   // blocks decoded or served from a BlockCache
	BlocksCached      int   // of BlocksScanned, those served from a BlockCache
	BlocksRefused     int   // blocks decoded whole that a BlockCache did not take
	BytesDecompressed int64 // uncompressed payload bytes written (indexed files only)
	RecordsScanned    int64 // records decoded before trimming/filtering
	RecordsMatched    int64 // records delivered to the callback
}

// Add accumulates o into s (for merging per-file or per-node stats).
func (s *ScanStats) Add(o ScanStats) {
	s.Files += o.Files
	s.BlocksTotal += o.BlocksTotal
	s.BlocksSkipped += o.BlocksSkipped
	s.BlocksScanned += o.BlocksScanned
	s.BlocksCached += o.BlocksCached
	s.BlocksRefused += o.BlocksRefused
	s.BytesDecompressed += o.BytesDecompressed
	s.RecordsScanned += o.RecordsScanned
	s.RecordsMatched += o.RecordsMatched
}

// ScanOptions selects the records a scan delivers.
type ScanOptions struct {
	// Range is the half-open window; records with Range.Contains(TS)
	// pass.
	Range TimeRange

	// Apps, when non-empty, keeps only records attributable to these app
	// IDs. RecScreen records are device-global (no app column meaning)
	// and always pass, as do RecAppName registrations for selected apps
	// — the name table is how query results get labelled.
	Apps []uint32
}

// appFilter is the materialised app predicate; nil means "all apps".
type appFilter map[uint32]struct{}

func newAppFilter(apps []uint32) appFilter {
	if len(apps) == 0 {
		return nil
	}
	f := make(appFilter, len(apps))
	for _, a := range apps {
		f[a] = struct{}{}
	}
	return f
}

// keep reports whether record i of b passes the predicate. The check is
// purely columnar: type and app columns only.
func (f appFilter) keep(b *RecordBatch, i int) bool {
	if f == nil {
		return true
	}
	if b.Types[i] == RecScreen {
		return true
	}
	_, ok := f[b.App[i]]
	return ok
}

// end returns one past the last row of [lo, hi) of b the predicate keeps,
// or lo when it keeps none: no row from there on is delivered, so no byte
// of theirs need be decompressed.
func (f appFilter) end(b *RecordBatch, lo, hi int) int {
	for f != nil && hi > lo && !f.keep(b, hi-1) {
		hi--
	}
	return hi
}

// ScanFile scans one trace file, delivering the in-window (and
// app-matching) records to fn as read-only batches valid only for the
// duration of the call. It returns the device name from the file
// header. stats may be nil.
func ScanFile(path string, opt ScanOptions, stats *ScanStats, fn func(*RecordBatch) error) (string, error) {
	f, ix, err := openIndexed(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if stats == nil {
		stats = new(ScanStats)
	}
	stats.Files++
	if ix == nil {
		return scanStream(f, opt, stats, fn)
	}
	stats.BlocksTotal += len(ix.blocks)
	stats.BlocksSkipped += ix.Pruned(opt.Range)
	return ix.device, ix.Scan(f, nil, opt, stats, fn)
}

// Pruned is how many of the file's blocks a scan over r skips without
// reading: those whose index range misses r.
func (ix *Index) Pruned(r TimeRange) int {
	n := 0
	for _, b := range ix.blocks {
		if !r.overlapsBlock(b.First, b.Last) {
			n++
		}
	}
	return n
}

// scanStream is the no-index fallback: decode front to back, trim and
// filter each batch. Flat v1 files and unsealed (in-progress) segments
// land here — nothing can be skipped without an index, but the record
// semantics are identical. f is still at offset 0: the index probe only
// used ReadAt.
func scanStream(f *os.File, opt ScanOptions, stats *ScanStats, fn func(*RecordBatch) error) (string, error) {
	br, err := NewBatchReader(bufio.NewReaderSize(f, 256<<10))
	if err != nil {
		return "", err
	}
	filter := newAppFilter(opt.Apps)
	var scratch RecordBatch
	for {
		b, err := br.Next()
		// A footerless blocked file is a segment still being written or one
		// a kill left behind: its history ends at the last complete block,
		// and a torn block after it is not an error (see block.go).
		if err == io.EOF || errors.Is(err, errTornBlock) {
			return br.Device(), nil
		}
		if err != nil {
			return br.Device(), err
		}
		if err := emitTrimmed(b, opt.Range, filter, &scratch, stats, fn); err != nil {
			return br.Device(), err
		}
	}
}

// BlockCache keeps blocks of one sealed file that scans decoded whole, so
// that a later scan of the file serves them from memory. A kept block is a
// pure function of the file: it was CRC-verified and decoded with every
// check a full read makes. Implementations must be safe for concurrent
// use: scans of one file may run at once and share what is kept.
type BlockCache interface {
	// Block returns block i as kept, or nil when it is not.
	Block(i int) *RecordBatch
	// Keep offers block i, decoded whole into b, whose buffers hold size
	// bytes of heap, and reports whether the cache took it. A cache that
	// takes it keeps a copy of *b: b's buffers are then the cache's,
	// read-only from then on to it and to every scan it serves them to, and
	// the caller writes them no more. A refused b stays the caller's.
	Keep(i int, b *RecordBatch, size int64) bool
}

// Scan is ScanFile over the file ix was read from, which ra holds: it
// prunes blocks by the index and decodes only the survivors, each in
// stages — the column region first, then the rows trimmed to the window
// and filtered by app column by column, then the blob decompressed only
// through the last row delivered and the rest of the block's stream
// walked, not written. A block is accepted or refused exactly as a full
// read accepts or refuses it, and it is refused before any of its rows is
// delivered. Scan counts the work it does into stats — blocks scanned,
// bytes decompressed, records — and leaves the per-file counts (files,
// blocks total and skipped) to its caller.
//
// kept, when not nil, is the file's BlockCache. A block it holds is
// trimmed and filtered from memory, with no byte of it read through ra.
// A block decoded here whose staged decode turned out whole — the rows
// delivered ran to its end, as on a wide query — is offered to it once its
// rows are delivered. A block the cache takes is not overwritten by the
// next decode, which gets fresh buffers; a refused one is, so a cache that
// refuses costs the scan nothing. The scan never decodes a byte just to
// fill the cache. Either way the block delivers the same sub-batches.
func (ix *Index) Scan(ra io.ReaderAt, kept BlockCache, opt ScanOptions, stats *ScanStats, fn func(*RecordBatch) error) error {
	filter := newAppFilter(opt.Apps)
	sc := blockScratchPool.Get().(*blockScratch)
	defer blockScratchPool.Put(sc)
	var out RecordBatch
	for i, e := range ix.blocks {
		if !opt.Range.overlapsBlock(e.First, e.Last) {
			continue
		}
		stats.BlocksScanned++
		var b *RecordBatch
		if kept != nil {
			b = kept.Block(i)
		}
		decoded := b == nil
		if decoded {
			b = &sc.batch
			h, comp, err := ix.loadBlock(ra, i, sc)
			if err != nil {
				return err
			}
			sc.raw = sliceCap(sc.raw, e.UncompLen)
			if err := sc.openBlock(comp, sc.raw, h, b); err != nil {
				return err
			}
		} else {
			stats.BlocksCached++
		}
		stats.RecordsScanned += int64(b.Len())
		lo, hi := window(b, opt.Range)
		end := filter.end(b, lo, hi)
		if decoded {
			if err := sc.finishBlock(b, lo, end); err != nil {
				return err
			}
			stats.BytesDecompressed += int64(sc.lz.Filled())
		}
		if err := emit(b, lo, end, filter, &out, stats, fn); err != nil {
			return err
		}
		if decoded && kept != nil && sc.lz.Filled() == len(sc.raw) {
			if kept.Keep(i, b, sc.heldBytes()) {
				sc.handOff()
			} else {
				stats.BlocksRefused++
			}
		}
	}
	return nil
}

// emitTrimmed trims b to the window and hands what the app filter keeps of
// it to fn (see window and emit).
func emitTrimmed(b *RecordBatch, r TimeRange, filter appFilter, out *RecordBatch, stats *ScanStats, fn func(*RecordBatch) error) error {
	stats.RecordsScanned += int64(b.Len())
	lo, hi := window(b, r)
	return emit(b, lo, hi, filter, out, stats, fn)
}

// window returns b's in-window run [lo, hi), found by binary search on the
// timestamp column: timestamps within a batch are non-decreasing
// (writer-enforced), so the run is contiguous.
func window(b *RecordBatch, r TimeRange) (lo, hi int) {
	n := b.Len()
	lo = sort.Search(n, func(i int) bool { return b.TS[i] >= r.From })
	hi = sort.Search(n, func(i int) bool { return b.TS[i] >= r.To })
	return lo, max(lo, hi)
}

// emit applies the app filter to rows [lo, hi) of b columnar-ly
// (compacting into out only when the filter drops rows — the unfiltered
// run is delivered as a zero-copy view) and hands the result to fn.
func emit(b *RecordBatch, lo, hi int, filter appFilter, out *RecordBatch, stats *ScanStats, fn func(*RecordBatch) error) error {
	if lo >= hi {
		return nil
	}
	if filter == nil {
		view := b.Slice(lo, hi)
		stats.RecordsMatched += int64(view.Len())
		return fn(&view)
	}
	out.Reset()
	for i := lo; i < hi; i++ {
		if filter.keep(b, i) {
			out.AppendFrom(b, i)
		}
	}
	if out.Len() == 0 {
		return nil
	}
	stats.RecordsMatched += int64(out.Len())
	return fn(out)
}
