package tsq

import (
	"container/list"
	"sync"

	"netenergy/internal/trace"
)

// partial is one device's finished window: what addWindow-era code
// derived from a window's StreamResult, in the form the fold takes. A
// partial is immutable once built; the Memo shares it between queries.
type partial struct {
	start   trace.Timestamp
	records int64 // 0 = the window holds nothing (memoised so it is not rescanned)
	energy  float64
	bytes   int64
	rows    []AppRow  // per-app energy and bytes, unnamed and unordered
	names   []appName // app names registered inside the window, in replay order
}

// appName is one RecAppName record seen by a scan.
type appName struct {
	app  uint32
	name string
}

// size estimates the heap a memoised partial holds, map slot included.
func (p *partial) size() int64 {
	n := int64(160 + 40*len(p.rows) + 24*len(p.names))
	for _, r := range p.names {
		n += int64(len(r.name))
	}
	return n
}

// memoBudget bounds what a Memo holds, all three kinds of entry together.
// An hour window of a busy device is ~1.5 KiB, so this is some 40 000
// device-hours; a kept block costs ~110 bytes a record, so it is also some
// 600 000 records of decoded blocks. Past it kept blocks go first, one at a
// time, least recently used first: one costs a decode to get back. Only
// once none is left does the least recently used window set or index go,
// which costs a rescan of that part of the range.
const memoBudget = 64 << 20

// Memo remembers, between queries, what is a pure function of sealed
// files, under one budget:
//
//   - settled windows. A window of a device is settled for a query when it
//     lies wholly inside the query range and every file of the device that
//     can hold one of its records is sealed: it is then a pure function of
//     those files, the window width and the energy options, so it is
//     computed once and served from here;
//   - each sealed file's parsed footer index, which pass 1 then takes
//     without opening the file;
//   - the blocks of a sealed file that a scan decoded whole anyway, which
//     a later scan then trims and filters from memory without opening the
//     file (see trace.BlockCache). Nothing is decoded just to be kept.
//
// Window sets and indexes share one least-recently-used order; kept blocks
// have their own, block by block, and are shed before any window set or
// index. A block never displaces a window set, an index, or a block its own
// query has touched: when other blocks cannot make room for it, it is
// refused, and its scan decodes the next block into the same buffers.
//
// Every entry is keyed by its files' identities — path, size and mtime —
// so a file that changes is a new key, and the budget evicts what is no
// longer asked for. The Memo holds only values this process computed from
// CRC-verified bytes; a file a scan refuses is dropped from it. Safe for
// concurrent use.
type Memo struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64                     // everything held, kept blocks included
	entries map[memoKey]*list.Element // of *memoEntry
	lru     *list.List                // window sets and indexes; front = most recently used
	blocks  *list.List                // of *keptBlock; front = most recently used
	// blockBytes and indexBytes are what of bytes the kept blocks and the
	// file entries hold.
	blockBytes, indexBytes int64
	// evicted counts what evict and room shed for want of room.
	evicted struct{ windows, indexes, blocks int64 }
	// queries numbers the queries begun: a kept block carries the number of
	// the last query that kept it or was served it.
	queries uint64
}

// memoKey names the windows of one contributor set: the files whose
// records a window replays, in replay order, each by its identity (see
// segment.id); and everything else a partial depends on. A key with empty
// params names one sealed file's entry instead: no window has empty params
// (see Engine.memoParams).
type memoKey struct {
	params string // window width and energy options
	files  string
}

// memoEntry is a contributor set's windows, or one sealed file's index
// and the slots of its kept blocks.
type memoEntry struct {
	key   memoKey
	bytes int64 // its windows, or its index; kept blocks count apart

	wins map[trace.Timestamp]*partial

	ix     *trace.Index
	blocks []*list.Element // of *keptBlock, by block number; nil = not kept
}

// keptBlock is one kept block of a sealed file's entry.
type keptBlock struct {
	batch trace.RecordBatch
	size  int64
	file  *memoEntry
	i     int    // block number in file
	query uint64 // the last query that kept it or was served it
}

// NewMemo returns an empty Memo bounded by memoBudget.
func NewMemo() *Memo {
	return &Memo{budget: memoBudget, entries: map[memoKey]*list.Element{}, lru: list.New(), blocks: list.New()}
}

// Bytes is the estimated heap the Memo holds now.
func (m *Memo) Bytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// MemoStats is what a Memo holds, and what it has evicted to stay inside
// its budget: windows and indexes with their entries, and kept blocks.
type MemoStats struct {
	Bytes, IndexBytes, BlockBytes                 int64
	WindowsEvicted, IndexesEvicted, BlocksEvicted int64
}

// Stats reports what the Memo holds now and has evicted so far.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{
		Bytes: m.bytes, IndexBytes: m.indexBytes, BlockBytes: m.blockBytes,
		WindowsEvicted: m.evicted.windows, IndexesEvicted: m.evicted.indexes, BlocksEvicted: m.evicted.blocks,
	}
}

// begin numbers a new query, whose scans keep and are served blocks under
// that number.
func (m *Memo) begin() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queries++
	return m.queries
}

// lookup fills in the partial of every window of ws the Memo holds. A
// run of windows with one contributor set, the common case, costs one
// lookup of the set.
func (m *Memo) lookup(params string, ws []settled) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var el *list.Element
	for i := range ws {
		if i == 0 || ws[i].files != ws[i-1].files {
			if el = m.entries[memoKey{params, ws[i].files}]; el != nil {
				m.lru.MoveToFront(el)
			}
		}
		if el != nil {
			ws[i].part = el.Value.(*memoEntry).wins[ws[i].start]
		}
	}
}

// store keeps the partials of ws, then evicts down to the budget.
func (m *Memo) store(params string, ws []settled) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var el *list.Element
	for i := range ws {
		key := memoKey{params, ws[i].files}
		if i == 0 || ws[i].files != ws[i-1].files {
			el = m.entries[key]
		}
		if el == nil {
			el = m.push(&memoEntry{key: key, wins: map[trace.Timestamp]*partial{}, bytes: int64(128 + len(key.params) + len(key.files))})
		}
		e := el.Value.(*memoEntry)
		if e.wins[ws[i].start] != nil {
			continue // a concurrent query computed the same window first
		}
		e.wins[ws[i].start] = ws[i].part
		e.bytes += ws[i].part.size()
		m.bytes += ws[i].part.size()
	}
	m.evict()
}

// index returns the parsed index of the sealed file with identity id, and
// the file's kept blocks as query sees them, or a nil index when the Memo
// does not hold it. It refreshes the index, not the blocks.
func (m *Memo) index(id string, query uint64) (*trace.Index, trace.BlockCache) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el := m.entries[memoKey{files: id}]
	if el == nil {
		return nil, nil
	}
	m.lru.MoveToFront(el)
	return el.Value.(*memoEntry).ix, &keptBlocks{m, el, query}
}

// keepIndex keeps ix as the index of the sealed file with identity id, and
// returns the file's kept blocks as query sees them: nil when the Memo
// already holds another index for id, whose block numbers need not be
// ix's (a concurrent query read the file first, or a rewrite kept its size
// and mtime).
func (m *Memo) keepIndex(id string, ix *trace.Index, query uint64) trace.BlockCache {
	m.mu.Lock()
	defer m.mu.Unlock()
	el := m.entries[memoKey{files: id}]
	if el == nil {
		// The index's entries, each with a slot for a kept block.
		size := int64(256 + len(id) + len(ix.Device()) + (48+8)*len(ix.Blocks()))
		el = m.push(&memoEntry{key: memoKey{files: id}, ix: ix, blocks: make([]*list.Element, len(ix.Blocks())), bytes: size})
		m.evict()
	} else if el.Value.(*memoEntry).ix != ix {
		return nil
	}
	return &keptBlocks{m, el, query}
}

// forget drops the entry of the sealed file with identity id, kept blocks
// and all.
func (m *Memo) forget(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el := m.entries[memoKey{files: id}]; el != nil {
		m.remove(el)
	}
}

// push adds e as the most recently used entry. m.mu is held.
func (m *Memo) push(e *memoEntry) *list.Element {
	el := m.lru.PushFront(e)
	m.entries[e.key] = el
	m.bytes += e.bytes
	if e.ix != nil {
		m.indexBytes += e.bytes
	}
	return el
}

// remove drops el's entry, and its kept blocks. m.mu is held.
func (m *Memo) remove(el *list.Element) {
	e := m.lru.Remove(el).(*memoEntry)
	for _, b := range e.blocks {
		if b != nil {
			m.drop(b)
		}
	}
	delete(m.entries, e.key)
	m.bytes -= e.bytes
	if e.ix != nil {
		m.indexBytes -= e.bytes
	}
}

// drop sheds one kept block. Its memory is left to the collector: a scan
// it was served to may still be reading it. m.mu is held.
func (m *Memo) drop(el *list.Element) {
	kb := m.blocks.Remove(el).(*keptBlock)
	kb.file.blocks[kb.i] = nil
	m.bytes -= kb.size
	m.blockBytes -= kb.size
}

// evict sheds kept blocks, least recently used first, and then window sets
// and indexes, least recently used first, until the budget holds again.
// m.mu is held.
func (m *Memo) evict() {
	for m.bytes > m.budget && m.blocks.Len() > 0 {
		m.drop(m.blocks.Back())
		m.evicted.blocks++
	}
	for m.bytes > m.budget && m.lru.Len() > 0 {
		if e := m.lru.Back().Value.(*memoEntry); e.ix != nil {
			m.evicted.indexes++
		} else {
			m.evicted.windows += int64(len(e.wins))
		}
		m.remove(m.lru.Back())
	}
}

// room sheds least recently used kept blocks until size more bytes fit the
// budget, and reports whether they do. It sheds nothing when they cannot
// be made to fit from blocks that query has not touched. m.mu is held.
func (m *Memo) room(size int64, query uint64) bool {
	need := m.bytes + size - m.budget
	for el := m.blocks.Back(); need > 0; el = el.Prev() {
		if el == nil {
			return false
		}
		kb := el.Value.(*keptBlock)
		if kb.query == query {
			return false
		}
		need -= kb.size
	}
	for m.bytes+size > m.budget {
		m.drop(m.blocks.Back())
		m.evicted.blocks++
	}
	return true
}

// keptBlocks is one sealed file's entry as the trace.BlockCache one query's
// scans run on. A scan that holds it after the entry is evicted is served
// nothing more from it, and keeps nothing more in it.
type keptBlocks struct {
	m     *Memo
	el    *list.Element
	query uint64
}

func (k *keptBlocks) Block(i int) *trace.RecordBatch {
	m := k.m
	m.mu.Lock()
	defer m.mu.Unlock()
	el := k.el.Value.(*memoEntry).blocks[i]
	if el == nil {
		return nil
	}
	m.blocks.MoveToFront(el)
	kb := el.Value.(*keptBlock)
	kb.query = k.query
	return &kb.batch
}

func (k *keptBlocks) Keep(i int, b *trace.RecordBatch, size int64) bool {
	m := k.m
	m.mu.Lock()
	defer m.mu.Unlock()
	e := k.el.Value.(*memoEntry)
	if m.entries[e.key] != k.el || e.blocks[i] != nil || !m.room(size, k.query) {
		return false // evicted, kept first by a concurrent scan, or no room
	}
	e.blocks[i] = m.blocks.PushFront(&keptBlock{batch: *b, size: size, file: e, i: i, query: k.query})
	m.bytes += size
	m.blockBytes += size
	return true
}
