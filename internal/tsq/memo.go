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

// memoBudget bounds what a Memo holds. An hour window of a busy device
// is ~1.5 KiB, so this is some 40 000 device-hours; past it the least
// recently used file's windows go, and cost one rescan of that file's
// part of the range to get back.
const memoBudget = 64 << 20

// Memo remembers settled windows between queries. A window of a device
// is settled for a query when it lies wholly inside the query range and
// every file of the device that can hold one of its records is sealed:
// it is then a pure function of those files, the window width and the
// energy options, so it is computed once and served from here until the
// files change (a new identity is a new key) or the budget evicts it.
// The Memo holds only values this process computed from CRC-verified
// blocks; nothing in it is read from disk. Safe for concurrent use.
type Memo struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[memoKey]*list.Element // of *memoEntry
	lru     *list.List                // front = most recently used
}

// memoKey names the windows of one contributor set: the files whose
// records a window replays, in replay order, each by path, size and
// mtime; and everything else a partial depends on.
type memoKey struct {
	params string // window width and energy options
	files  string
}

type memoEntry struct {
	key   memoKey
	wins  map[trace.Timestamp]*partial
	bytes int64
}

// NewMemo returns an empty Memo bounded by memoBudget.
func NewMemo() *Memo {
	return &Memo{budget: memoBudget, entries: map[memoKey]*list.Element{}, lru: list.New()}
}

// Bytes is the estimated heap the Memo holds now.
func (m *Memo) Bytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// lookup fills in the partial of every window of ws the Memo holds.
func (m *Memo) lookup(params string, ws []settled) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range ws {
		if el := m.entries[memoKey{params, ws[i].files}]; el != nil {
			m.lru.MoveToFront(el)
			ws[i].part = el.Value.(*memoEntry).wins[ws[i].start]
		}
	}
}

// store keeps the partials of ws, then evicts least-recently-used
// contributor sets until the budget holds again.
func (m *Memo) store(params string, ws []settled) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range ws {
		key := memoKey{params, ws[i].files}
		el := m.entries[key]
		if el == nil {
			e := &memoEntry{key: key, wins: map[trace.Timestamp]*partial{}, bytes: int64(128 + len(key.params) + len(key.files))}
			el = m.lru.PushFront(e)
			m.entries[key] = el
			m.bytes += e.bytes
		}
		e := el.Value.(*memoEntry)
		if e.wins[ws[i].start] != nil {
			continue // a concurrent query computed the same window first
		}
		e.wins[ws[i].start] = ws[i].part
		e.bytes += ws[i].part.size()
		m.bytes += ws[i].part.size()
	}
	for m.bytes > m.budget && m.lru.Len() > 0 {
		e := m.lru.Remove(m.lru.Back()).(*memoEntry)
		delete(m.entries, e.key)
		m.bytes -= e.bytes
	}
}
