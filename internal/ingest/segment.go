package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"netenergy/internal/obs"
	"netenergy/internal/trace"
	"netenergy/internal/tsq"
)

// Segment store: with Config.SegmentDir set, every accepted record is
// also appended to a per-device METR-3 segment file, giving the node a
// queryable on-disk history (GET /query, cmd/tsq) alongside the live
// accumulators. Each shard owns one segmentStore confined to its worker
// goroutine — the device→shard mapping is stable, so no two shards ever
// touch the same device's files.
//
// Lifecycle: a device's segment opens lazily on its first accepted
// record, rolls to a new sequence-numbered file when it exceeds
// SegmentMaxBytes, and seals (writes the footer seek index) when the
// device retires or the server drains. In-progress segments have no
// footer yet; sync() cuts any buffered partial block so the query
// engine's streaming fallback can read the live tail.
//
// Persistence is best-effort by design: a write error disables the
// device's segment stream (counted, logged) rather than failing ingest,
// and records a crashed process re-accepts after its last checkpoint
// may appear in both an old and a new segment file. The accumulator
// path stays exactly-once; segments are at-least-once across crashes.

// segmentWriter is one device's open segment file.
type segmentWriter struct {
	f     *os.File
	path  string
	w     *trace.ColumnWriter
	n     int64           // bytes written so far (roll trigger)
	last  trace.Timestamp // newest appended timestamp, the start from open (drop gate)
	dirty bool            // records appended since the last sync
}

// Write counts bytes through to the file, feeding the roll decision.
func (sw *segmentWriter) Write(p []byte) (int, error) {
	n, err := sw.f.Write(p)
	sw.n += int64(n)
	return n, err
}

// segmentStore is one shard's segment persistence state.
type segmentStore struct {
	dir      string
	maxBytes int64
	counters *counters
	// cat, when set, is told of every file the store opens and seals: it
	// is the list of live files /query runs on.
	cat *tsq.Catalog

	open map[string]*segmentWriter
	seq  map[string]int  // next file sequence per sanitized device name
	bad  map[string]bool // devices whose persistence failed and is disabled
}

func newSegmentStore(dir string, maxBytes int64, seqs map[string]int, cat *tsq.Catalog, c *counters) *segmentStore {
	seq := make(map[string]int, len(seqs))
	for k, v := range seqs {
		seq[k] = v
	}
	return &segmentStore{
		dir:      dir,
		maxBytes: maxBytes,
		counters: c,
		cat:      cat,
		open:     map[string]*segmentWriter{},
		seq:      seq,
		bad:      map[string]bool{},
	}
}

// openCatalog lists dir once at startup, creating it if need be: the
// catalog /query runs on, which also seeds the numbering (see
// seedSegmentSeqs).
func openCatalog(dir string) (*tsq.Catalog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return tsq.OpenCatalog(dir)
}

// seedSegmentSeqs continues each device's file numbering past every name
// in names — the directory's files and the segments its rollup folded —
// so a restarted node neither overwrites sealed history nor gives new
// records a name a rollup lists.
func seedSegmentSeqs(names []string) map[string]int {
	seqs := map[string]int{}
	for _, name := range names {
		name, ok := strings.CutSuffix(name, segmentExt)
		if !ok {
			continue
		}
		i := strings.LastIndexByte(name, '-')
		if i < 0 {
			continue
		}
		n, err := strconv.Atoi(name[i+1:])
		if err != nil {
			continue
		}
		if n+1 > seqs[name[:i]] {
			seqs[name[:i]] = n + 1
		}
	}
	return seqs
}

const segmentExt = ".metr3"

// appendBatch persists one accepted columnar batch by handing the writer
// runs of it — no row is built — with the decisions of a record-at-a-time
// append: a record that would violate the container's timestamp
// monotonicity (a device clock that jumped backwards) is dropped from the
// segment — and counted — rather than poisoning the writer (the live
// accumulator still sees it), and the segment rolls after the first record
// that leaves the file at or over maxBytes.
func (st *segmentStore) appendBatch(device string, b *trace.RecordBatch) {
	sw := st.open[device]
	var kept, dropped int64
	for i, n := 0, b.Len(); i < n && !st.bad[device]; {
		if sw == nil {
			var err error
			if sw, err = st.openSegment(device, b.TS[i]); err != nil {
				st.disable(device, err)
				continue
			}
		}
		if b.TS[i] < sw.last {
			dropped++
			i++
			continue
		}
		// A run ends before the next backwards step, which the drop gate
		// has to see. The file grows only when the writer cuts a block, and
		// WriteBatch returns there, so the size check below runs after
		// every record that could trip it — unless a Sync's cut already
		// took the file over, and then this record is the segment's last.
		j := i + 1
		if !(st.maxBytes > 0 && sw.n >= st.maxBytes) {
			for j < n && b.TS[j] >= b.TS[j-1] {
				j++
			}
		}
		run := b.Slice(i, j)
		took, err := sw.w.WriteBatch(&run)
		kept += int64(took)
		if err != nil {
			st.disable(device, err)
			continue
		}
		i += took
		sw.last = b.TS[i-1]
		sw.dirty = true
		if st.maxBytes > 0 && sw.n >= st.maxBytes {
			st.seal(device)
			sw = nil
		}
	}
	st.counters.segRecords.Add(kept)
	st.counters.segRecordsDropped.Add(dropped)
}

func (st *segmentStore) openSegment(device string, start trace.Timestamp) (*segmentWriter, error) {
	base := sanitizeSegmentName(device)
	seq := st.seq[base]
	st.seq[base] = seq + 1
	path := filepath.Join(st.dir, fmt.Sprintf("%s-%06d%s", base, seq, segmentExt))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	sw := &segmentWriter{f: f, path: path, last: start}
	if sw.w, err = trace.NewColumnWriter(sw, device, start); err != nil {
		f.Close()
		return nil, err
	}
	if st.cat != nil {
		st.cat.Add(path, device, start)
	}
	st.open[device] = sw
	return sw, nil
}

// seal finishes a device's open segment: footer index written, file
// closed. The next accepted record rolls to a new sequence number.
func (st *segmentStore) seal(device string) {
	sw := st.open[device]
	if sw == nil {
		return
	}
	delete(st.open, device)
	err := sw.w.Flush()
	var fi os.FileInfo
	if err == nil && st.cat != nil {
		fi, err = sw.f.Stat()
	}
	if cerr := sw.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		st.disable(device, err)
		return
	}
	if fi != nil {
		st.cat.Seal(sw.path, fi.Size(), fi.ModTime().UnixNano())
	}
	st.counters.segSealed.Add(1)
	st.counters.segBytes.Add(sw.n)
}

// sync makes every open segment's buffered records visible to readers by
// cutting a partial block (no footer — the file stays live). Called on
// the shard goroutine ahead of a query.
func (st *segmentStore) sync() error {
	var first error
	//repolint:ordered per-device Sync calls are independent; error capture keeps the first
	for device, sw := range st.open {
		if !sw.dirty {
			continue
		}
		if err := sw.w.Sync(); err != nil {
			st.disable(device, err)
			if first == nil {
				first = err
			}
			continue
		}
		sw.dirty = false
	}
	return first
}

// closeAll seals every open segment (drain path).
func (st *segmentStore) closeAll() {
	//repolint:ordered seal order across devices is irrelevant
	for device := range st.open {
		st.seal(device)
	}
}

// disable turns off persistence for one device after an I/O failure,
// leaving any sealed history readable.
func (st *segmentStore) disable(device string, err error) {
	if sw := st.open[device]; sw != nil {
		sw.f.Close()
		delete(st.open, device)
	}
	st.bad[device] = true
	st.counters.segErrors.Add(1)
	st.counters.events.Logf(obs.LevelError, "segment persistence disabled for %q: %v", device, err)
}

// sanitizeSegmentName maps an arbitrary wire device name to a safe file
// stem: alphanumerics, '.', '_' and '-' pass through (no leading '.'),
// everything else percent-encodes. The encoding is injective, so
// distinct devices never share a stem; absurdly long names fall back to
// a truncated prefix plus a hash of the full name.
func sanitizeSegmentName(device string) string {
	var sb strings.Builder
	for i := 0; i < len(device); i++ {
		c := device[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.' && i > 0:
			sb.WriteByte(c)
		default:
			fmt.Fprintf(&sb, "%%%02X", c)
		}
	}
	s := sb.String()
	if s == "" || len(s) > 128 {
		if len(s) > 40 {
			s = s[:40]
		}
		return fmt.Sprintf("%s+%016x", s, hash64(device))
	}
	return s
}

// hash64 is bare FNV-64a over the bytes of s: the file-name suffix above
// and SessionRand's seed. Both are on disk or in reproducible schedules, so
// it never changes; shard placement mixes it further (placeHash).
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
