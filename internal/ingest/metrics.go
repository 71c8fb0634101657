package ingest

import (
	"sync"
	"sync/atomic"
	"time"

	"netenergy/internal/obs"
)

// counters are the server-wide totals and hot-path distributions, updated
// lock-free from every connection handler (and, for accepted-record counts,
// from the shard workers, which own dedup and therefore own the truth about
// what was accepted). All of them live in an obs.Registry, so the same
// values back the JSON /stats document, the Prometheus /metrics exposition
// and fleetsim's exit-time reconciliation — one source of truth, fully
// synchronized.
type counters struct {
	reg    *obs.Registry
	events *obs.EventLog

	connsTotal   *obs.Counter
	connsActive  *obs.Gauge
	frames       *obs.Counter
	records      *obs.Counter
	bytes        *obs.Counter
	crcErrors    *obs.Counter
	decodeErrors *obs.Counter
	frameErrors  *obs.Counter
	helloErrors  *obs.Counter

	// Fault-tolerance counters.
	duplicates     *obs.Counter // replayed records dropped by dedup
	resumes        *obs.Counter // handshakes that resumed prior progress
	throttled      *obs.Counter // handshakes refused by rate limiting
	severs         *obs.Counter // connections severed on CRC/decode/gap
	recordsSkipped *obs.Counter // poison records skipped past

	// Checkpoint health (written by the checkpoint loop).
	ckptGen      *obs.Gauge
	ckptBytes    *obs.Gauge
	ckptBases    *obs.Counter
	ckptErrors   *obs.Counter
	ckptUnixNano *obs.Gauge // time of last successful save

	// Durable FIN.
	finDurable *obs.Counter // FIN acks released after a durable checkpoint

	// Segment store and query engine.
	segRecords         *obs.Counter // records appended to segment files
	segRecordsDropped  *obs.Counter // records dropped from segments (clock regressions)
	segSealed          *obs.Counter // segment files sealed (footer index written)
	segBytes           *obs.Counter // bytes in sealed segment files
	segErrors          *obs.Counter // I/O failures that disabled a device's persistence
	queries            *obs.Counter // GET /query requests served
	queryErrors        *obs.Counter // GET /query requests rejected or failed
	queryBlocksSkipped *obs.Counter // blocks pruned by the seek index across queries
	// The query memo (tsq.Memo): settled device-windows answered without a
	// scan and those computed because it did not hold them, scanned blocks
	// served from memory and decoded ones it refused, and the heap it held
	// after the last query: all of it, its segment indexes' and its kept
	// blocks'. What it evicted is read from it at scrape time (NewServer).
	queryWindowsMemoised *obs.Counter
	queryWindowsComputed *obs.Counter
	queryBlocksCached    *obs.Counter
	queryBlocksRefused   *obs.Counter
	queryMemoBytes       *obs.Gauge
	queryMemoIndexBytes  *obs.Gauge
	queryMemoBlockBytes  *obs.Gauge

	// Hot-path distributions. frameSeconds is the per-frame record-decode
	// latency; applySeconds is the enqueue→apply latency through a shard
	// queue (the backpressure signal with a time axis); batchRecords is the
	// hand-off batch size; ckptSeconds is the checkpoint save duration.
	frameSeconds *obs.Histogram
	applySeconds *obs.Histogram
	batchRecords *obs.Histogram
	ckptSeconds  *obs.Histogram
	// finBatchSessions is how many finishing sessions shared one durable
	// group-commit checkpoint (the fsync amortization factor).
	finBatchSessions *obs.Histogram
}

// newCounters builds the registry-backed counter set. Every metric name is
// documented in README.md ("Observability").
func newCounters() *counters {
	reg := obs.New()
	c := &counters{
		reg:    reg,
		events: obs.NewEventLog(256),

		connsTotal:   reg.Counter("ingest_conns_total", "device connections accepted"),
		connsActive:  reg.Gauge("ingest_conns_active", "device connections currently open"),
		frames:       reg.Counter("ingest_frames_total", "wire frames accepted (CRC-valid)"),
		records:      reg.Counter("ingest_records_total", "records accepted into shard accumulators"),
		bytes:        reg.Counter("ingest_bytes_total", "frame body bytes accepted"),
		crcErrors:    reg.Counter("ingest_crc_errors_total", "frames rejected by CRC"),
		decodeErrors: reg.Counter("ingest_decode_errors_total", "frame bodies that failed record decode"),
		frameErrors:  reg.Counter("ingest_frame_errors_total", "framing violations (truncation, gaps, bad FIN)"),
		helloErrors:  reg.Counter("ingest_hello_errors_total", "connections with an invalid handshake"),

		duplicates:     reg.Counter("ingest_duplicates_total", "replayed records dropped by dedup"),
		resumes:        reg.Counter("ingest_resumes_total", "handshakes that resumed prior progress"),
		throttled:      reg.Counter("ingest_throttled_total", "handshakes refused by rate limiting"),
		severs:         reg.Counter("ingest_severs_total", "connections severed on CRC/decode/gap"),
		recordsSkipped: reg.Counter("ingest_records_skipped_total", "poison records skipped past"),

		ckptGen:      reg.Gauge("ingest_checkpoint_generation", "latest checkpoint generation written or recovered"),
		ckptBytes:    reg.Gauge("ingest_checkpoint_bytes", "bytes written by the last checkpoint commit: a whole base, or one delta frame"),
		ckptBases:    reg.Counter("ingest_checkpoint_base_writes_total", "checkpoint commits that rewrote the whole base (first commit, log outgrew its base, after a failed commit, shutdown) rather than appending a delta frame"),
		ckptErrors:   reg.Counter("ingest_checkpoint_errors_total", "failed checkpoint commits, and damaged checkpoint files passed over at recovery"),
		ckptUnixNano: reg.Gauge("ingest_checkpoint_last_unixnano", "wall time of the last successful checkpoint commit, an idle one that had nothing to write included"),

		finDurable: reg.Counter("ingest_fin_durable_total", "FIN acks released only after a durable checkpoint"),

		segRecords:         reg.Counter("ingest_segment_records_total", "records appended to segment files"),
		segRecordsDropped:  reg.Counter("ingest_segment_records_dropped_total", "records dropped from segments on timestamp regression"),
		segSealed:          reg.Counter("ingest_segments_sealed_total", "segment files sealed with a footer index"),
		segBytes:           reg.Counter("ingest_segment_bytes_total", "bytes in sealed segment files"),
		segErrors:          reg.Counter("ingest_segment_errors_total", "I/O failures that disabled a device's segment persistence"),
		queries:            reg.Counter("ingest_queries_total", "GET /query requests served"),
		queryErrors:        reg.Counter("ingest_query_errors_total", "GET /query requests rejected or failed"),
		queryBlocksSkipped: reg.Counter("ingest_query_blocks_skipped_total", "blocks pruned by the segment seek index across queries"),

		queryWindowsMemoised: reg.Counter("ingest_query_windows_memoised_total", "settled device-windows answered from the query memo instead of a scan"),
		queryWindowsComputed: reg.Counter("ingest_query_windows_computed_total", "settled device-windows a query computed because the query memo did not hold them"),
		queryBlocksCached:    reg.Counter("ingest_query_blocks_cached_total", "scanned blocks served from the query memo instead of read and decoded"),
		queryBlocksRefused:   reg.Counter("ingest_query_blocks_refused_total", "blocks a query decoded whole that the query memo did not keep"),
		queryMemoBytes:       reg.Gauge("ingest_query_memo_bytes", "estimated heap held by the query memo (windows, segment indexes and kept blocks) after the last query"),
		queryMemoIndexBytes:  reg.Gauge("ingest_query_memo_index_bytes", "of ingest_query_memo_bytes, the heap held by sealed segments' parsed indexes"),
		queryMemoBlockBytes:  reg.Gauge("ingest_query_memo_block_bytes", "of ingest_query_memo_bytes, the heap held by kept blocks"),

		frameSeconds:     reg.Histogram("ingest_frame_decode_seconds", "per-frame record decode latency", obs.DurationBuckets()),
		applySeconds:     reg.Histogram("ingest_apply_latency_seconds", "shard enqueue-to-apply latency per batch", obs.DurationBuckets()),
		batchRecords:     reg.Histogram("ingest_batch_records", "records per shard hand-off batch", obs.SizeBuckets()),
		ckptSeconds:      reg.Histogram("ingest_checkpoint_save_seconds", "checkpoint commit duration: encode, write and fsync of a base or a delta frame", obs.DurationBuckets()),
		finBatchSessions: reg.Histogram("ingest_fin_batch_sessions", "sessions sharing one durable-FIN group commit", obs.SizeBuckets()),
	}
	c.events.RegisterEventMetrics(reg, "ingest_events_total", "events logged by level")
	return c
}

// DeviceStats are the per-device counters the admin endpoint exposes; the
// error counters are what flags a misbehaving collector in the fleet.
type DeviceStats struct {
	Records      int64 `json:"records"`
	Bytes        int64 `json:"bytes"`
	CRCErrors    int64 `json:"crc_errors"`
	DecodeErrors int64 `json:"decode_errors"`
	Conns        int64 `json:"conns"`
	Resumes      int64 `json:"resumes"`
}

// deviceCounters is the live (atomic) form of DeviceStats, plus the
// per-device admission bucket and poison-record tracker.
type deviceCounters struct {
	records, bytes, crcErrors, decodeErrors, conns, resumes atomic.Int64

	bucket tokenBucket

	// poisonSeq/poisonCount track consecutive decode failures at the same
	// head-of-line sequence number across reconnects; at poisonThreshold
	// the server skips the record rather than wedge the stream. poisonSeq
	// stores seq+1 so the zero value means "none".
	poisonSeq   atomic.Int64
	poisonCount atomic.Int64
}

// poisonThreshold is how many consecutive reconnects may fail to decode the
// same record before the server skips it.
const poisonThreshold = 3

// notePoison records a decode failure at seq and returns how many
// consecutive failures that sequence has now accumulated.
func (d *deviceCounters) notePoison(seq int64) int64 {
	if d.poisonSeq.Swap(seq+1) == seq+1 {
		return d.poisonCount.Add(1)
	}
	d.poisonCount.Store(1)
	return 1
}

func (d *deviceCounters) clearPoison() {
	d.poisonSeq.Store(0)
	d.poisonCount.Store(0)
}

func (d *deviceCounters) snapshot() DeviceStats {
	return DeviceStats{
		Records:      d.records.Load(),
		Bytes:        d.bytes.Load(),
		CRCErrors:    d.crcErrors.Load(),
		DecodeErrors: d.decodeErrors.Load(),
		Conns:        d.conns.Load(),
		Resumes:      d.resumes.Load(),
	}
}

// tokenBucket is a standard refill-on-demand token bucket, used to rate
// limit per-device connection admissions. Shedding at the handshake (with
// an explicit retry-after) is deterministic degradation: the client knows
// it was refused and when to return, instead of discovering mid-stream
// that the server is drowning.
type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// take consumes one token, refilling at rate tokens/sec up to burst. When
// empty it returns false and how long until a token is available.
func (b *tokenBucket) take(rate, burst float64, now time.Time) (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.last.IsZero() {
		b.tokens = burst
	} else {
		b.tokens += rate * now.Sub(b.last).Seconds()
		if b.tokens > burst {
			b.tokens = burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / rate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return false, wait
}

// deviceRegistry interns per-device counters across reconnects.
type deviceRegistry struct {
	mu   sync.RWMutex
	devs map[string]*deviceCounters
}

func newDeviceRegistry() *deviceRegistry {
	return &deviceRegistry{devs: map[string]*deviceCounters{}}
}

func (r *deviceRegistry) get(device string) *deviceCounters {
	r.mu.RLock()
	d := r.devs[device]
	r.mu.RUnlock()
	if d != nil {
		return d
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if d = r.devs[device]; d == nil {
		d = &deviceCounters{}
		r.devs[device] = d
	}
	return d
}

// lookup returns the counters for a device without creating them — the
// admin read path, which must not invent devices out of typos.
func (r *deviceRegistry) lookup(device string) *deviceCounters {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.devs[device]
}

func (r *deviceRegistry) snapshot() map[string]DeviceStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]DeviceStats, len(r.devs))
	for dev, c := range r.devs {
		out[dev] = c.snapshot()
	}
	return out
}

func (r *deviceRegistry) len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.devs)
}

// CheckpointStats is the durability block of the admin /stats document.
type CheckpointStats struct {
	Generation uint64  `json:"generation"`
	AgeSec     float64 `json:"age_sec"`
	Bytes      int64   `json:"bytes"`
	Errors     int64   `json:"errors"`
}

// Stats is the admin /stats document.
type Stats struct {
	UptimeSec     float64 `json:"uptime_sec"`
	ConnsActive   int64   `json:"conns_active"`
	ConnsTotal    int64   `json:"conns_total"`
	Devices       int     `json:"devices"`
	Frames        int64   `json:"frames"`
	Records       int64   `json:"records"`
	Bytes         int64   `json:"bytes"`
	CRCErrors     int64   `json:"crc_errors"`
	DecodeErrors  int64   `json:"decode_errors"`
	FrameErrors   int64   `json:"frame_errors"`
	HelloErrors   int64   `json:"hello_errors"`
	RecordsPerSec float64 `json:"records_per_sec"`
	BytesPerSec   float64 `json:"bytes_per_sec"`

	// Fault-tolerance surface: how the stream is degrading and recovering.
	Duplicates     int64 `json:"duplicates"`
	Resumes        int64 `json:"resumes"`
	Throttled      int64 `json:"throttled"`
	Severs         int64 `json:"severs"`
	RecordsSkipped int64 `json:"records_skipped"`

	// Checkpoint is present when durability is enabled.
	Checkpoint *CheckpointStats `json:"checkpoint,omitempty"`

	// ShardDepths is the instantaneous queue occupancy per shard — the
	// backpressure gauge.
	ShardDepths []int `json:"shard_depths"`
	// PerDevice is included when the caller asks for it (?devices=1).
	PerDevice map[string]DeviceStats `json:"per_device,omitempty"`
}

// rateTracker turns monotonic totals into rates between observations.
type rateTracker struct {
	mu          sync.Mutex
	lastTime    time.Time
	lastRecords int64
	lastBytes   int64
}

// rates returns records/s and bytes/s since the previous call (0 on the
// first observation or when called again within a millisecond).
func (t *rateTracker) rates(records, bytes int64, now time.Time) (float64, float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.lastTime.IsZero() {
		t.lastTime, t.lastRecords, t.lastBytes = now, records, bytes
		return 0, 0
	}
	dt := now.Sub(t.lastTime).Seconds()
	if dt < 1e-3 {
		return 0, 0
	}
	rps := float64(records-t.lastRecords) / dt
	bps := float64(bytes-t.lastBytes) / dt
	t.lastTime, t.lastRecords, t.lastBytes = now, records, bytes
	return rps, bps
}
