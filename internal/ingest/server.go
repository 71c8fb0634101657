package ingest

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"netenergy/internal/analysis"
	"netenergy/internal/energy"
	"netenergy/internal/ingest/checkpoint"
	"netenergy/internal/obs"
	"netenergy/internal/trace"
	"netenergy/internal/tsq"
)

// writeTimeout bounds handshake and FIN acknowledgement writes.
const writeTimeout = 10 * time.Second

// Config tunes an ingest Server. Zero values select production defaults.
type Config struct {
	// Addr is the TCP listen address for device streams (":9009").
	Addr string
	// AdminAddr is the HTTP admin listen address ("" disables admin).
	AdminAddr string
	// Shards is the worker-pool width (default: 8).
	Shards int
	// QueueDepth bounds each shard's request queue (default: 256). A full
	// queue blocks the connection handler — backpressure, not drops.
	QueueDepth int
	// BatchSize is how many records a connection handler accumulates
	// before handing off to a shard (default: 128).
	BatchSize int
	// ReadTimeout is the per-frame read deadline (default: 60s). A device
	// that goes silent longer is disconnected; its stream stays live for
	// resume.
	ReadTimeout time.Duration

	// CheckpointDir enables crash-safe durability: shard state is
	// persisted there periodically and replayed on the next Start. Empty
	// disables checkpointing (the pre-durability behaviour).
	CheckpointDir string
	// CheckpointInterval is the persistence cadence (default: 10s). A
	// crash loses at most this much progress — clients retransmit it.
	CheckpointInterval time.Duration
	// DurableFIN, with checkpointing enabled, makes a FIN acknowledgement
	// mean durable: the session's final records are checkpointed (batched
	// across concurrently-finishing sessions, one fsync per batch) before
	// the delivery receipt is written. Closes the completed-session loss
	// window — a crash after a FIN ack can no longer lose that stream —
	// at the cost of one group-commit checkpoint latency per FIN.
	DurableFIN bool

	// SegmentDir enables the on-disk query history: every accepted record
	// is also appended to per-device METR-3 segment files there, served by
	// the admin GET /query endpoint (and readable offline with cmd/tsq).
	// Empty disables segments and /query answers 503.
	SegmentDir string
	// SegmentMaxBytes rolls a device's segment to a new file once it
	// exceeds this size (default: 64 MiB). Sealed files carry the footer
	// seek index that makes query block-pushdown work.
	SegmentMaxBytes int64

	// RateLimit, when positive, caps per-device connection admissions to
	// this many per second (token bucket of RateBurst). Excess handshakes
	// are refused with an explicit throttle ack and retry-after — load is
	// shed deterministically at the cheapest point, before any decoding.
	RateLimit float64
	// RateBurst is the token-bucket depth (default: 3 when RateLimit > 0).
	RateBurst int

	// EnablePprof mounts net/http/pprof under the admin server's
	// /debug/pprof/ prefix. Off by default: profiling endpoints can stall
	// the process and leak internals, so they are opt-in (ingestd -pprof).
	EnablePprof bool

	// Opts is the energy accounting configuration (default: DefaultOptions).
	Opts energy.Options
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 128
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 60 * time.Second
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 10 * time.Second
	}
	if c.SegmentMaxBytes <= 0 {
		c.SegmentMaxBytes = 64 << 20
	}
	if c.RateLimit > 0 && c.RateBurst <= 0 {
		c.RateBurst = 3
	}
	if c.Opts.Radio.Name == "" {
		c.Opts = energy.DefaultOptions()
	}
	return c
}

// Server is the fleet-ingest daemon: a TCP accept loop, per-connection
// frame decoders, and a hash-sharded pool of analysis workers,
// optionally checkpointed to disk for crash recovery.
type Server struct {
	cfg   Config
	shard []*shard

	ln      net.Listener
	adminLn net.Listener
	admin   *http.Server

	counters *counters
	devices  *deviceRegistry
	rates    rateTracker
	started  time.Time

	// memo keeps /query's settled windows between requests; it is the only
	// state a query leaves behind, and nothing on the ingest path sees it.
	memo *tsq.Memo
	// catalog is the segment directory's live files, which the shards'
	// segment stores keep current and /query runs on; nil without a
	// segment directory.
	catalog *tsq.Catalog

	ckpt *checkpoint.Store
	// ckptMu makes collecting the shards' state and writing it one critical
	// section, so generations reach disk in the order their state was taken
	// and a newer one never holds older state. Nothing a shard runs takes it,
	// so waiting on shards under it cannot deadlock.
	ckptMu   sync.Mutex
	ckptStop chan struct{}
	ckptDone chan struct{}
	ckptOnce sync.Once
	finb     finBatcher

	mu      sync.RWMutex // guards conns and drain; never held across a shard send
	conns   map[net.Conn]struct{}
	drain   bool
	handler sync.WaitGroup
	accept  sync.WaitGroup
	// stopOnce sends the shards their stop request; finish is Shutdown's
	// one final checkpoint, which Kill spends on nothing.
	stopOnce, finish sync.Once
}

// NewServer builds a Server; Start brings up the listeners.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		counters: newCounters(),
		devices:  newDeviceRegistry(),
		memo:     tsq.NewMemo(),
		conns:    map[net.Conn]struct{}{},
	}
	var segSeqs map[string]int
	if cfg.SegmentDir != "" {
		var err error
		// Persistence is best-effort: an unusable segment dir — or a
		// rollup that does not parse, without whose folded list new files
		// could take a name it lists — disables segments (and /query) but
		// never blocks ingest: clearing SegmentDir below abandons the whole
		// subsystem, not just one item.
		if s.catalog, err = openCatalog(cfg.SegmentDir); err != nil {
			s.counters.events.Logf(obs.LevelError, "segment dir unusable, segments disabled: %v", err)
			s.cfg.SegmentDir = ""
		} else {
			segSeqs = seedSegmentSeqs(s.catalog.Names())
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		var seg *segmentStore
		if s.cfg.SegmentDir != "" {
			seg = newSegmentStore(s.cfg.SegmentDir, s.cfg.SegmentMaxBytes, segSeqs, s.catalog, s.counters)
		}
		s.shard = append(s.shard, newShard(i, cfg.QueueDepth, cfg.Opts, s.counters, s.devices, seg))
	}
	// Scrape-time gauges over state that already exists elsewhere.
	reg := s.counters.reg
	reg.GaugeFunc("ingest_devices", "devices ever seen", func() float64 {
		return float64(s.devices.len())
	})
	reg.GaugeFunc("ingest_uptime_seconds", "seconds since Start", func() float64 {
		if s.started.IsZero() {
			return 0
		}
		return time.Since(s.started).Seconds()
	})
	for i, sh := range s.shard {
		sh := sh
		reg.GaugeFunc(fmt.Sprintf("ingest_shard_queue_depth{shard=%q}", strconv.Itoa(i)),
			"instantaneous shard queue occupancy", func() float64 { return float64(sh.depth()) })
	}
	reg.CounterFunc("ingest_query_memo_windows_evicted_total", "settled device-windows the query memo evicted to stay inside its budget",
		func() int64 { return s.memo.Stats().WindowsEvicted })
	reg.CounterFunc("ingest_query_memo_indexes_evicted_total", "sealed segments' parsed indexes the query memo evicted to stay inside its budget",
		func() int64 { return s.memo.Stats().IndexesEvicted })
	reg.CounterFunc("ingest_query_memo_blocks_evicted_total", "kept blocks the query memo shed to stay inside its budget",
		func() int64 { return s.memo.Stats().BlocksEvicted })
	return s
}

// Start binds the listeners, recovers from the latest valid checkpoint if
// durability is enabled, and launches the shard workers, the accept loop,
// the checkpoint loop and (if configured) the admin endpoint. It returns
// once the server is accepting.
func (s *Server) Start() error {
	var recovered [][]*install
	if s.cfg.CheckpointDir != "" {
		st, err := checkpoint.Open(s.cfg.CheckpointDir)
		if err != nil {
			return fmt.Errorf("ingest: open checkpoint dir: %w", err)
		}
		s.ckpt = st

		// The validator is the decoder: a structurally-valid file whose
		// analysis state does not decode falls back to the previous
		// generation instead of poisoning recovery, and the one that passes
		// is already decoded. A generation in a format this build refuses is
		// an error, not a fallback: starting from an older one, or empty,
		// would silently drop what it holds.
		ck, err := st.LoadLatest(func(c *checkpoint.Snapshot) (err error) {
			recovered, err = s.decodeSnapshot(c)
			return err
		})
		if err != nil {
			return fmt.Errorf("ingest: load checkpoint: %w", err)
		}
		if ck != nil {
			for _, err := range ck.Skipped {
				s.counters.ckptErrors.Add(1)
				s.counters.events.Logf(obs.LevelError, "checkpoint damaged, restoring the state before it: %v", err)
			}
			s.counters.ckptGen.Set(int64(ck.Gen))
			s.counters.ckptUnixNano.Set(time.Now().UnixNano())
			s.counters.events.Logf(obs.LevelInfo, "recovered checkpoint generation %d (%d devices)", ck.Gen, len(ck.Snap.Devices))
		}
	}

	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	if s.cfg.AdminAddr != "" {
		aln, err := net.Listen("tcp", s.cfg.AdminAddr)
		if err != nil {
			ln.Close()
			return err
		}
		s.adminLn = aln
	}
	s.started = time.Now()
	for _, sh := range s.shard {
		go sh.run()
	}
	if recovered != nil {
		s.askShards(func(i int, sh *shard) { sh.install(recovered[i]) })
	}
	if s.adminLn != nil {
		s.admin = &http.Server{Handler: s.adminMux()}
		go s.admin.Serve(s.adminLn) //nolint:errcheck // closed via Shutdown
	}
	if s.ckpt != nil {
		s.ckptStop = make(chan struct{})
		s.ckptDone = make(chan struct{})
		go s.checkpointLoop()
	}
	s.accept.Add(1)
	go s.acceptLoop()
	return nil
}

// emptyAggregate is what every checkpoint written between the retirement
// ledger's arrival and the aggregate's removal carries in the legacy slot:
// the aggregate of no sessions.
var emptyAggregate = analysis.NewStreamResult("fleet").AppendBinary(nil)

// decodeSnapshot turns a snapshot into install units, one per device, listed
// per shard of THIS server — the shard count may differ from the
// process that wrote the file. Every opaque blob is decoded and every
// sequence number checked here, before anything is mutated: a snapshot either
// installs cleanly or is refused whole, which also makes this the LoadLatest
// validator. Closed
// sessions install from the ledger only, where a sequence number makes the
// merge idempotent: a file that holds some in the unattributed aggregate of
// older builds is refused as unsupported.
func (s *Server) decodeSnapshot(snap *checkpoint.Snapshot) ([][]*install, error) {
	if snap.Legacy != nil && !bytes.Equal(snap.Legacy, emptyAggregate) {
		return nil, fmt.Errorf("%w: it holds closed sessions in an unattributed retired aggregate (%d bytes), which cannot be merged exactly once", checkpoint.ErrUnsupported, len(snap.Legacy))
	}
	units := make([][]*install, len(s.shard))
	at := make(map[string]*install, len(snap.Ledger)+len(snap.Devices))
	// unit returns device's unit with its high-water mark raised to seq. A
	// device named twice keeps the later entry, which must be the further
	// one: the ledger is read first, so a live section behind its own
	// retirement — or a negative seq — is refused here.
	unit := func(device string, seq int64) (*install, error) {
		u := at[device]
		if u == nil {
			u = &install{device: device}
			at[device] = u
			si := shardOf(device, len(s.shard))
			units[si] = append(units[si], u)
		}
		if seq < u.seq {
			return nil, fmt.Errorf("device %q: seq %d is behind %d", device, seq, u.seq)
		}
		u.seq = seq
		return u, nil
	}
	for i := range snap.Ledger {
		r := &snap.Ledger[i]
		u, err := unit(r.Device, r.Seq)
		if err != nil {
			return nil, err
		}
		if u.res, err = analysis.DecodeStreamResult(r.Blob); err != nil {
			return nil, fmt.Errorf("retired device %q: %w", r.Device, err)
		}
		u.closed = &ledgerEntry{seq: r.Seq, crc: r.CRC, blob: append([]byte(nil), r.Blob...)}
	}
	for i := range snap.Devices {
		d := &snap.Devices[i]
		u, err := unit(d.Device, d.Seq)
		if err != nil {
			return nil, err
		}
		if u.acc = nil; d.Acc != nil {
			if u.acc, err = analysis.RestoreStreamAccumulator(d.Acc, s.cfg.Opts); err != nil {
				return nil, fmt.Errorf("device %q: %w", d.Device, err)
			}
		}
	}
	return units, nil
}

// Addr returns the bound stream-listener address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// AdminAddr returns the bound admin address, or nil when disabled.
func (s *Server) AdminAddr() net.Addr {
	if s.adminLn == nil {
		return nil
	}
	return s.adminLn.Addr()
}

func (s *Server) acceptLoop() {
	defer s.accept.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed (shutdown)
		}
		s.mu.Lock()
		if s.drain {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.handler.Add(1)
		s.mu.Unlock()
		s.counters.connsTotal.Add(1)
		s.counters.connsActive.Add(1)
		go s.handleConn(conn)
	}
}

func (s *Server) forgetConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// writeAckTimed writes an acknowledgement under the write deadline.
func (s *Server) writeAckTimed(conn net.Conn, status byte, arg uint64) error {
	conn.SetWriteDeadline(time.Now().Add(writeTimeout)) //nolint:errcheck
	err := writeAck(conn, status, arg)
	conn.SetWriteDeadline(time.Time{}) //nolint:errcheck
	return err
}

// handleConn owns one device connection: hello, admission (drain and rate
// checks), resume handshake, then the frame loop. The handler only accepts
// contiguous in-order frames; duplicates below the resume point are decoded
// (to keep the timestamp chain intact) and dropped, and any unrecoverable
// framing or decode failure severs the connection — the client reconnects
// and resumes from the shard's acknowledged sequence, so severing never
// loses accepted data.
func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.forgetConn(conn)
		s.counters.connsActive.Add(-1)
		s.handler.Done()
	}()

	br := bufio.NewReaderSize(conn, 1<<16)
	conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	device, start, helloSeq, err := readHello(br)
	if err != nil {
		s.counters.helloErrors.Add(1)
		s.counters.events.Logf(obs.LevelWarn, "invalid hello from %s", conn.RemoteAddr())
		return
	}

	dev := s.devices.get(device)

	// Admission: shed load before paying for any decoding.
	if s.cfg.RateLimit > 0 {
		if ok, retry := dev.bucket.take(s.cfg.RateLimit, float64(s.cfg.RateBurst), time.Now()); !ok {
			s.counters.throttled.Add(1)
			s.counters.events.Logf(obs.LevelDebug, "throttled %s (retry in %s)", device, retry)
			s.writeAckTimed(conn, ackThrottled, uint64(retry.Milliseconds())+1) //nolint:errcheck
			return
		}
	}

	// Resume handshake: ask the owning shard for the device's accepted
	// count; the ack tells the client where to (re)start.
	sh := s.shard[shardOf(device, len(s.shard))]
	var next int64
	if !sh.ask(func() { next = sh.seqs[device] }) {
		s.writeAckTimed(conn, ackDraining, 0) //nolint:errcheck
		return
	}
	if err := s.writeAckTimed(conn, ackOK, uint64(next)); err != nil {
		return
	}
	dev.conns.Add(1)
	if next > 0 || helloSeq > 0 {
		s.counters.resumes.Add(1)
		dev.resumes.Add(1)
	}

	dec := trace.NewRecordDecoder(start)
	fr := newFrameReader(br)
	// Accepted records accumulate column-wise: payloads land in the
	// batch's shared arena (one amortized copy, no per-record allocation)
	// and the shard applies the whole run through FeedBatch. Batches are
	// pooled — the shard returns them after applying.
	cols := batchPool.Get().(*trace.RecordBatch)
	cols.Reset()
	batchFirst := next

	// flush is the one send that does not watch sh.done: the stop request
	// is only sent once every handler has returned.
	flush := func() {
		if cols.Len() == 0 {
			return
		}
		sh.ch <- shardReq{batch: &recordBatch{
			device: device, firstSeq: batchFirst, cols: cols,
			enqueuedNS: time.Now().UnixNano(),
		}}
		cols = batchPool.Get().(*trace.RecordBatch)
		cols.Reset()
	}
	defer func() {
		flush()
		batchPool.Put(cols)
	}()

	sever := func(reason string) {
		s.counters.severs.Add(1)
		s.counters.events.Logf(obs.LevelWarn, "severed %s: %s", device, reason)
	}

	// Byte accounting is amortized: accepted bodies sum into pendBytes and
	// hit the shared atomics once per frame (and once more on the way out),
	// not once per record — at millions of records a second the per-record
	// atomic adds were a measurable slice of the apply path.
	var pendBytes int64
	flushBytes := func() {
		if pendBytes != 0 {
			s.counters.bytes.Add(pendBytes)
			dev.bytes.Add(pendBytes)
			pendBytes = 0
		}
	}
	defer flushBytes()

	// applyRecord decodes one record body carrying sequence rseq and
	// applies the accept/duplicate/poison rules. It returns false when
	// the connection must be severed (already counted and logged).
	applyRecord := func(rseq int64, rbody []byte) bool {
		rec, err := dec.Decode(rbody)
		if err != nil {
			s.counters.decodeErrors.Add(1)
			dev.decodeErrors.Add(1)
			if rseq == next && dev.notePoison(rseq) >= poisonThreshold {
				// The same head-of-line record failed on poisonThreshold
				// consecutive connections: skip it or the stream wedges
				// in a reconnect loop forever. The record is lost (and
				// counted): the explicit, bounded alternative.
				flush()
				sh.ask(func() {
					if sh.seqs[device] == rseq {
						sh.seqs[device] = rseq + 1
						sh.touched[device] = struct{}{}
						s.counters.recordsSkipped.Add(1)
					}
				})
				dev.clearPoison()
				s.counters.events.Logf(obs.LevelError, "poison record skipped: device %s seq %d", device, rseq)
			}
			sever("record decode failure")
			return false
		}
		if rseq < next {
			// Replay below the resume point (a stale or overly cautious
			// client): decoded to advance the chain, then dropped here —
			// and dropped again positionally at the shard if it races.
			s.counters.duplicates.Add(1)
			return true
		}
		if cols.Len() == 0 {
			batchFirst = rseq
		}
		cols.Append(rec)
		next++
		pendBytes += int64(len(rbody))
		return true
	}

	for {
		conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		seq, body, err := fr.next()
		switch {
		case err == nil:
		case errors.Is(err, ErrFrameCRC):
			// The frame is lost and the timestamp delta chain with it:
			// nothing after this point on this connection can be trusted.
			s.counters.crcErrors.Add(1)
			dev.crcErrors.Add(1)
			sever("frame crc mismatch")
			return
		case errors.Is(err, io.EOF):
			// Connection dropped without a FIN: keep the stream live so a
			// reconnect resumes it. (Shutdown finalizes live streams.)
			return
		default:
			s.counters.frameErrors.Add(1)
			sever("framing error: " + err.Error())
			return
		}
		s.counters.frames.Add(1)

		if isFin(body) {
			if seq != next {
				// A FIN with the wrong sequence means records are missing
				// (or stale): sever, the client resumes and retries.
				s.counters.frameErrors.Add(1)
				sever("fin sequence mismatch")
				return
			}
			// FIN closes the session; the reply is the device's accepted
			// count, echoed to the client as the delivery receipt.
			flush()
			var final int64
			sh.ask(func() {
				sh.retire(device)
				final = sh.seqs[device]
			})
			if s.cfg.DurableFIN && s.ckpt != nil {
				// Group commit: the FIN above is already applied by the
				// shard, so joining the next checkpoint batch guarantees the
				// finalized stream reaches disk before the receipt. On
				// failure the ack is withheld — the client re-sends its FIN
				// (idempotent against a finalized stream) and retries the
				// durability barrier on a fresh connection.
				if err := s.finb.wait(s); err != nil {
					sever("durable fin checkpoint failed: " + err.Error())
					return
				}
				s.counters.finDurable.Add(1)
			}
			s.writeAckTimed(conn, ackOK, uint64(final)) //nolint:errcheck
			return
		}
		if seq > next {
			// A gap: the client skipped ahead. Accepting would corrupt
			// positional dedup; sever and let resume renegotiate.
			s.counters.frameErrors.Add(1)
			sever("sequence gap")
			return
		}

		// Not FIN, so a batch: record j carries seq+j, and the run being
		// contiguous, the accept/duplicate split is positional. Records are
		// applied as they parse, so what preceded a malformed one is kept.
		t0 := time.Now()
		batch := openBatch(body)
		applied := true
		for j := int64(0); applied && batch.next(); j++ {
			applied = applyRecord(seq+j, batch.record)
		}
		s.counters.frameSeconds.Observe(time.Since(t0).Seconds())
		if !applied {
			return
		}
		if batch.err != nil {
			s.counters.frameErrors.Add(1)
			sever("framing error: " + batch.err.Error())
			return
		}
		if pendBytes != 0 {
			// At least one record accepted this frame, so any head-of-line
			// poison tracking is moot; clearing once per frame is equivalent
			// to the old per-record clear (a mid-frame decode failure severs
			// before reaching here, and notePoison resets on a new seq).
			dev.clearPoison()
			flushBytes()
		}
		// Hand off at BatchSize, and also when the next read would block:
		// records held back for a batch that an idle device never fills
		// would stay invisible to every reader until it speaks again.
		if cols.Len() >= s.cfg.BatchSize || br.Buffered() == 0 {
			flush()
		}
	}
}

// askShards is the one way the control plane reaches shard state: it runs
// fn(i, shard i) on every shard's goroutine — concurrently across shards,
// each call serialized with that shard's batches — and returns when all of
// them are through. It reports false when some shard had already stopped
// and so never ran its call.
func (s *Server) askShards(fn func(i int, sh *shard)) bool {
	ran := make([]<-chan struct{}, len(s.shard))
	for i, sh := range s.shard {
		ran[i] = sh.post(func() { fn(i, sh) })
	}
	all := true
	for i, sh := range s.shard {
		all = sh.wait(ran[i]) && all
	}
	return all
}

// Snapshot returns the live fleet-wide StreamResult: every shard's retired
// aggregate merged with a tail-settled snapshot of every in-flight device
// stream. During and after a drain it keeps answering; once Shutdown has
// returned it is the final drained result.
func (s *Server) Snapshot() *analysis.StreamResult {
	parts := make([]*analysis.StreamResult, len(s.shard))
	s.askShards(func(i int, sh *shard) { parts[i] = sh.snapshot() })
	agg := analysis.NewStreamResult("fleet")
	for i, sh := range s.shard {
		if parts[i] == nil {
			// The shard had stopped: every stream it held is finalized into
			// retired, and the closed done channel askShards saw orders this
			// read after the worker's last write.
			parts[i] = sh.retired
		}
		agg.Merge(parts[i])
	}
	return agg
}

// SyncSegments asks every shard to flush its open segment files so a
// reader (GET /query) sees the live tail up to the records applied
// before the call. A stopped shard has sealed its segments on the way out.
func (s *Server) SyncSegments() error {
	errs := make([]error, len(s.shard))
	s.askShards(func(i int, sh *shard) {
		if sh.seg != nil {
			errs[i] = sh.seg.sync()
		}
	})
	return errors.Join(errs...)
}

// checkpointLoop persists shard state every CheckpointInterval until
// stopped.
func (s *Server) checkpointLoop() {
	defer close(s.ckptDone)
	t := time.NewTicker(s.cfg.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.SaveCheckpoint() //nolint:errcheck // counted in ckptErrors
		case <-s.ckptStop:
			return
		}
	}
}

// stopCheckpointLoop halts periodic checkpointing and waits for any
// in-flight save to finish. Idempotent; no-op when durability is off.
func (s *Server) stopCheckpointLoop() {
	if s.ckptStop == nil {
		return
	}
	s.ckptOnce.Do(func() { close(s.ckptStop) })
	<-s.ckptDone
}

// finBatch is one group-committed durable-FIN checkpoint: everyone who
// joined it before the leader detached shares the result of one save.
type finBatch struct {
	done     chan struct{}
	err      error
	sessions int
}

// finBatcher coalesces concurrently-finishing sessions into shared durable
// checkpoints. The first waiter becomes the batch leader and runs
// SaveCheckpoint; everyone who joins before the leader detaches the batch
// rides the same fsync. Coalescing happens naturally under load: ckptMu
// serializes saves, so FINs arriving during an in-flight save pile onto the
// next batch instead of each paying its own fsync. There is no artificial
// delay — an idle server durably acks a lone FIN at checkpoint latency.
type finBatcher struct {
	mu   sync.Mutex
	next *finBatch
}

// wait joins the next durable-FIN batch and blocks until its checkpoint is
// on disk. Safe to call only after the caller's FIN has been applied by the
// owning shard: the leader detaches the batch before collecting shard
// state, so every joined waiter's finalized stream is covered by the save.
func (b *finBatcher) wait(s *Server) error {
	b.mu.Lock()
	batch := b.next
	if batch == nil {
		batch = &finBatch{done: make(chan struct{})}
		b.next = batch
		go func() {
			b.mu.Lock()
			b.next = nil
			b.mu.Unlock()
			// After the detach no new waiter can join, so sessions is
			// stable and the snapshot below covers every member's FIN.
			batch.err = s.SaveCheckpoint()
			s.counters.finBatchSessions.Observe(float64(batch.sessions))
			close(batch.done)
		}()
	}
	batch.sessions++
	b.mu.Unlock()
	<-batch.done
	return batch.err
}

// SaveCheckpoint collects every shard's durable state and writes one
// checkpoint generation. It is safe to call concurrently with ingest (the
// shards serialize their own state between batches) and is a no-op while
// draining or when durability is disabled.
func (s *Server) SaveCheckpoint() error { return s.saveCheckpoint(false) }

func (s *Server) draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.drain
}

// saveCheckpoint is the one way a generation is written: every shard's
// checkpoint(), assembled and committed under ckptMu. The commit is a base —
// every device — when the store has none of this process's to append to
// (nothing written yet, the commit before failed, the directory was archived),
// when the log has outgrown its base, and for final, Shutdown's, taken
// straight from the stopped shards; otherwise it is a frame of the devices
// that changed since the last commit, and no write at all when none did.
// The shards forget what changed as they report it, which is why a commit that
// fails is followed by a base; one cut short by the drain is followed by
// nothing but Shutdown's.
func (s *Server) saveCheckpoint(final bool) error {
	if s.ckpt == nil {
		return errors.New("ingest: checkpointing disabled")
	}
	if !final && s.draining() {
		return ErrDraining
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	full := final || s.ckpt.NeedsBase()
	cks := make([]checkpoint.Snapshot, len(s.shard))
	collect := func(i int, sh *shard) { cks[i] = sh.checkpoint(full) }
	if final {
		for i, sh := range s.shard {
			collect(i, sh)
		}
	} else if !s.askShards(collect) {
		return ErrDraining
	}
	var snap checkpoint.Snapshot
	for _, ck := range cks {
		snap.Devices = append(snap.Devices, ck.Devices...)
		snap.Ledger = append(snap.Ledger, ck.Ledger...)
	}
	if !full && len(snap.Devices)+len(snap.Ledger) == 0 {
		// Nothing changed: the last commit is still the whole state, and as
		// fresh as a new one would be.
		s.counters.ckptUnixNano.Set(time.Now().UnixNano())
		return nil
	}

	t0, before := time.Now(), s.ckpt.Written()
	var gen uint64
	var err error
	if full {
		s.counters.ckptBases.Add(1)
		_, gen, err = s.ckpt.Save(&snap)
	} else {
		gen, err = s.ckpt.Append(&snap)
	}
	s.counters.ckptSeconds.Observe(time.Since(t0).Seconds())
	if err != nil {
		s.counters.ckptErrors.Add(1)
		s.counters.events.Logf(obs.LevelError, "checkpoint save failed: %v", err)
		return err
	}
	s.counters.ckptGen.Set(int64(gen))
	s.counters.ckptUnixNano.Set(time.Now().UnixNano())
	s.counters.ckptBytes.Set(s.ckpt.Written() - before)
	s.counters.events.Logf(obs.LevelDebug, "checkpoint generation %d saved (%d devices, base: %t)", gen, len(snap.Devices)+len(snap.Ledger), full)
	return nil
}

// Stats assembles the observability snapshot.
func (s *Server) Stats(perDevice bool) Stats {
	now := time.Now()
	records, bytes := s.counters.records.Load(), s.counters.bytes.Load()
	rps, bps := s.rates.rates(records, bytes, now)
	st := Stats{
		UptimeSec:      now.Sub(s.started).Seconds(),
		ConnsActive:    s.counters.connsActive.Load(),
		ConnsTotal:     s.counters.connsTotal.Load(),
		Devices:        s.devices.len(),
		Frames:         s.counters.frames.Load(),
		Records:        records,
		Bytes:          bytes,
		CRCErrors:      s.counters.crcErrors.Load(),
		DecodeErrors:   s.counters.decodeErrors.Load(),
		FrameErrors:    s.counters.frameErrors.Load(),
		HelloErrors:    s.counters.helloErrors.Load(),
		RecordsPerSec:  rps,
		BytesPerSec:    bps,
		Duplicates:     s.counters.duplicates.Load(),
		Resumes:        s.counters.resumes.Load(),
		Throttled:      s.counters.throttled.Load(),
		Severs:         s.counters.severs.Load(),
		RecordsSkipped: s.counters.recordsSkipped.Load(),
	}
	if s.ckpt != nil {
		ck := &CheckpointStats{
			Generation: uint64(s.counters.ckptGen.Load()),
			Bytes:      s.counters.ckptBytes.Load(),
			Errors:     s.counters.ckptErrors.Load(),
		}
		if last := s.counters.ckptUnixNano.Load(); last > 0 {
			ck.AgeSec = now.Sub(time.Unix(0, last)).Seconds()
		}
		st.Checkpoint = ck
	}
	for _, sh := range s.shard {
		st.ShardDepths = append(st.ShardDepths, sh.depth())
	}
	if perDevice {
		st.PerDevice = s.devices.snapshot()
	}
	return st
}

// DeviceRecords returns the number of records accepted for one device —
// the server-side acknowledgement count a drained headline corresponds to.
func (s *Server) DeviceRecords(device string) int64 {
	if d := s.devices.lookup(device); d != nil {
		return d.records.Load()
	}
	return 0
}

// stop is the one stop sequence, Shutdown's and Kill's alike: stop
// checkpointing, stop accepting, sever every connection (the handlers flush
// their partial batches on the way out), and once the last handler is gone
// send each shard its stop request and wait for the workers to apply what
// is queued ahead of it and finalise their live streams. Every step is
// idempotent, so a call that gave up when ctx expired is finished by the
// next one.
func (s *Server) stop(ctx context.Context) error {
	s.stopCheckpointLoop()
	s.mu.Lock()
	if !s.drain {
		s.counters.events.Logf(obs.LevelInfo, "drain started")
	}
	s.drain = true
	s.ln.Close()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()

	s.accept.Wait()
	if err := waitCtx(ctx, &s.handler); err != nil {
		return err
	}
	s.stopOnce.Do(func() {
		for _, sh := range s.shard {
			sh.ch <- shardReq{}
		}
	})
	for _, sh := range s.shard {
		select {
		case <-sh.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Shutdown drains the server (see stop). The returned StreamResult is the
// final fleet aggregate over every record the server accepted; it remains
// available via Snapshot. With durability enabled a final checkpoint is
// written so a subsequent Start sees the fully-finalized state. If ctx
// expires mid-drain the error is returned and a later call completes it.
func (s *Server) Shutdown(ctx context.Context) (*analysis.StreamResult, error) {
	if err := s.stop(ctx); err != nil {
		return nil, err
	}
	s.finish.Do(func() {
		s.counters.events.Logf(obs.LevelInfo, "drain complete: %d records over %d devices",
			s.counters.records.Load(), s.devices.len())
		s.saveCheckpoint(true) //nolint:errcheck // counted in ckptErrors; a no-op without durability
	})
	if s.admin != nil {
		s.admin.Shutdown(ctx) //nolint:errcheck // best effort
	}
	return s.Snapshot(), nil
}

// Kill simulates a crash for recovery testing: it stops the server abruptly
// without publishing a result or writing a final checkpoint, now or in a
// later Shutdown. Whatever the periodic checkpoint loop last persisted is
// all a subsequent Start will see — exactly the fail-stop model.
// (In-process goroutines are still joined so tests under -race stay clean;
// the data loss is real, the goroutine leak is not.) Idempotent.
func (s *Server) Kill() {
	s.finish.Do(func() {})
	s.stop(context.Background()) //nolint:errcheck // only fails with its context
	if s.admin != nil {
		s.admin.Close() //nolint:errcheck // crash simulation
	}
}

// waitCtx waits on a WaitGroup, bounded by the context.
func waitCtx(ctx context.Context, wg *sync.WaitGroup) error {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
