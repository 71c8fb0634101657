package ingest

import (
	"hash/crc32"
	"sync"
	"time"

	"netenergy/internal/analysis"
	"netenergy/internal/energy"
	"netenergy/internal/ingest/checkpoint"
	"netenergy/internal/obs"
	"netenergy/internal/trace"
)

// shardOf is the shard of n that owns device. Placement is fixed while a
// process runs and no checkpoint stores one — decodeSnapshot re-places every
// restored device — so a restart under another shard count re-places
// everything and loses nothing (TestCommitsProperty, TestCrashRecovery).
func shardOf(device string, n int) int { return int(placeHash(device) % uint64(n)) }

// placeHash is the placement hash: FNV-64a over the bytes of s, then
// murmur3's fmix64 finaliser. Multiplying by an odd constant carries only
// upwards, so bare FNV-64a modulo 2^k depends on nothing but the low k bits
// of each byte, and sequential names (dev-0001, st-u03-r17) pile onto a few
// shards; the finaliser folds the high bits back down.
func placeHash(s string) uint64 {
	h := hash64(s)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// recordBatch is a chunk of decoded records for one device, with payloads
// copied out of the connection's frame buffer so they survive the channel
// crossing. Record i carries sequence number firstSeq+i — the handler only
// batches contiguous accepted frames. enqueuedNS stamps the hand-off so the
// shard can report queue latency (the backpressure gauge with a time axis).
//
// cols is a pooled columnar batch whose payload bytes live in its shared
// arena; the shard returns it to batchPool after applying. The batch is the
// only thing a shard applies and a segment stores: rows exist on the wire
// side of the connection handler and nowhere after it.
type recordBatch struct {
	device     string
	firstSeq   int64
	cols       *trace.RecordBatch
	enqueuedNS int64
}

// batchPool recycles the columnar batches that carry accepted records from
// connection handlers to shard workers. Handlers Get, shard workers Put
// after FeedBatch; steady-state ingest therefore reuses a handful of
// arenas instead of allocating per record.
var batchPool = sync.Pool{New: func() any { return new(trace.RecordBatch) }}

// ledgerEntry is a shard's record of one device's closed sessions: the
// sequence the latest of them closed at and the serialized StreamResult of
// all of them merged. A FIN closes a session, not a device — a device that
// streams again and FINs again extends its entry (retire), it never replaces
// it. The blob and the seq are what a checkpoint keeps of it.
type ledgerEntry struct {
	seq  int64
	crc  uint32
	blob []byte
}

// install is one device's checkpointed state on its way into a shard — the
// unit every snapshot is decoded into (Server.decodeSnapshot) at Start. A
// device named in both sections of a snapshot is one unit: the sessions it
// had closed, then the live increment since them, under one high-water mark.
type install struct {
	device string
	seq    int64                       // accepted-record high-water mark
	closed *ledgerEntry                // closed sessions, nil when there are none
	res    *analysis.StreamResult      // closed.blob decoded (decode-before-mutate)
	acc    *analysis.StreamAccumulator // records closed.seq..seq; nil when no session is open
}

// shardReq is one message in a shard's mailbox: a pooled batch to apply, or
// a function to run on the shard goroutine — every control-plane question
// (resume point, FIN, snapshot, checkpoint, segment sync, install) is such a
// function, posted through post/ask. The zero message is the stop request.
type shardReq struct {
	batch *recordBatch
	do    func()
}

// shard owns a disjoint subset of devices. All state is confined to the
// shard goroutine; the bounded channel is both the hand-off and the
// backpressure mechanism (a full queue blocks the connection handler,
// which in turn stops reading and lets TCP flow control push back on the
// device). The channel is never closed: the worker exits on the stop
// request and closes done, which is what every sender other than a
// connection handler selects against (handlers have all exited by the time
// the stop request is sent), so no send needs a lock to be safe.
type shard struct {
	id   int
	ch   chan shardReq
	opts energy.Options

	counters *counters
	reg      *deviceRegistry

	// Goroutine-confined state. seqs is the per-device accepted-record
	// high-water mark: the authoritative dedup/resume point, retained even
	// after a device finalizes so a replayed FIN or late duplicate stays
	// idempotent. retired is the serving aggregate of every closed session;
	// ledger is the same state per device, the only form in which it is
	// checkpointed or handed off, so retired is always the merge of ledger.
	live    map[string]*analysis.StreamAccumulator
	seqs    map[string]int64
	retired *analysis.StreamResult
	ledger  map[string]*ledgerEntry

	// What a delta checkpoint goes by. saved is each live device's seq as
	// last collected: the batch path marks nothing, checkpoint compares.
	// touched are the devices changed off that path since the last collect —
	// retired, installed, or moved past a poison record with no session open.
	saved   map[string]int64
	touched map[string]struct{}

	// seg, when non-nil, persists accepted records as queryable METR-3
	// segment files (goroutine-confined like the rest of the state).
	seg *segmentStore

	// done is closed when the worker has exited; the state above is frozen
	// from then on and may be read by anyone who has seen it closed.
	done chan struct{}
}

func newShard(id, queueDepth int, opts energy.Options, c *counters, reg *deviceRegistry, seg *segmentStore) *shard {
	return &shard{
		id:       id,
		ch:       make(chan shardReq, queueDepth),
		opts:     opts,
		counters: c,
		reg:      reg,
		live:     map[string]*analysis.StreamAccumulator{},
		seqs:     map[string]int64{},
		retired:  analysis.NewStreamResult("fleet"),
		ledger:   map[string]*ledgerEntry{},
		saved:    map[string]int64{},
		touched:  map[string]struct{}{},
		seg:      seg,
		done:     make(chan struct{}),
	}
}

// run is the shard worker loop. It exits on the stop request, which the
// drain sends once every connection handler is gone: everything accepted is
// ahead of it in the queue and has been applied, and every live device is
// finalised on the way out — the graceful-shutdown guarantee that no
// accepted record is dropped.
func (s *shard) run() {
	defer close(s.done)
	for {
		req := <-s.ch
		switch {
		case req.batch != nil:
			s.feed(req.batch)
		case req.do != nil:
			req.do()
		default:
			for dev := range s.live {
				s.retire(dev)
			}
			if s.seg != nil {
				s.seg.closeAll()
			}
			return
		}
	}
}

// post enqueues fn for the shard goroutine, where it runs between batches
// with the shard's state to itself. The returned channel is closed once fn
// has run; it is nil when the shard has already stopped.
func (s *shard) post(fn func()) <-chan struct{} {
	select {
	case <-s.done: // checked first: a stopped shard's queue still has room
		return nil
	default:
	}
	ran := make(chan struct{})
	select {
	case s.ch <- shardReq{do: func() { fn(); close(ran) }}:
		return ran
	case <-s.done:
		return nil
	}
}

// wait blocks until a posted function has run, or the shard has stopped
// without running it (false): it was posted behind the stop request, or
// never posted (a nil ran blocks, leaving done).
func (s *shard) wait(ran <-chan struct{}) bool {
	select {
	case <-ran:
		return true
	case <-s.done:
	}
	select {
	case <-ran: // ran before the stop; both were ready
		return true
	default:
		return false
	}
}

// ask runs fn on the shard goroutine and waits for it. False means the
// shard has stopped and fn never ran.
func (s *shard) ask(fn func()) bool { return s.wait(s.post(fn)) }

// retire closes a live device's session: its result is merged into the
// serving aggregate and recorded in the retirement ledger under the
// device's sequence number. A device that had closed sessions before
// extends its entry — the entry stays the whole of what retired holds for
// the device, which is what a restart rebuilds it from.
// Idempotent — a re-sent FIN with no session open is a no-op.
func (s *shard) retire(dev string) {
	acc := s.live[dev]
	if acc == nil {
		return
	}
	var closed *analysis.StreamResult
	if e := s.ledger[dev]; e != nil {
		// e.blob was encoded right here or decoded once on its way in, so
		// this cannot fail; if it does, the session stays open (and
		// checkpointed as live) rather than the closed ones being forgotten.
		var err error
		if closed, err = analysis.DecodeStreamResult(e.blob); err != nil {
			s.counters.events.Logf(obs.LevelError, "device %s not retired: its ledger entry is unreadable: %v", dev, err)
			return
		}
	}
	res := acc.Finish()
	s.retired.Merge(res)
	if closed != nil {
		closed.Merge(res)
		res = closed
	}
	blob := res.AppendBinary(nil)
	s.ledger[dev] = &ledgerEntry{seq: s.seqs[dev], crc: crc32.ChecksumIEEE(blob), blob: blob}
	delete(s.live, dev)
	delete(s.saved, dev)
	s.touched[dev] = struct{}{}
	if s.seg != nil {
		s.seg.seal(dev)
	}
}

// feed is applyBatch plus its instrumentation. Per-batch (not per-record):
// two histogram observations amortized over up to BatchSize records keeps
// the apply path allocation-free and the overhead inside the noise floor
// (BenchmarkApplyInstrumented vs BenchmarkApplyBare, which calls applyBatch
// directly).
func (s *shard) feed(b *recordBatch) {
	if b.enqueuedNS > 0 {
		s.counters.applySeconds.Observe(float64(time.Now().UnixNano()-b.enqueuedNS) / 1e9)
	}
	s.counters.batchRecords.Observe(float64(b.cols.Len()))
	s.applyBatch(b)
}

// applyBatch applies a batch positionally: a record is accepted only when
// its sequence number equals the device's high-water mark. Anything below
// is a replay from a resumed or stale connection (dropped, counted);
// anything above would be a gap the handler should have severed on and is
// dropped the same way. First connection to deliver a given seq wins —
// duplicates can never double-count energy. The handler guarantees the
// batch is one contiguous run starting at firstSeq, so the rule collapses
// to window arithmetic — everything before the high-water mark is a
// replay, everything from it on feeds the accumulator in one FeedBatch
// call. The batch goes back to batchPool afterwards.
func (s *shard) applyBatch(b *recordBatch) {
	n := b.cols.Len()
	exp := s.seqs[b.device]
	k := exp - b.firstSeq
	if k < 0 || k >= int64(n) {
		// Entirely behind the high-water mark (a resumed connection's
		// replay racing a newer one) or entirely ahead (a gap the handler
		// should have severed on): every record drops positionally.
		s.counters.duplicates.Add(int64(n))
		batchPool.Put(b.cols)
		return
	}
	if k > 0 {
		s.counters.duplicates.Add(k)
	}
	acc := s.live[b.device]
	if acc == nil {
		acc = analysis.NewStreamAccumulator(b.device, s.opts)
		s.live[b.device] = acc
	}
	view := b.cols.Slice(int(k), n)
	acc.FeedBatch(&view)
	if s.seg != nil {
		s.seg.appendBatch(b.device, &view)
	}
	accepted := int64(n) - k
	s.seqs[b.device] = exp + accepted
	s.counters.records.Add(accepted)
	s.reg.get(b.device).records.Add(accepted)
	batchPool.Put(b.cols)
}

// install puts checkpointed state into the shard at Start, on the shard
// goroutine, before any connection is accepted: the shard is empty, so every
// unit is taken as it is. Record counters are seeded from the sequence
// numbers, so the observability surface survives the restart.
func (s *shard) install(units []*install) {
	for _, u := range units {
		if u.seq == 0 {
			continue // holds no record
		}
		if u.closed != nil {
			s.retired.Merge(u.res)
			s.ledger[u.device] = u.closed
		}
		if u.acc != nil {
			s.live[u.device] = u.acc
		}
		s.touched[u.device] = struct{}{}
		s.seqs[u.device] = u.seq
		s.counters.records.Add(u.seq)
		s.reg.get(u.device).records.Add(u.seq)
	}
}

// snapshot merges the retired aggregate with a Snapshot of every live
// device stream.
func (s *shard) snapshot() *analysis.StreamResult {
	agg := s.retired.Clone()
	for _, acc := range s.live {
		agg.Merge(acc.Snapshot())
	}
	return agg
}

// checkpoint serializes the shard's durable state, its share of a snapshot,
// one device at a time and each device whole: its ledger entry if it has
// closed sessions, its accumulator and sequence number if a session is open,
// and a bare sequence number if it has neither (poison-skipped before its
// first accepted record). full takes every device — a base; otherwise only
// those that changed since the last call — a delta frame, which costs the
// live devices a comparison each and nothing per device at rest. Either way
// the next delta starts from here, so a caller that fails to make the result
// durable must ask for a full one next.
func (s *shard) checkpoint(full bool) (ck checkpoint.Snapshot) {
	emit := func(dev string) {
		acc, e := s.live[dev], s.ledger[dev]
		if e != nil {
			ck.Ledger = append(ck.Ledger, checkpoint.RetiredRecord{
				Device: dev, Seq: e.seq, CRC: e.crc, Blob: e.blob,
			})
		}
		if acc != nil {
			ck.Devices = append(ck.Devices, checkpoint.DeviceState{
				Device: dev, Seq: s.seqs[dev], Acc: acc.AppendState(nil),
			})
			s.saved[dev] = s.seqs[dev]
		} else if e == nil {
			ck.Devices = append(ck.Devices, checkpoint.DeviceState{Device: dev, Seq: s.seqs[dev]})
		}
	}
	if full {
		for dev := range s.seqs {
			emit(dev)
		}
	} else {
		for dev := range s.touched {
			emit(dev)
		}
		for dev := range s.live {
			if s.saved[dev] != s.seqs[dev] { // a live device has accepted a record, so never 0
				emit(dev)
			}
		}
	}
	clear(s.touched)
	return ck
}

// depth reports the current queue occupancy (an observability gauge; racy
// by nature, exact enough for monitoring).
func (s *shard) depth() int { return len(s.ch) }
