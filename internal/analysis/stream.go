package analysis

import (
	"io"
	"os"

	"netenergy/internal/energy"
	"netenergy/internal/periodic"
	"netenergy/internal/stats"
	"netenergy/internal/trace"
)

// StreamResult is the bounded-memory subset of the study computed in one
// sequential pass over a trace stream: the energy ledgers, the Figure 6
// series, the first-minute byte counters and the screen-off split. Memory
// is O(apps + bins), independent of trace length — the mode that handles
// the paper's 125 GB dataset.
type StreamResult struct {
	Device       string
	Ledger       *energy.Ledger
	DecodeErrors int

	// Fig6 accumulators (10 s bins over 2 h).
	SinceFg *stats.TimeBins

	// First-minute criterion accumulators, keyed by app ID.
	BgBytesByApp    map[uint32]int64
	EarlyBytesByApp map[uint32]int64
	EverForeground  map[uint32]bool

	// Screen split.
	OffBytes, OnBytes   int64
	OffEnergy, OnEnergy float64

	Span [2]trace.Timestamp
}

// NewStreamResult returns an empty result with all accumulators allocated;
// callers outside the package accumulate into it via Merge (the ingest
// shards seed their fleet aggregate with one).
func NewStreamResult(device string) *StreamResult {
	return &StreamResult{
		Device:          device,
		Ledger:          energy.NewLedger(),
		SinceFg:         stats.NewTimeBins(10, 720),
		BgBytesByApp:    map[uint32]int64{},
		EarlyBytesByApp: map[uint32]int64{},
		EverForeground:  map[uint32]bool{},
	}
}

// Clone returns a deep copy: mutating the clone (or continuing to feed the
// original) leaves the other untouched. Used to snapshot live accumulators.
func (r *StreamResult) Clone() *StreamResult {
	c := NewStreamResult(r.Device)
	c.Merge(r)
	return c
}

// Merge adds other's accumulators into r, turning per-device stream results
// into fleet aggregates. App IDs must be comparable across devices (same
// caveat as energy.MergeLedgers). Fig6 bins merge by time offset, so
// differing bin layouts still combine correctly.
func (r *StreamResult) Merge(other *StreamResult) {
	r.DecodeErrors += other.DecodeErrors
	r.Ledger.Merge(other.Ledger)
	if r.SinceFg.Width == other.SinceFg.Width && len(r.SinceFg.Vals) == len(other.SinceFg.Vals) {
		for i, v := range other.SinceFg.Vals {
			r.SinceFg.Vals[i] += v
		}
	} else {
		for i, v := range other.SinceFg.Vals {
			r.SinceFg.Add(float64(i)*other.SinceFg.Width, v)
		}
	}
	for app, b := range other.BgBytesByApp {
		r.BgBytesByApp[app] += b
	}
	for app, b := range other.EarlyBytesByApp {
		r.EarlyBytesByApp[app] += b
	}
	for app, v := range other.EverForeground {
		if v {
			r.EverForeground[app] = true
		}
	}
	r.OffBytes += other.OffBytes
	r.OnBytes += other.OnBytes
	r.OffEnergy += other.OffEnergy
	r.OnEnergy += other.OnEnergy
	if r.Span[0] == 0 || (other.Span[0] != 0 && other.Span[0] < r.Span[0]) {
		r.Span[0] = other.Span[0]
	}
	if other.Span[1] > r.Span[1] {
		r.Span[1] = other.Span[1]
	}
}

// FirstMinuteFraction evaluates the §4.1 criterion over the streamed
// accumulators.
func (r *StreamResult) FirstMinuteFraction(threshold float64) float64 {
	total, meeting := 0, 0
	for app, b := range r.BgBytesByApp {
		if b <= 0 {
			continue
		}
		total++
		share := float64(r.EarlyBytesByApp[app]) / float64(b)
		if !r.EverForeground[app] {
			share = 0
		}
		if share >= threshold {
			meeting++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(meeting) / float64(total)
}

// SinceForeground converts the streamed bins into the Figure 6 result.
func (r *StreamResult) SinceForeground() SinceForegroundResult {
	offs, vals := r.SinceFg.Series()
	res := SinceForegroundResult{BinWidth: r.SinceFg.Width, Offsets: offs, Bytes: vals}
	res.TotalBgBytes = stats.Sum(vals)
	if res.TotalBgBytes > 0 {
		var first float64
		for i := range offs {
			if offs[i] < 60 {
				first += vals[i]
			}
		}
		res.FirstMinute = first / res.TotalBgBytes
	}
	res.Spike5m = periodic.SpikeScore(vals, int(300/r.SinceFg.Width), 6)
	res.Spike10m = periodic.SpikeScore(vals, int(600/r.SinceFg.Width), 6)
	return res
}

// StreamAccumulator is the push-mode form of the bounded-memory analyzer:
// records are fed to it one at a time (in timestamp order, as a device
// produces them) and the StreamResult advances in lockstep. The batch
// StreamBatches pass and the live ingest server are both built on it.
// Energy attribution is energy.Replay's — the same kernel energy.Process
// runs — charging straight into the result's Ledger; what this type adds
// per packet is the Figure 6, first-minute and screen-split bookkeeping.
// Not safe for concurrent use; one accumulator per device stream.
type StreamAccumulator struct {
	res    *StreamResult
	replay *energy.Replay

	// Incremental per-app state: whether the app is foreground now and the
	// end of its latest foreground interval.
	lastFgEnd map[uint32]trace.Timestamp
	inFg      map[uint32]bool
	screenOn  bool

	records int64
}

// NewStreamAccumulator returns an accumulator for one device stream.
func NewStreamAccumulator(device string, opts energy.Options) *StreamAccumulator {
	return newStreamAccumulator(NewStreamResult(device), opts)
}

// newStreamAccumulator continues res: a fresh result, or a restored one.
func newStreamAccumulator(res *StreamResult, opts energy.Options) *StreamAccumulator {
	replay := energy.NewReplay(opts, res.Ledger)
	replay.DecodeErrors, replay.Span = res.DecodeErrors, res.Span
	return &StreamAccumulator{
		res:       res,
		replay:    replay,
		lastFgEnd: map[uint32]trace.Timestamp{},
		inFg:      map[uint32]bool{},
	}
}

// Feed advances the accumulator by one record. Nothing is retained per
// packet: the radio accountant, the process-state snapshot, the screen flag
// and the aggregate bins advance in lockstep with the stream. The record
// (and its Payload) may be reused by the caller after Feed returns.
//
// Feed and FeedBatch share the per-type helpers below, so feeding a batch
// is bit-identical — same float operations in the same order — to feeding
// its records one at a time. The differential harness in equiv_test.go
// holds the two paths, and energy.Process, to that standard.
func (a *StreamAccumulator) Feed(rec *trace.Record) {
	a.records++
	switch rec.Type {
	case trace.RecProcState:
		a.feedProcState(rec.TS, rec.App, rec.State)
	case trace.RecScreen:
		a.feedScreen(rec.ScreenOn)
	case trace.RecPacket:
		a.feedPacket(rec.TS, rec.App, rec.Dir, rec.Net, rec.State, rec.Payload)
	}
}

// FeedBatch advances the accumulator over every record of a batch, reading
// the columns directly — no Record materialisation. Equivalent to calling
// Feed on each record in order.
//
//repolint:noalloc
func (a *StreamAccumulator) FeedBatch(b *trace.RecordBatch) {
	n := b.Len()
	a.records += int64(n)
	for i := 0; i < n; i++ {
		switch b.Types[i] {
		case trace.RecProcState:
			a.feedProcState(b.TS[i], b.App[i], trace.ProcState(b.Aux[i]))
		case trace.RecScreen:
			a.feedScreen(b.Flags[i]&1 != 0)
		case trace.RecPacket:
			f := b.Flags[i]
			a.feedPacket(b.TS[i], b.App[i], trace.Direction(f&1),
				trace.Network((f>>1)&1), trace.ProcState(b.Aux[i]), b.Bytes(i))
		}
	}
}

//repolint:noalloc
func (a *StreamAccumulator) feedProcState(ts trace.Timestamp, app uint32, state trace.ProcState) {
	if a.inFg[app] && !state.IsForeground() {
		a.lastFgEnd[app] = ts
	}
	a.inFg[app] = state.IsForeground()
	if state.IsForeground() {
		a.res.EverForeground[app] = true
	}
}

//repolint:noalloc
func (a *StreamAccumulator) feedScreen(on bool) {
	a.screenOn = on
}

//repolint:noalloc
func (a *StreamAccumulator) feedPacket(ts trace.Timestamp, app uint32, dir trace.Direction,
	net trace.Network, state trace.ProcState, payload []byte) {
	res := a.res
	d, own, gapTail := a.replay.Packet(ts, app, dir, net, state, payload)
	res.DecodeErrors, res.Span = a.replay.DecodeErrors, a.replay.Span
	if d == nil {
		return
	}

	if state.IsBackground() {
		res.BgBytesByApp[app] += int64(d.WireLen)
		fgEnd, wasFg := a.lastFgEnd[app]
		if a.inFg[app] {
			fgEnd, wasFg = ts, true
		}
		if wasFg {
			since := ts.Sub(fgEnd)
			res.SinceFg.Add(since, float64(d.WireLen))
			if since <= 60 {
				res.EarlyBytesByApp[app] += int64(d.WireLen)
			}
		}
	}
	if a.screenOn {
		res.OnBytes += int64(d.WireLen)
		res.OnEnergy += own + gapTail
	} else {
		res.OffBytes += int64(d.WireLen)
		res.OffEnergy += own + gapTail
	}
}

// Finish closes the stream — the radio rides its final tail out and the
// idle baseline is settled — and returns the completed result. The
// accumulator must not be fed afterwards.
func (a *StreamAccumulator) Finish() *StreamResult {
	a.replay.Finish()
	return a.res
}

// Snapshot returns a deep copy of the result as if the stream ended now:
// the pending radio tail and idle baseline are charged on the copy, while
// the live accumulator continues unperturbed. This is what makes the fleet
// headline queryable mid-stream.
func (a *StreamAccumulator) Snapshot() *StreamResult {
	c := a.res.Clone()
	a.replay.Settle(c.Ledger)
	return c
}

// StreamBatches processes a trace stream batch-at-a-time through the
// columnar feed path: METR-3 blocks are served zero-copy as column
// batches, row containers are assembled into batches by the reader.
// Records must be in timestamp order (generated traces are). Results are
// bit-identical to feeding the same records one at a time (Feed).
func StreamBatches(br *trace.BatchReader, opts energy.Options) (*StreamResult, error) {
	acc := NewStreamAccumulator(br.Device(), opts)
	for {
		b, err := br.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		acc.FeedBatch(b)
	}
	return acc.Finish(), nil
}

// StreamFleet runs StreamBatches over every file of a fleet, merging the
// aggregate accumulators. Peak memory is one device's O(apps) state.
func StreamFleet(fleet *trace.Fleet, opts energy.Options) (*StreamResult, error) {
	agg := NewStreamResult("fleet")
	for _, path := range fleet.Paths {
		res, err := streamFile(path, opts)
		if err != nil {
			return nil, err
		}
		agg.Merge(res)
	}
	return agg, nil
}

func streamFile(path string, opts energy.Options) (*StreamResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br, err := trace.NewBatchReader(f)
	if err != nil {
		return nil, err
	}
	return StreamBatches(br, opts)
}
