// Package energy implements the study's accounting engine: it replays a
// device's packet trace through a radio power model and attributes every
// joule to an (app, process state, day) triple.
//
// Attribution follows the paper §3.1: promotion and transfer energy belong
// to the packet that caused them; tail energy is assigned to the app of the
// last packet sent before the tail, so concurrent flows never double-count.
// The invariant Σ(per-app energy) == device total holds by construction and
// is enforced by property tests.
//
// Replay is the only place that rule is written: Process (the study) and
// analysis.StreamAccumulator (ingest, query windows, -stream) both push
// their packets through it.
package energy

import (
	"encoding/binary"

	"netenergy/internal/appproto"
	"netenergy/internal/netparse"
	"netenergy/internal/radio"
	"netenergy/internal/trace"
)

// Packet is one decoded, energy-attributed packet from a device trace.
type Packet struct {
	TS    trace.Timestamp
	App   uint32
	Dir   trace.Direction
	State trace.ProcState
	Bytes int // wire bytes (decoded IP total length)
	// Conn is the packet's connection: Result.Conns[Conn] is its canonical
	// five-tuple, shared by both directions.
	Conn uint32
	// Seq is the TCP sequence number (0 for non-TCP packets), used by the
	// retransmission analysis.
	Seq    uint32
	Energy float64 // joules attributed to this packet (incl. its tail share)
	// Host indexes Result.Hosts: the HTTP Host header parsed from the
	// captured payload of an uplink request packet, or 0 when there is none
	// (no request, or a header cut short by the snap length). An index, not
	// a string, so that Packet holds no pointer and a device's packet slice
	// is never scanned by the garbage collector.
	Host uint32
}

// DayStats aggregates one app's activity on one day.
type DayStats struct {
	Energy   float64
	FgEnergy float64 // energy attributed while the app was foreground/visible
	BgEnergy float64
	FgBytes  int64
	BgBytes  int64
	Packets  int
}

// Ledger is the aggregated energy accounting for one device.
//
// While a Replay charges it, a ledger keeps one dense accumulator per map key
// — ByApp[app], ByState[s], ByAppState[app][s] and BytesByApp[app] — and the
// maps fall behind. Sync writes the accumulators back by assignment, so each
// key sees the same additions in the same order as a map-only ledger would.
// The maps are current after Settle (and so Finish and every snapshot), on
// the source side of Merge, and after Sync.
type Ledger struct {
	Total      float64
	ByApp      map[uint32]float64
	ByState    map[trace.ProcState]float64
	ByAppState map[uint32]map[trace.ProcState]float64
	ByAppDay   map[uint32]map[int]*DayStats
	BytesByApp map[uint32]int64
	// IdleEnergy is the baseline paging energy over the trace span; it is
	// reported separately and never attributed to apps.
	IdleEnergy float64

	// live holds the dense accumulators from the first charge until Settle;
	// nil while the maps alone are the ledger.
	live *accumulators
}

// denseStates is how many ProcState values the dense accumulators hold,
// StateUnknown through StateBackground with room to spare. A state outside
// them, which only a malformed record carries, is charged to the maps
// directly: each key has exactly one home while the ledger is live.
const denseStates = 8

// Presence bits of appSlot.has beyond the per-state bits 0..denseStates-1:
// a key a map-only ledger would hold is written back, and no other.
const (
	hasEnergy = 1 << (denseStates + iota)
	hasBytes

	stateBits = 1<<denseStates - 1
)

// appSlot is one app's dense accumulators, seeded from the maps when the
// live ledger first touches the app.
type appSlot struct {
	app     uint32
	energy  float64              // ByApp[app]
	bytes   int64                // BytesByApp[app]
	byState [denseStates]float64 // ByAppState[app][s]
	has     uint16
	// The app's last day and its stats: a charge to another app's packet
	// and back lands here without a map lookup.
	day int
	ds  *DayStats
}

// accumulators is a live ledger's dense state.
type accumulators struct {
	byState [denseStates]float64 // ByState[s]
	has     uint8
	slots   []*appSlot // in first-touch order, the order Sync writes
	index   map[uint32]*appSlot
	dirty   bool // a charge since the last Sync

	// Hot-path memo: packets arrive in runs from one app within one day, so
	// the last (app, day) pair's slot and stats are cached, collapsing the
	// lookups to one compare on repeat hits. memoSlot == nil means invalid.
	memoApp  uint32
	memoDay  int
	memoSlot *appSlot
	memoDS   *DayStats
}

// NewLedger returns an empty Ledger, to hand to NewReplay or to accumulate
// into by Merge.
func NewLedger() *Ledger {
	return &Ledger{
		ByApp:      make(map[uint32]float64),
		ByState:    make(map[trace.ProcState]float64),
		ByAppState: make(map[uint32]map[trace.ProcState]float64),
		ByAppDay:   make(map[uint32]map[int]*DayStats),
		BytesByApp: make(map[uint32]int64),
	}
}

// addPacket records a packet's byte accounting (without energy).
func (l *Ledger) addPacket(app uint32, day int, state trace.ProcState, wireBytes int64) {
	a, ds := l.hot(app, day)
	ds.Packets++
	if state.IsForeground() {
		ds.FgBytes += wireBytes
	} else {
		ds.BgBytes += wireBytes
	}
	a.bytes += wireBytes
	a.has |= hasBytes
	l.live.dirty = true
}

// charge adds e joules to the (app, state, day) triple.
func (l *Ledger) charge(app uint32, state trace.ProcState, day int, e float64) {
	a, ds := l.hot(app, day)
	lv := l.live
	lv.dirty = true
	l.Total += e
	a.energy += e
	a.has |= hasEnergy
	if state < denseStates {
		lv.byState[state] += e
		lv.has |= 1 << state
		a.byState[state] += e
		a.has |= 1 << state
	} else {
		l.ByState[state] += e
		l.appStates(app)[state] += e
	}
	ds.Energy += e
	if state.IsForeground() {
		ds.FgEnergy += e
	} else {
		ds.BgEnergy += e
	}
}

// hot returns the (app, day) attribution targets — the app's slot and the
// day's stats — through the one-entry memo, making the ledger live on its
// first charge.
func (l *Ledger) hot(app uint32, day int) (*appSlot, *DayStats) {
	lv := l.live
	if lv != nil && lv.memoSlot != nil && app == lv.memoApp && day == lv.memoDay {
		return lv.memoSlot, lv.memoDS
	}
	if lv == nil {
		lv = l.goLive()
	}
	a := lv.index[app]
	if a == nil {
		a = l.seedSlot(app)
	}
	if a.ds == nil || a.day != day {
		a.day, a.ds = day, l.dayStats(app, day)
	}
	lv.memoApp, lv.memoDay, lv.memoSlot, lv.memoDS = app, day, a, a.ds
	return a, a.ds
}

// goLive starts the dense accumulators, seeding ByState's from the map so
// that a restored ledger continues exactly where it stopped.
func (l *Ledger) goLive() *accumulators {
	lv := &accumulators{index: make(map[uint32]*appSlot)}
	for s := range lv.byState {
		if e, ok := l.ByState[trace.ProcState(s)]; ok {
			lv.byState[s] = e
			lv.has |= 1 << s
		}
	}
	l.live = lv
	return lv
}

// seedSlot gives app its dense accumulators, seeded from the maps.
func (l *Ledger) seedSlot(app uint32) *appSlot {
	a := &appSlot{app: app}
	if e, ok := l.ByApp[app]; ok {
		a.energy = e
		a.has |= hasEnergy
	}
	if b, ok := l.BytesByApp[app]; ok {
		a.bytes = b
		a.has |= hasBytes
	}
	for s, e := range l.ByAppState[app] {
		if s < denseStates {
			a.byState[s] = e
			a.has |= 1 << s
		}
	}
	l.live.slots = append(l.live.slots, a)
	l.live.index[app] = a
	return a
}

// Sync makes the public maps current: every dense accumulator is written
// back to its key by assignment. A ledger with nothing charged since its
// last Sync writes nothing, so concurrent readers of a settled ledger may
// all call it.
func (l *Ledger) Sync() {
	lv := l.live
	if lv == nil || !lv.dirty {
		return
	}
	for s, e := range lv.byState {
		if lv.has&(1<<s) != 0 {
			l.ByState[trace.ProcState(s)] = e
		}
	}
	for _, a := range lv.slots {
		if a.has&hasEnergy != 0 {
			l.ByApp[a.app] = a.energy
		}
		if a.has&hasBytes != 0 {
			l.BytesByApp[a.app] = a.bytes
		}
		if a.has&stateBits == 0 {
			continue
		}
		as := l.appStates(a.app)
		for s, e := range a.byState {
			if a.has&(1<<s) != 0 {
				as[trace.ProcState(s)] = e
			}
		}
	}
	lv.dirty = false
}

func (l *Ledger) appStates(app uint32) map[trace.ProcState]float64 {
	as := l.ByAppState[app]
	if as == nil {
		as = make(map[trace.ProcState]float64)
		l.ByAppState[app] = as
	}
	return as
}

func (l *Ledger) dayStats(app uint32, day int) *DayStats {
	ad := l.ByAppDay[app]
	if ad == nil {
		ad = make(map[int]*DayStats)
		l.ByAppDay[app] = ad
	}
	ds := ad[day]
	if ds == nil {
		ds = &DayStats{}
		ad[day] = ds
	}
	return ds
}

// BackgroundFraction returns the fraction of attributed energy consumed in
// background states (perceptible, service, background) — the paper's
// headline "84% of cellular network energy" number.
func (l *Ledger) BackgroundFraction() float64 {
	if l.Total == 0 {
		return 0
	}
	// Sum in fixed state order, not map order: float addition is not
	// associative, so map-iteration sums make the headline differ in the
	// last ulp between identical ledgers (the columnar equivalence harness
	// compares it bit-for-bit).
	var bg float64
	for _, s := range trace.AllStates {
		if s.IsBackground() {
			bg += l.ByState[s]
		}
	}
	return bg / l.Total
}

// StateFraction returns the fraction of energy consumed in state s.
func (l *Ledger) StateFraction(s trace.ProcState) float64 {
	if l.Total == 0 {
		return 0
	}
	return l.ByState[s] / l.Total
}

// AppBackgroundFraction returns the fraction of an app's energy consumed in
// background states (Chrome's ~30% in §4.1).
func (l *Ledger) AppBackgroundFraction(app uint32) float64 {
	total := l.ByApp[app]
	if total == 0 {
		return 0
	}
	// Fixed state order for the same reason as BackgroundFraction.
	var bg float64
	as := l.ByAppState[app]
	for _, s := range trace.AllStates {
		if s.IsBackground() {
			bg += as[s]
		}
	}
	return bg / total
}

// Options configures a Replay, and so Process and the stream accumulator.
type Options struct {
	// Radio is the power model to replay against. Zero value means LTE.
	Radio radio.Params
	// Network selects which interface's packets to account (the study
	// focuses on cellular).
	Network trace.Network
	// KeepPackets controls whether Process returns the per-packet slice;
	// aggregate-only callers can save the memory.
	KeepPackets bool
}

// DefaultOptions accounts cellular traffic against the LTE model and keeps
// per-packet results.
func DefaultOptions() Options {
	return Options{Radio: radio.LTE(), Network: trace.NetCellular, KeepPackets: true}
}

// Replay is the attribution kernel: one device's packets, in timestamp
// order, pushed through the packet parser and the radio accountant, every
// joule charged to an (app, state, day) triple of Ledger. Per packet the
// charges land in a fixed order — the gap tail since the previous packet to
// that previous packet's triple, then promotion + transfer to this packet's,
// then the byte accounting — and nothing else in the repository charges a
// Ledger, so two consumers fed the same packets hold bit-identical float
// sums. Not safe for concurrent use; one Replay per device stream.
type Replay struct {
	Ledger       *Ledger
	DecodeErrors int                // packets on the accounted network that failed to parse
	Span         [2]trace.Timestamp // first and last accounted packet

	network trace.Network
	parser  netparse.Parser
	acct    radio.Accountant

	// The previous accounted packet's triple: where the next gap tail, and
	// the final tail, are charged.
	prevApp   uint32
	prevState trace.ProcState
	prevDay   int
	havePrev  bool
}

// NewReplay returns a kernel charging into l.
func NewReplay(opts Options, l *Ledger) *Replay {
	if opts.Radio.Name == "" {
		opts.Radio = radio.LTE()
	}
	return &Replay{
		Ledger:  l,
		network: opts.Network,
		acct:    *radio.NewAccountant(opts.Radio),
	}
}

// Packet accounts one packet record, given as the scalars a trace.Record and
// a trace.RecordBatch row share. It returns the decoded packet (owned by the
// kernel's parser, valid until the next call), the energy the packet itself
// caused (promotion + transfer) and the gap tail it just charged to the
// previous packet. d is nil, and nothing was charged, for a packet on
// another network or one that does not parse (counted in DecodeErrors).
//
//repolint:noalloc
func (k *Replay) Packet(ts trace.Timestamp, app uint32, dir trace.Direction, net trace.Network,
	state trace.ProcState, payload []byte) (d *netparse.Decoded, own, gapTail float64) {
	if net != k.network {
		return nil, 0, 0
	}
	d, err := k.parser.DecodePacket(payload)
	if err != nil {
		k.DecodeErrors++
		return nil, 0, 0
	}
	day := ts.Day()
	if !k.havePrev {
		// The first packet opens the span and stands in as its own
		// predecessor: the accountant charges no gap before it, but should a
		// restored state ever disagree, the charge lands on this packet
		// rather than on a triple nobody sent.
		k.Span[0] = ts
		k.prevApp, k.prevState, k.prevDay, k.havePrev = app, state, day, true
	}
	k.Span[1] = ts

	rdir := radio.Down
	if dir == trace.DirUp {
		rdir = radio.Up
	}
	c := k.acct.OnPacket(ts.Seconds(), d.WireLen, rdir)
	if c.GapTail > 0 {
		k.Ledger.charge(k.prevApp, k.prevState, k.prevDay, c.GapTail)
	}
	own = c.Promotion + c.Transfer
	k.Ledger.charge(app, state, day, own)
	k.Ledger.addPacket(app, day, state, int64(d.WireLen))
	k.prevApp, k.prevState, k.prevDay = app, state, day
	return d, own, c.GapTail
}

// Settle charges to l what ending the stream now would still owe — the
// radio's pending tail, to the last packet's triple, and the idle baseline
// over Span — and returns the tail. The kernel itself does not move, so l
// may be a copy of Ledger taken mid-stream (a snapshot) as well as Ledger
// itself (Finish). l leaves with its maps current and its dense
// accumulators dropped: a plain map ledger again, which Merge may add into.
func (k *Replay) Settle(l *Ledger) float64 {
	var tail float64
	if k.havePrev && k.acct.State() != radio.Idle {
		tail = k.acct.Params().FullTailEnergy()
		l.charge(k.prevApp, k.prevState, k.prevDay, tail)
	}
	l.IdleEnergy = k.acct.Params().IdlePower * k.Span[1].Sub(k.Span[0])
	l.Sync()
	l.live = nil
	return tail
}

// Finish closes the stream: Ledger is settled and the radio rides its tail
// out to idle. It returns the final tail, which belongs to the last packet.
// The kernel must not be fed afterwards.
func (k *Replay) Finish() float64 {
	tail := k.Settle(k.Ledger)
	k.acct.Finish()
	return tail
}

// ReplayState is what a kernel needs, beside its Ledger, DecodeErrors and
// Span, to resume mid-stream in another process with bit-identical
// accounting; the parser and the radio parameters are rebuilt from Options.
type ReplayState struct {
	PrevApp   uint32
	PrevState trace.ProcState
	PrevDay   int
	HavePrev  bool
	Radio     radio.AccountantState
}

// SaveState captures the kernel's resume state.
func (k *Replay) SaveState() ReplayState {
	return ReplayState{k.prevApp, k.prevState, k.prevDay, k.havePrev, k.acct.SaveState()}
}

// RestoreState reinstalls a state captured by SaveState on a kernel built
// with the same Options.
func (k *Replay) RestoreState(s ReplayState) {
	k.prevApp, k.prevState, k.prevDay, k.havePrev = s.PrevApp, s.PrevState, s.PrevDay, s.HavePrev
	k.acct.RestoreState(s.Radio)
}

// Result is the outcome of processing one device trace.
type Result struct {
	Device  string
	Ledger  *Ledger
	Packets []Packet // nil unless Options.KeepPackets
	// Conns holds each connection's canonical five-tuple, indexed by
	// Packet.Conn: dense ids in the order the device first used them.
	Conns []netparse.FiveTuple
	// Hosts holds each distinct request host, indexed by Packet.Host: dense
	// ids from 1 in first-seen order, and Hosts[0] == "" for "no host".
	Hosts        []string
	DecodeErrors int // packets skipped because they failed to parse
	Span         [2]trace.Timestamp
}

// Process replays all matching packet records of dt through the kernel and
// returns the energy attribution. Records must be in timestamp order
// (DeviceTrace.SortByTime establishes this).
func Process(dt *trace.DeviceTrace, opts Options) (*Result, error) {
	k := NewReplay(opts, NewLedger())
	res := &Result{Device: dt.Device, Ledger: k.Ledger}
	if opts.KeepPackets {
		// One allocation, sized by the records the kernel will accept; a
		// packet that fails to parse leaves spare capacity behind.
		n := 0
		for i := range dt.Records {
			if r := &dt.Records[i]; r.Type == trace.RecPacket && r.Net == opts.Network {
				n++
			}
		}
		res.Packets = make([]Packet, 0, n)
	}
	hosts := hostTable{ids: map[string]uint32{}, names: []string{""}}
	conns := connTable{v4: map[v4Key]uint32{}, v6: map[netparse.FiveTuple]uint32{}}

	for i := range dt.Records {
		r := &dt.Records[i]
		if r.Type != trace.RecPacket {
			continue
		}
		d, own, gapTail := k.Packet(r.TS, r.App, r.Dir, r.Net, r.State, r.Payload)
		if d == nil || !opts.KeepPackets {
			continue
		}
		// The gap tail belongs to the previous packet, as in the ledger.
		if n := len(res.Packets); n > 0 {
			res.Packets[n-1].Energy += gapTail
		}
		var host uint32
		if r.Dir == trace.DirUp && appproto.IsRequest(d.Payload) {
			if h, ok := appproto.ParseHost(d.Payload); ok {
				host = hosts.id(h)
			}
		}
		var seq uint32
		if d.Transport == netparse.LayerTypeTCP {
			seq = d.TCP.Seq
		}
		res.Packets = append(res.Packets, Packet{
			TS: r.TS, App: r.App, Dir: r.Dir, State: r.State,
			Bytes: d.WireLen, Conn: conns.id(d, r.Dir), Seq: seq, Energy: own,
			Host: host,
		})
	}
	res.Conns, res.Hosts = conns.tuples, hosts.names

	// The final tail belongs to the last packet.
	if fin, n := k.Finish(), len(res.Packets); n > 0 {
		res.Packets[n-1].Energy += fin
	}
	res.DecodeErrors, res.Span = k.DecodeErrors, k.Span
	return res, nil
}

// connTable numbers a device's connections densely in first-seen order,
// keyed by canonical tuple so both directions share one id. An IPv4 tuple
// keys packed: each side as ip<<16|port, which orders sides exactly as
// Canonical does (address bytes, then port), the lower side first, and the
// protocol above the lower side's 48 bits. An IPv6 tuple keys by FiveTuple.
type connTable struct {
	v4     map[v4Key]uint32
	v6     map[netparse.FiveTuple]uint32
	tuples []netparse.FiveTuple
	// The last IPv4 key looked up in each direction, as sent (not ordered),
	// and its id: a burst repeats one tuple per direction, and a repeat is
	// neither ordered nor hashed. The zero key matches no decoded packet,
	// whose protocol is TCP or UDP.
	last   [2]v4Key
	lastID [2]uint32
}

// v4Key is a packed IPv4 five-tuple: lo|proto<<48 and hi.
type v4Key struct{ lo, hi uint64 }

func (c *connTable) id(d *netparse.Decoded, dir trace.Direction) uint32 {
	if d.Network != netparse.LayerTypeIPv4 {
		canon := d.Tuple.Canonical()
		id, ok := c.v6[canon]
		if !ok {
			id = c.add(canon)
			c.v6[canon] = id
		}
		return id
	}
	m := 0
	if dir == trace.DirUp {
		m = 1
	}
	src := uint64(binary.BigEndian.Uint32(d.IPv4.SrcIP[:]))<<16 | uint64(d.Tuple.PortA)
	dst := uint64(binary.BigEndian.Uint32(d.IPv4.DstIP[:]))<<16 | uint64(d.Tuple.PortB)
	proto := uint64(d.Tuple.Proto) << 48
	sent := v4Key{src | proto, dst}
	if sent == c.last[m] {
		return c.lastID[m]
	}
	key := sent
	if dst < src {
		key = v4Key{dst | proto, src}
	}
	id, ok := c.v4[key]
	if !ok {
		id = c.add(d.Tuple)
		c.v4[key] = id
	}
	c.last[m], c.lastID[m] = sent, id
	return id
}

// add hands out the next id, to t's canonical form.
func (c *connTable) add(t netparse.FiveTuple) uint32 {
	c.tuples = append(c.tuples, t.Canonical())
	return uint32(len(c.tuples) - 1)
}

// hostTable numbers a device's request hosts densely from 1 in first-seen
// order; names[0] is "", the id of no host.
type hostTable struct {
	ids   map[string]uint32
	names []string
}

func (h *hostTable) id(b []byte) uint32 {
	id, ok := h.ids[string(b)]
	if !ok {
		s := string(b)
		id = uint32(len(h.names))
		h.names = append(h.names, s)
		h.ids[s] = id
	}
	return id
}

// MergeLedgers sums per-device ledgers into one fleet-wide ledger. App IDs
// must be comparable across devices (the generator interns app names with
// the same table ordering on every device; callers merging heterogeneous
// traces should remap IDs first).
func MergeLedgers(ls []*Ledger) *Ledger {
	m := NewLedger()
	for _, l := range ls {
		m.Merge(l)
	}
	return m
}

// Merge adds the contents of other into l in place. The streaming fleet
// aggregator and the ingest shards use it to fold per-device ledgers into a
// running fleet total without reallocating. other is synced first, so it may
// be a ledger a Replay is still charging. l may not: its dense accumulators
// would overwrite what Merge adds to the maps, so Merge refuses it.
func (l *Ledger) Merge(other *Ledger) {
	if l.live != nil {
		panic("energy: Merge into a ledger a Replay is charging")
	}
	other.Sync()
	l.Total += other.Total
	l.IdleEnergy += other.IdleEnergy
	for app, e := range other.ByApp {
		l.ByApp[app] += e
	}
	for s, e := range other.ByState {
		l.ByState[s] += e
	}
	for app, as := range other.ByAppState {
		dst := l.ByAppState[app]
		if dst == nil {
			dst = make(map[trace.ProcState]float64)
			l.ByAppState[app] = dst
		}
		for s, e := range as {
			dst[s] += e
		}
	}
	for app, days := range other.ByAppDay {
		for day, ds := range days {
			dst := l.dayStats(app, day)
			dst.Energy += ds.Energy
			dst.FgEnergy += ds.FgEnergy
			dst.BgEnergy += ds.BgEnergy
			dst.FgBytes += ds.FgBytes
			dst.BgBytes += ds.BgBytes
			dst.Packets += ds.Packets
		}
	}
	for app, b := range other.BytesByApp {
		l.BytesByApp[app] += b
	}
}
