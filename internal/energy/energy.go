// Package energy implements the study's accounting engine: it replays a
// device's packet trace through a radio power model and attributes every
// joule to an (app, process state, day) triple.
//
// Attribution follows the paper §3.1: promotion and transfer energy belong
// to the packet that caused them; tail energy is assigned to the app of the
// last packet sent before the tail, so concurrent flows never double-count.
// The invariant Σ(per-app energy) == device total holds by construction and
// is enforced by property tests.
package energy

import (
	"fmt"

	"netenergy/internal/appproto"
	"netenergy/internal/netparse"
	"netenergy/internal/radio"
	"netenergy/internal/trace"
)

// Packet is one decoded, energy-attributed packet from a device trace.
type Packet struct {
	TS     trace.Timestamp
	App    uint32
	Dir    trace.Direction
	State  trace.ProcState
	Bytes  int // wire bytes (decoded IP total length)
	Tuple  netparse.FiveTuple
	Energy float64 // joules attributed to this packet (incl. its tail share)
	// Seq is the TCP sequence number (0 for non-TCP packets), used by the
	// retransmission analysis.
	Seq uint32
	// Host is the HTTP Host header parsed from the captured payload of
	// uplink request packets ("" when absent or truncated). Host strings
	// are interned, so identical hosts share storage.
	Host string
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

	// Hot-path memo: packets arrive in runs from one app within one day,
	// so the inner attribution maps for the last (app, day) pair are
	// cached, collapsing the nested lookups (and their not-yet-present
	// checks) to one compare on repeat hits. memoAS == nil means invalid.
	// Safe across Merge: inner maps and DayStats pointers are only ever
	// added to, never replaced.
	memoApp uint32
	memoDay int
	memoAS  map[trace.ProcState]float64
	memoDS  *DayStats
}

// NewLedger returns an empty Ledger, for callers that accumulate charges
// directly (the streaming analyzer).
func NewLedger() *Ledger { return newLedger() }

func newLedger() *Ledger {
	return &Ledger{
		ByApp:      make(map[uint32]float64),
		ByState:    make(map[trace.ProcState]float64),
		ByAppState: make(map[uint32]map[trace.ProcState]float64),
		ByAppDay:   make(map[uint32]map[int]*DayStats),
		BytesByApp: make(map[uint32]int64),
	}
}

// Charge adds e joules to the (app, state, day) triple.
func (l *Ledger) Charge(app uint32, state trace.ProcState, day int, e float64) {
	l.charge(app, state, day, e)
}

// AddPacket records a packet's byte accounting (without energy).
func (l *Ledger) AddPacket(app uint32, day int, state trace.ProcState, wireBytes int64) {
	_, ds := l.hot(app, day)
	ds.Packets++
	if state.IsForeground() {
		ds.FgBytes += wireBytes
	} else {
		ds.BgBytes += wireBytes
	}
	l.BytesByApp[app] += wireBytes
}

// charge adds e joules to the (app, state, day) triple.
func (l *Ledger) charge(app uint32, state trace.ProcState, day int, e float64) {
	as, ds := l.hot(app, day)
	l.Total += e
	l.ByApp[app] += e
	l.ByState[state] += e
	as[state] += e
	ds.Energy += e
	if state.IsForeground() {
		ds.FgEnergy += e
	} else {
		ds.BgEnergy += e
	}
}

// hot returns the (app, day) attribution targets — the per-app state map
// and per-day stats — through the one-entry memo.
func (l *Ledger) hot(app uint32, day int) (map[trace.ProcState]float64, *DayStats) {
	if l.memoAS != nil && app == l.memoApp && day == l.memoDay {
		return l.memoAS, l.memoDS
	}
	as := l.ByAppState[app]
	if as == nil {
		as = make(map[trace.ProcState]float64)
		l.ByAppState[app] = as
	}
	ds := l.dayStats(app, day)
	l.memoApp, l.memoDay, l.memoAS, l.memoDS = app, day, as, ds
	return as, ds
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

// Options configures Process.
type Options struct {
	// Radio is the power model to replay against. Zero value means LTE.
	Radio radio.Params
	// Network selects which interface's packets to account (the study
	// focuses on cellular).
	Network trace.Network
	// KeepPackets controls whether the per-packet slice is returned;
	// aggregate-only callers can save the memory.
	KeepPackets bool
	// VerifyChecksums forwards to the packet parser.
	VerifyChecksums bool
	// Snap forwards to the packet parser: accept snap-length-truncated
	// captures and account their true wire length.
	Snap bool
}

// DefaultOptions accounts cellular traffic against the LTE model and keeps
// per-packet results.
func DefaultOptions() Options {
	return Options{Radio: radio.LTE(), Network: trace.NetCellular, KeepPackets: true, VerifyChecksums: true, Snap: true}
}

// Result is the outcome of processing one device trace.
type Result struct {
	Device       string
	Ledger       *Ledger
	Packets      []Packet // nil unless Options.KeepPackets
	DecodeErrors int      // packets skipped because they failed to parse
	Span         [2]trace.Timestamp
}

// Process replays all matching packet records of dt through the radio model
// and returns the energy attribution. Records must be in timestamp order
// (DeviceTrace.SortByTime establishes this).
func Process(dt *trace.DeviceTrace, opts Options) (*Result, error) {
	if opts.Radio.Name == "" {
		opts.Radio = radio.LTE()
	}
	res := &Result{Device: dt.Device, Ledger: newLedger()}
	if opts.KeepPackets {
		// One allocation, sized by the records the loop below accepts; a
		// packet that fails to parse leaves spare capacity behind.
		n := 0
		for i := range dt.Records {
			if r := &dt.Records[i]; r.Type == trace.RecPacket && r.Net == opts.Network {
				n++
			}
		}
		res.Packets = make([]Packet, 0, n)
	}
	hosts := hostInterner{}
	parser := netparse.NewParser()
	parser.VerifyChecksums = opts.VerifyChecksums
	parser.Snap = opts.Snap
	acct := radio.NewAccountant(opts.Radio)

	// Previous packet's attribution target, for tail charges.
	var prevApp uint32
	var prevState trace.ProcState
	var prevDay int
	havePrev := false
	first, last := trace.Timestamp(0), trace.Timestamp(0)

	for i := range dt.Records {
		r := &dt.Records[i]
		if r.Type != trace.RecPacket || r.Net != opts.Network {
			continue
		}
		d, err := parser.DecodePacket(r.Payload)
		if err != nil {
			res.DecodeErrors++
			continue
		}
		if !havePrev {
			first = r.TS
		}
		last = r.TS

		dir := radio.Down
		if r.Dir == trace.DirUp {
			dir = radio.Up
		}
		c := acct.OnPacket(r.TS.Seconds(), d.WireLen, dir)
		day := r.TS.Day()

		if c.GapTail > 0 && havePrev {
			res.Ledger.charge(prevApp, prevState, prevDay, c.GapTail)
			if opts.KeepPackets {
				res.Packets[len(res.Packets)-1].Energy += c.GapTail
			}
		} else if c.GapTail > 0 {
			// Defensive: a gap charge with no previous packet cannot occur
			// (the accountant charges no gap on the first packet), but if
			// it did, attribute it to the current packet rather than drop.
			res.Ledger.charge(r.App, r.State, day, c.GapTail)
		}
		own := c.Promotion + c.Transfer
		res.Ledger.charge(r.App, r.State, day, own)
		ds := res.Ledger.dayStats(r.App, day)
		ds.Packets++
		if r.State.IsForeground() {
			ds.FgBytes += int64(d.WireLen)
		} else {
			ds.BgBytes += int64(d.WireLen)
		}
		res.Ledger.BytesByApp[r.App] += int64(d.WireLen)

		if opts.KeepPackets {
			host := ""
			if r.Dir == trace.DirUp && appproto.IsRequest(d.Payload) {
				if h, ok := appproto.ParseHost(d.Payload); ok {
					host = hosts.intern(h)
				}
			}
			var seq uint32
			if d.Transport == netparse.LayerTypeTCP {
				seq = d.TCP.Seq
			}
			res.Packets = append(res.Packets, Packet{
				TS: r.TS, App: r.App, Dir: r.Dir, State: r.State,
				Bytes: d.WireLen, Tuple: d.Tuple.Canonical(), Energy: own,
				Seq: seq, Host: host,
			})
		}

		prevApp, prevState, prevDay = r.App, r.State, day
		havePrev = true
	}

	// Final tail belongs to the last packet.
	if fin := acct.Finish(); fin > 0 && havePrev {
		res.Ledger.charge(prevApp, prevState, prevDay, fin)
		if opts.KeepPackets && len(res.Packets) > 0 {
			res.Packets[len(res.Packets)-1].Energy += fin
		}
	}

	res.Ledger.IdleEnergy = opts.Radio.IdlePower * last.Sub(first)
	res.Span = [2]trace.Timestamp{first, last}
	return res, nil
}

// hostInterner deduplicates host strings across millions of packets.
type hostInterner map[string]string

func (h hostInterner) intern(s string) string {
	if v, ok := h[s]; ok {
		return v
	}
	h[s] = s
	return s
}

// ProcessFleet runs Process over every device in the fleet and returns the
// per-device results in path order.
func ProcessFleet(fleet *trace.Fleet, opts Options) ([]*Result, error) {
	var out []*Result
	err := fleet.EachDevice(func(dt *trace.DeviceTrace) error {
		r, err := Process(dt, opts)
		if err != nil {
			return fmt.Errorf("energy: device %s: %w", dt.Device, err)
		}
		out = append(out, r)
		return nil
	})
	return out, err
}

// MergeLedgers sums per-device ledgers into one fleet-wide ledger. App IDs
// must be comparable across devices (the generator interns app names with
// the same table ordering on every device; callers merging heterogeneous
// traces should remap IDs first).
func MergeLedgers(ls []*Ledger) *Ledger {
	m := newLedger()
	for _, l := range ls {
		m.Merge(l)
	}
	return m
}

// Merge adds the contents of other into l in place. The streaming fleet
// aggregator and the ingest shards use it to fold per-device ledgers into a
// running fleet total without reallocating.
func (l *Ledger) Merge(other *Ledger) {
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
