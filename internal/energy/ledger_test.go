package energy

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"netenergy/internal/netparse"
	"netenergy/internal/radio"
	"netenergy/internal/rng"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

// mapLedger is the reference the dense accumulators are held to: the ledger
// written the plain way, one map update per key per charge, fed only with
// what Replay.Packet returns and Settle's tail. It shares the Ledger type
// for its public fields but never goes live.
type mapLedger struct {
	l         *Ledger
	prevApp   uint32
	prevState trace.ProcState
	prevDay   int
	havePrev  bool
	span      [2]trace.Timestamp
	packets   int
}

func newMapLedger() *mapLedger { return &mapLedger{l: NewLedger()} }

func (m *mapLedger) charge(app uint32, state trace.ProcState, day int, e float64) {
	l := m.l
	l.Total += e
	l.ByApp[app] += e
	l.ByState[state] += e
	l.appStates(app)[state] += e
	ds := l.dayStats(app, day)
	ds.Energy += e
	if state.IsForeground() {
		ds.FgEnergy += e
	} else {
		ds.BgEnergy += e
	}
}

// packet books one accounted packet the way the kernel's rule says: the gap
// tail to the previous triple, the packet's own energy to its triple, then
// its bytes.
func (m *mapLedger) packet(r *trace.Record, d *netparse.Decoded, own, gapTail float64) {
	day := r.TS.Day()
	if !m.havePrev {
		m.prevApp, m.prevState, m.prevDay, m.havePrev = r.App, r.State, day, true
		m.span[0] = r.TS
	}
	m.span[1] = r.TS
	if gapTail > 0 {
		m.charge(m.prevApp, m.prevState, m.prevDay, gapTail)
	}
	m.charge(r.App, r.State, day, own)
	ds := m.l.dayStats(r.App, day)
	ds.Packets++
	if r.State.IsForeground() {
		ds.FgBytes += int64(d.WireLen)
	} else {
		ds.BgBytes += int64(d.WireLen)
	}
	m.l.BytesByApp[r.App] += int64(d.WireLen)
	m.prevApp, m.prevState, m.prevDay = r.App, r.State, day
	m.packets++
}

// settled returns a copy of the reference charged with Settle's tail and
// idle baseline, leaving the reference itself to go on.
func (m *mapLedger) settled(tail float64) *Ledger {
	c := &mapLedger{l: MergeLedgers([]*Ledger{m.l}), prevApp: m.prevApp, prevState: m.prevState, prevDay: m.prevDay}
	if tail > 0 {
		c.charge(m.prevApp, m.prevState, m.prevDay, tail)
	}
	c.l.IdleEnergy = radio.LTE().IdlePower * m.span[1].Sub(m.span[0])
	return c.l
}

// ledgerDiff compares got and want through their public view — got synced
// first, the contract's read point — every key present on both sides and
// every value bit for bit. It names the first difference, or returns "".
func ledgerDiff(got, want *Ledger) string {
	got.Sync()
	bits := func(name string, g, w float64) string {
		if math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Sprintf("%s = %v, want %v", name, g, w)
		}
		return ""
	}
	if d := bits("Total", got.Total, want.Total); d != "" {
		return d
	}
	if d := bits("IdleEnergy", got.IdleEnergy, want.IdleEnergy); d != "" {
		return d
	}
	if len(got.ByApp) != len(want.ByApp) || len(got.ByState) != len(want.ByState) ||
		len(got.ByAppState) != len(want.ByAppState) || len(got.ByAppDay) != len(want.ByAppDay) ||
		len(got.BytesByApp) != len(want.BytesByApp) {
		return fmt.Sprintf("key counts ByApp/ByState/ByAppState/ByAppDay/BytesByApp %d/%d/%d/%d/%d, want %d/%d/%d/%d/%d",
			len(got.ByApp), len(got.ByState), len(got.ByAppState), len(got.ByAppDay), len(got.BytesByApp),
			len(want.ByApp), len(want.ByState), len(want.ByAppState), len(want.ByAppDay), len(want.BytesByApp))
	}
	for s, w := range want.ByState {
		if g, ok := got.ByState[s]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Sprintf("ByState[%v] present %v: %s", s, ok, bits("value", g, w))
		}
	}
	for app, w := range want.ByApp {
		if g, ok := got.ByApp[app]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Sprintf("ByApp[%d] present %v: %s", app, ok, bits("value", g, w))
		}
		if g, w := got.BytesByApp[app], want.BytesByApp[app]; g != w {
			return fmt.Sprintf("BytesByApp[%d] = %d, want %d", app, g, w)
		}
		gs, ws := got.ByAppState[app], want.ByAppState[app]
		if len(gs) != len(ws) {
			return fmt.Sprintf("ByAppState[%d] has %d states, want %d", app, len(gs), len(ws))
		}
		for s, w := range ws {
			if g, ok := gs[s]; !ok || math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Sprintf("ByAppState[%d][%v] present %v: %s", app, s, ok, bits("value", g, w))
			}
		}
		gd, wd := got.ByAppDay[app], want.ByAppDay[app]
		if len(gd) != len(wd) {
			return fmt.Sprintf("ByAppDay[%d] has %d days, want %d", app, len(gd), len(wd))
		}
		for day, w := range wd {
			g := gd[day]
			if g == nil || math.Float64bits(g.Energy) != math.Float64bits(w.Energy) ||
				math.Float64bits(g.FgEnergy) != math.Float64bits(w.FgEnergy) ||
				math.Float64bits(g.BgEnergy) != math.Float64bits(w.BgEnergy) ||
				g.FgBytes != w.FgBytes || g.BgBytes != w.BgBytes || g.Packets != w.Packets {
				return fmt.Sprintf("ByAppDay[%d][%d] = %+v, want %+v", app, day, g, *w)
			}
		}
	}
	return ""
}

// ledgerInputs are the record streams the reference runs over: seeded
// synthetic devices and the equivalence harness's randomized traces (junk
// payloads, both networks, day boundaries, six apps in every state).
func ledgerInputs() map[string][]trace.Record {
	in := map[string][]trace.Record{}
	for _, dt := range synthgen.GenerateInMemory(synthgen.Small(2, 2)) {
		in["synthgen "+dt.Device] = dt.Records
	}
	for seed := int64(0); seed < 120; seed += 8 {
		in[fmt.Sprintf("equiv seed %d", seed)] = synthgen.EquivRecords(seed)
	}
	// States no collector writes, as a malformed record may carry: the
	// ones past the dense arrays are charged to the maps directly.
	odd := synthgen.EquivRecords(5)
	for i := range odd {
		if i%3 == 0 {
			odd[i].State = trace.ProcState([]int{0, 6, 7, 8, 200}[i%5])
		}
	}
	in["equiv seed 5, odd states"] = odd
	return in
}

// TestLedgerMatchesMapReference holds the dense accumulators to a plain
// map ledger rebuilt from the kernel's own returns, bit for bit on every
// key, after every packet: on a fresh ledger, on one restored from the
// maps at four cuts (fed up to the cut with no sync in between), and across
// a mid-stream snapshot, which must match the reference settled there and
// leave the live ledger matching it after.
func TestLedgerMatchesMapReference(t *testing.T) {
	opts := DefaultOptions()
	for name, recs := range ledgerInputs() {
		feed := func(k *Replay, ref *mapLedger, from, to int, check bool) {
			t.Helper()
			for i := from; i < to; i++ {
				r := &recs[i]
				if r.Type != trace.RecPacket {
					continue
				}
				d, own, gapTail := k.Packet(r.TS, r.App, r.Dir, r.Net, r.State, r.Payload)
				if d == nil {
					continue
				}
				ref.packet(r, d, own, gapTail)
				if !check {
					continue
				}
				if diff := ledgerDiff(k.Ledger, ref.l); diff != "" {
					t.Fatalf("%s: after record %d: %s", name, i, diff)
				}
			}
		}
		finish := func(k *Replay, ref *mapLedger, label string) {
			t.Helper()
			want := ref.settled(k.Finish())
			if diff := ledgerDiff(k.Ledger, want); diff != "" {
				t.Fatalf("%s, %s: after Finish: %s", name, label, diff)
			}
		}

		// Fresh.
		k, ref := NewReplay(opts, NewLedger()), newMapLedger()
		feed(k, ref, 0, len(recs), true)
		if ref.packets == 0 {
			t.Fatalf("%s: no packet was accounted: the comparison is vacuous", name)
		}
		finish(k, ref, "fresh")

		// Restored from the maps at four cuts.
		for _, cut := range []int{1, len(recs) / 4, len(recs) / 2, len(recs) - 1} {
			a, ref := NewReplay(opts, NewLedger()), newMapLedger()
			feed(a, ref, 0, cut, false)
			if diff := ledgerDiff(a.Ledger, ref.l); diff != "" {
				t.Fatalf("%s: at cut %d: %s", name, cut, diff)
			}
			b := NewReplay(opts, MergeLedgers([]*Ledger{a.Ledger}))
			b.DecodeErrors, b.Span = a.DecodeErrors, a.Span
			b.RestoreState(a.SaveState())
			feed(b, ref, cut, len(recs), true)
			finish(b, ref, fmt.Sprintf("restored at %d", cut))
		}

		// A mid-stream snapshot: a synced copy settled as if the stream
		// ended, while the live ledger goes on.
		k, ref = NewReplay(opts, NewLedger()), newMapLedger()
		feed(k, ref, 0, len(recs)/2, false)
		snap := MergeLedgers([]*Ledger{k.Ledger})
		if diff := ledgerDiff(snap, ref.settled(k.Settle(snap))); diff != "" {
			t.Fatalf("%s: snapshot: %s", name, diff)
		}
		feed(k, ref, len(recs)/2, len(recs), true)
		finish(k, ref, "after a snapshot")
	}
}

// TestMergeRefusesLiveLedger: a Merge into a ledger a Replay is charging
// would be overwritten by its dense accumulators at the next Sync, so it is
// refused; once Settle has run the ledger is plain maps and accepts one.
func TestMergeRefusesLiveLedger(t *testing.T) {
	dt := newTrace()
	addPacket(dt, 0, 1, trace.DirUp, trace.StateService, 100, 1000)
	k := NewReplay(DefaultOptions(), NewLedger())
	r := &dt.Records[0]
	k.Packet(r.TS, r.App, r.Dir, r.Net, r.State, r.Payload)
	other := MergeLedgers([]*Ledger{k.Ledger})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Merge into a live ledger was accepted")
			}
		}()
		k.Ledger.Merge(other)
	}()
	k.Finish()
	before := k.Ledger.Total
	k.Ledger.Merge(other)
	if k.Ledger.Total != before+other.Total {
		t.Errorf("merge after Finish: total %v, want %v", k.Ledger.Total, before+other.Total)
	}
}

// TestSyncedLedgerReadsConcurrently: a ledger synced mid-stream is read by
// several goroutines at once — each one's Merge syncs its source again —
// and the second sync writes nothing, so -race sees only reads.
func TestSyncedLedgerReadsConcurrently(t *testing.T) {
	recs := synthgen.EquivRecords(3)
	k := NewReplay(DefaultOptions(), NewLedger())
	for i := range recs {
		if r := &recs[i]; r.Type == trace.RecPacket {
			k.Packet(r.TS, r.App, r.Dir, r.Net, r.State, r.Payload)
		}
	}
	k.Ledger.Sync()
	want := MergeLedgers([]*Ledger{k.Ledger})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k.Ledger.Sync()
			if diff := ledgerDiff(MergeLedgers([]*Ledger{k.Ledger}), want); diff != "" {
				t.Error(diff)
			}
			_ = k.Ledger.BackgroundFraction()
		}()
	}
	wg.Wait()
}

// TestPacketPointerFree: Packet is 48 bytes on 64-bit platforms and no field
// holds a string, slice, map, pointer or anything else the garbage collector
// scans, so a device's retained packet slice costs a collection nothing.
func TestPacketPointerFree(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(Packet{}) != 48 {
		t.Errorf("Packet is %d bytes, want 48", unsafe.Sizeof(Packet{}))
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		default:
			t.Errorf("%s is a %s: Packet must hold no pointer", path, typ.Kind())
		}
	}
	walk("Packet", reflect.TypeOf(Packet{}))
}

// TestConnIDs: over the golden fleet and a trace of mixed tuples, every kept
// packet's connection id names the canonical form of the tuple its payload
// decodes to, ids are dense and handed out in first-seen order, and no tuple
// has two ids.
func TestConnIDs(t *testing.T) {
	opts := DefaultOptions()
	for _, dt := range append(synthgen.GenerateInMemory(synthgen.Small(5, 10)), mixedTupleTrace(t)) {
		res, err := Process(dt, opts)
		if err != nil {
			t.Fatal(err)
		}
		var parser netparse.Parser
		ids := map[netparse.FiveTuple]uint32{}
		next, i := uint32(0), 0
		for j := range dt.Records {
			r := &dt.Records[j]
			if r.Type != trace.RecPacket || r.Net != opts.Network {
				continue
			}
			d, err := parser.DecodePacket(r.Payload)
			if err != nil {
				continue
			}
			p, canon := &res.Packets[i], d.Tuple.Canonical()
			i++
			if res.Conns[p.Conn] != canon {
				t.Fatalf("%s packet %d: Conns[%d] = %v, decoded %v", dt.Device, i-1, p.Conn, res.Conns[p.Conn], canon)
			}
			if id, seen := ids[canon]; seen && id != p.Conn {
				t.Fatalf("%s: %v has ids %d and %d", dt.Device, canon, id, p.Conn)
			}
			switch {
			case p.Conn == next:
				ids[canon] = next
				next++
			case p.Conn > next:
				t.Fatalf("%s packet %d: id %d handed out before %d", dt.Device, i-1, p.Conn, next)
			}
		}
		if i != len(res.Packets) || int(next) != len(res.Conns) || len(res.Conns) < 2 {
			t.Fatalf("%s: matched %d of %d packets, %d ids for %d conns", dt.Device, i, len(res.Packets), next, len(res.Conns))
		}
	}
}

// mixedTupleTrace is a device whose packets draw from a small pool of
// tuples, so that the packed IPv4 keys meet their edge cases: IPv4 and IPv6,
// TCP and UDP over the same addresses and ports, sides equal in address but
// not port and equal in both, the lowest and highest addresses and ports,
// and each tuple sent either way round under either direction flag.
func mixedTupleTrace(t *testing.T) *trace.DeviceTrace {
	t.Helper()
	v4 := [][4]byte{{0, 0, 0, 0}, {1, 2, 3, 4}, {1, 2, 3, 5}, {10, 0, 0, 1}, {255, 255, 255, 255}}
	v6 := [][16]byte{{0xfe, 0x80, 15: 1}, {0xfe, 0x80, 15: 2}, {0x20, 0x01, 0x0d, 0xb8, 15: 1}}
	ports := []uint16{0, 1, 443, 40000, 65535}
	r := rng.New(34)
	dt := newTrace()
	for i := 0; i < 3000; i++ {
		proto := []uint8{netparse.IPProtoTCP, netparse.IPProtoUDP}[r.Intn(2)]
		sp, dp := ports[r.Intn(len(ports))], ports[r.Intn(len(ports))]
		tcp := &netparse.TCP{SrcPort: sp, DstPort: dp, Flags: netparse.TCPAck}
		udp := &netparse.UDP{SrcPort: sp, DstPort: dp}
		seg, pkt := make([]byte, 64), make([]byte, 128)
		var n, m int
		var err error
		if r.Intn(4) == 0 {
			ip := &netparse.IPv6{NextHeader: proto, HopLimit: 64, SrcIP: v6[r.Intn(len(v6))], DstIP: v6[r.Intn(len(v6))]}
			if proto == netparse.IPProtoTCP {
				n, err = tcp.SerializeTo(seg, []byte("x"), ip)
			} else {
				n, err = udp.SerializeTo(seg, []byte("x"), ip)
			}
			if err == nil {
				m, err = ip.SerializeTo(pkt, seg[:n])
			}
		} else {
			ip := &netparse.IPv4{Protocol: proto, TTL: 64, SrcIP: v4[r.Intn(len(v4))], DstIP: v4[r.Intn(len(v4))]}
			if proto == netparse.IPProtoTCP {
				n, err = tcp.SerializeTo(seg, []byte("x"), ip)
			} else {
				n, err = udp.SerializeTo(seg, []byte("x"), ip)
			}
			if err == nil {
				m, err = ip.SerializeTo(pkt, seg[:n])
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		dt.Records = append(dt.Records, trace.Record{
			Type: trace.RecPacket, TS: trace.Timestamp(i) * sec / 10, App: 1, Dir: trace.Direction(r.Intn(2)),
			Net: trace.NetCellular, State: trace.StateService, Payload: pkt[:m],
		})
	}
	return dt
}
