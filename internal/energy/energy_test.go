package energy

import (
	"math"
	"testing"
	"testing/quick"

	"netenergy/internal/appproto"
	"netenergy/internal/netparse"
	"netenergy/internal/radio"
	"netenergy/internal/rng"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

const sec = trace.Timestamp(1_000_000)

// addPacket appends a real serialised TCP/IPv4 packet record to dt,
// panicking on serialisation failure (inputs in these tests are valid).
func addPacket(dt *trace.DeviceTrace, ts trace.Timestamp, app uint32,
	dir trace.Direction, state trace.ProcState, payloadLen int, port uint16) {
	buf := make([]byte, 40+payloadLen)
	_, err := netparse.BuildTCPv4(buf, [4]byte{10, 0, 0, 1}, [4]byte{93, 184, 216, 34},
		port, 443, 0, netparse.TCPAck, payloadLen)
	if err != nil {
		panic(err)
	}
	dt.Records = append(dt.Records, trace.Record{
		Type: trace.RecPacket, TS: ts, App: app, Dir: dir,
		Net: trace.NetCellular, State: state, Payload: buf,
	})
}

func newTrace() *trace.DeviceTrace {
	return &trace.DeviceTrace{Device: "test", Start: 0, Apps: trace.NewAppTable()}
}

func TestProcessSingleBurst(t *testing.T) {
	dt := newTrace()
	addPacket(dt, 10*sec, 1, trace.DirUp, trace.StateForeground, 500, 1000)
	res, err := Process(dt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := radio.LTE()
	want := radio.BurstEnergy(p, 540, radio.Up) // 40 B headers + 500 B payload
	if math.Abs(res.Ledger.Total-want) > 1e-9 {
		t.Errorf("total = %v, want %v", res.Ledger.Total, want)
	}
	if math.Abs(res.Ledger.ByApp[1]-want) > 1e-9 {
		t.Errorf("app energy = %v", res.Ledger.ByApp[1])
	}
	if res.Ledger.ByState[trace.StateForeground] != res.Ledger.Total {
		t.Error("all energy should be foreground")
	}
	if len(res.Packets) != 1 || math.Abs(res.Packets[0].Energy-want) > 1e-9 {
		t.Errorf("packet energy = %+v", res.Packets)
	}
	if res.Ledger.BytesByApp[1] != 540 {
		t.Errorf("bytes = %d", res.Ledger.BytesByApp[1])
	}
}

func TestTailAttributedToLastPacket(t *testing.T) {
	// App 1 sends, then app 2 sends 2 s later (within app 1's tail), then
	// nothing. The 2 s of gap tail belongs to app 1; the final full tail
	// belongs to app 2.
	dt := newTrace()
	addPacket(dt, 0, 1, trace.DirUp, trace.StateService, 100, 1000)
	addPacket(dt, 2*sec, 2, trace.DirUp, trace.StateService, 100, 2000)
	res, err := Process(dt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := radio.LTE()
	// App 1: promotion + transfer + ~2s of tail.
	if res.Ledger.ByApp[1] < p.PromotionEnergy()+1.9 || res.Ledger.ByApp[1] > p.PromotionEnergy()+2.8 {
		t.Errorf("app1 energy = %v", res.Ledger.ByApp[1])
	}
	// App 2: transfer + full tail, no promotion.
	if res.Ledger.ByApp[2] < p.FullTailEnergy() || res.Ledger.ByApp[2] > p.FullTailEnergy()+0.5 {
		t.Errorf("app2 energy = %v", res.Ledger.ByApp[2])
	}
	sum := res.Ledger.ByApp[1] + res.Ledger.ByApp[2]
	if math.Abs(sum-res.Ledger.Total) > 1e-9 {
		t.Errorf("conservation: %v vs %v", sum, res.Ledger.Total)
	}
}

func TestNetworkFilter(t *testing.T) {
	dt := newTrace()
	addPacket(dt, 0, 1, trace.DirUp, trace.StateService, 100, 1000)
	// Mark the second packet as WiFi: it must be ignored under cellular accounting.
	addPacket(dt, 5*sec, 2, trace.DirUp, trace.StateService, 100, 2000)
	dt.Records[1].Net = trace.NetWiFi
	res, err := Process(dt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Ledger.ByApp[2] != 0 {
		t.Errorf("wifi packet charged on cellular: %v", res.Ledger.ByApp[2])
	}
	if len(res.Packets) != 1 {
		t.Errorf("packets kept = %d", len(res.Packets))
	}
}

func TestDecodeErrorsSkipped(t *testing.T) {
	dt := newTrace()
	addPacket(dt, 0, 1, trace.DirUp, trace.StateService, 100, 1000)
	dt.Records = append(dt.Records, trace.Record{
		Type: trace.RecPacket, TS: 2 * sec, App: 2, Dir: trace.DirUp,
		Net: trace.NetCellular, State: trace.StateService,
		Payload: []byte{0xff, 0x00, 0x01},
	})
	res, err := Process(dt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.DecodeErrors != 1 {
		t.Errorf("decode errors = %d", res.DecodeErrors)
	}
	if res.Ledger.ByApp[2] != 0 {
		t.Error("undecodable packet was charged")
	}
}

func TestBackgroundFraction(t *testing.T) {
	dt := newTrace()
	addPacket(dt, 0, 1, trace.DirUp, trace.StateForeground, 100, 1000)
	addPacket(dt, 100*sec, 1, trace.DirUp, trace.StateService, 100, 1000)
	addPacket(dt, 200*sec, 1, trace.DirUp, trace.StateBackground, 100, 1000)
	res, _ := Process(dt, DefaultOptions())
	f := res.Ledger.BackgroundFraction()
	if f < 0.6 || f > 0.7 {
		t.Errorf("bg fraction = %v, want ~2/3", f)
	}
	if res.Ledger.AppBackgroundFraction(1) != f {
		t.Error("single-app trace: app fraction should equal device fraction")
	}
	if got := res.Ledger.StateFraction(trace.StateService); math.Abs(got-1.0/3) > 0.02 {
		t.Errorf("service fraction = %v", got)
	}
	if res.Ledger.AppBackgroundFraction(99) != 0 {
		t.Error("unknown app fraction should be 0")
	}
}

func TestEmptyTrace(t *testing.T) {
	res, err := Process(newTrace(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Ledger.Total != 0 || res.Ledger.BackgroundFraction() != 0 {
		t.Error("empty trace should have zero energy")
	}
}

func TestDayLedger(t *testing.T) {
	dt := newTrace()
	day := trace.Timestamp(86400) * sec
	addPacket(dt, 10*sec, 1, trace.DirUp, trace.StateForeground, 100, 1000)
	addPacket(dt, day+10*sec, 1, trace.DirUp, trace.StateService, 200, 1001)
	res, _ := Process(dt, DefaultOptions())
	d0 := res.Ledger.ByAppDay[1][0]
	d1 := res.Ledger.ByAppDay[1][1]
	if d0 == nil || d1 == nil {
		t.Fatalf("day ledgers missing: %v", res.Ledger.ByAppDay)
	}
	if d0.FgBytes != 140 || d0.BgBytes != 0 {
		t.Errorf("day0 = %+v", d0)
	}
	if d1.BgBytes != 240 || d1.FgBytes != 0 {
		t.Errorf("day1 = %+v", d1)
	}
	if d0.Packets != 1 || d1.Packets != 1 {
		t.Errorf("packets per day: %d/%d", d0.Packets, d1.Packets)
	}
}

func TestConservationProperty(t *testing.T) {
	// Σ per-app == Σ per-state == Σ packet energies == Total, under random
	// multi-app workloads.
	src := rng.New(321)
	f := func(n uint8) bool {
		dt := newTrace()
		count := int(n)%120 + 1
		ts := trace.Timestamp(0)
		for i := 0; i < count; i++ {
			ts += trace.Timestamp(src.Exp(15) * 1e6)
			addPacket(dt, ts, uint32(src.Intn(6)), trace.Direction(src.Intn(2)),
				trace.ProcState(1+src.Intn(5)), src.Intn(1200), uint16(1000+src.Intn(50)))
		}
		res, err := Process(dt, DefaultOptions())
		if err != nil {
			return false
		}
		var byApp, byState, byPkt, byDay float64
		for _, e := range res.Ledger.ByApp {
			byApp += e
		}
		for _, e := range res.Ledger.ByState {
			byState += e
		}
		for _, p := range res.Packets {
			byPkt += p.Energy
		}
		for _, days := range res.Ledger.ByAppDay {
			for _, ds := range days {
				byDay += ds.Energy
			}
		}
		tot := res.Ledger.Total
		ok := func(v float64) bool { return math.Abs(v-tot) < 1e-6*(1+tot) }
		return ok(byApp) && ok(byState) && ok(byPkt) && ok(byDay)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMergeLedgers(t *testing.T) {
	mk := func(seed uint64) *Ledger {
		src := rng.New(seed)
		dt := newTrace()
		ts := trace.Timestamp(0)
		for i := 0; i < 30; i++ {
			ts += trace.Timestamp(src.Exp(20) * 1e6)
			addPacket(dt, ts, uint32(src.Intn(3)), trace.DirUp,
				trace.ProcState(1+src.Intn(5)), src.Intn(800), uint16(1000+i))
		}
		res, err := Process(dt, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res.Ledger
	}
	a, b := mk(1), mk(2)
	m := MergeLedgers([]*Ledger{a, b})
	if math.Abs(m.Total-(a.Total+b.Total)) > 1e-9 {
		t.Errorf("merged total = %v, want %v", m.Total, a.Total+b.Total)
	}
	for app := range m.ByApp {
		want := a.ByApp[app] + b.ByApp[app]
		if math.Abs(m.ByApp[app]-want) > 1e-9 {
			t.Errorf("app %d merged = %v, want %v", app, m.ByApp[app], want)
		}
	}
	var stateSum float64
	for _, e := range m.ByState {
		stateSum += e
	}
	if math.Abs(stateSum-m.Total) > 1e-6 {
		t.Errorf("merged state sum = %v vs total %v", stateSum, m.Total)
	}
}

func TestKeepPacketsFalse(t *testing.T) {
	dt := newTrace()
	addPacket(dt, 0, 1, trace.DirUp, trace.StateService, 100, 1000)
	opts := DefaultOptions()
	opts.KeepPackets = false
	res, err := Process(dt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != nil {
		t.Error("packets kept despite KeepPackets=false")
	}
	if res.Ledger.Total == 0 {
		t.Error("ledger empty")
	}
}

// TestPacketsSizedOnce: the kept packets live in one allocation sized by the
// records of the right type on the right interface — a packet that fails to
// parse leaves spare capacity, and nothing regrows.
func TestPacketsSizedOnce(t *testing.T) {
	dt := newTrace()
	for i := 0; i < 1000; i++ {
		addPacket(dt, trace.Timestamp(i)*sec, 1, trace.DirUp, trace.StateService, 100, 1000)
		dt.Records = append(dt.Records, trace.Record{Type: trace.RecScreen, TS: trace.Timestamp(i) * sec})
		if i%10 == 0 {
			dt.Records[len(dt.Records)-2].Net = trace.NetWiFi
		}
		if i%100 == 1 {
			dt.Records[len(dt.Records)-2].Payload = []byte{0xff, 0x00, 0x01}
		}
	}
	res, err := Process(dt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.DecodeErrors != 10 || len(res.Packets) != 890 || cap(res.Packets) != 900 {
		t.Errorf("decode errors %d, len(Packets) %d, cap %d; want 10, 890, 900",
			res.DecodeErrors, len(res.Packets), cap(res.Packets))
	}
}

func TestIdleEnergySeparate(t *testing.T) {
	dt := newTrace()
	addPacket(dt, 0, 1, trace.DirUp, trace.StateService, 100, 1000)
	addPacket(dt, 1000*sec, 1, trace.DirUp, trace.StateService, 100, 1000)
	res, _ := Process(dt, DefaultOptions())
	wantIdle := radio.LTE().IdlePower * 1000
	if math.Abs(res.Ledger.IdleEnergy-wantIdle) > 1e-9 {
		t.Errorf("idle energy = %v, want %v", res.Ledger.IdleEnergy, wantIdle)
	}
	// Idle energy must not be inside Total.
	var byApp float64
	for _, e := range res.Ledger.ByApp {
		byApp += e
	}
	if math.Abs(byApp-res.Ledger.Total) > 1e-9 {
		t.Error("idle energy leaked into attribution")
	}
}

func TestHostExtraction(t *testing.T) {
	dt := newTrace()
	req := []byte("GET /poll HTTP/1.1\r\nHost: api.poller.example\r\n")
	buf := make([]byte, 4096)
	stored, _, err := netparse.BuildTCPv4SnappedPayload(buf, [4]byte{10, 0, 0, 1}, [4]byte{23, 0, 0, 1},
		41000, 443, 0, netparse.TCPPsh|netparse.TCPAck, req, 5000, 96)
	if err != nil {
		t.Fatal(err)
	}
	dt.Records = append(dt.Records, trace.Record{
		Type: trace.RecPacket, TS: 10 * sec, App: 1, Dir: trace.DirUp,
		Net: trace.NetCellular, State: trace.StateService, Payload: buf[:stored],
	})
	addPacket(dt, 11*sec, 1, trace.DirDown, trace.StateService, 100, 41000)
	res, err := Process(dt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packets) != 2 {
		t.Fatalf("packets = %d", len(res.Packets))
	}
	if h := res.Hosts[res.Packets[0].Host]; h != "api.poller.example" {
		t.Errorf("host = %q", h)
	}
	if res.Packets[1].Host != 0 {
		t.Errorf("response host = %d (%q), want 0", res.Packets[1].Host, res.Hosts[res.Packets[1].Host])
	}
	if res.Packets[0].Seq != 0 || res.Packets[1].Bytes == 0 {
		t.Errorf("seq/bytes: %+v", res.Packets)
	}
}

// TestHostInterning: over the golden fleet, every request packet's host id
// names the host its payload parses to, the same host always gets the same
// id, ids are dense from 1 in first-seen order, and Hosts[0] is "".
func TestHostInterning(t *testing.T) {
	opts := DefaultOptions()
	for _, dt := range synthgen.GenerateInMemory(synthgen.Small(5, 10)) {
		res, err := Process(dt, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Hosts) < 2 || res.Hosts[0] != "" {
			t.Fatalf("%s: Hosts = %q, want \"\" first and at least one host", dt.Device, res.Hosts)
		}
		var parser netparse.Parser
		ids := map[string]uint32{}
		i := 0
		for j := range dt.Records {
			r := &dt.Records[j]
			if r.Type != trace.RecPacket || r.Net != opts.Network {
				continue
			}
			d, err := parser.DecodePacket(r.Payload)
			if err != nil {
				continue
			}
			p := &res.Packets[i]
			i++
			var host string
			ok := false
			if r.Dir == trace.DirUp && appproto.IsRequest(d.Payload) {
				var h []byte
				h, ok = appproto.ParseHost(d.Payload)
				host = string(h)
			}
			if !ok {
				if p.Host != 0 {
					t.Fatalf("%s packet %d: host id %d for a packet with no host", dt.Device, i-1, p.Host)
				}
				continue
			}
			id, seen := ids[host]
			switch {
			case seen && p.Host != id:
				t.Fatalf("%s: %q has ids %d and %d", dt.Device, host, id, p.Host)
			case !seen && p.Host != uint32(len(ids)+1):
				t.Fatalf("%s packet %d: new host %q got id %d, want %d", dt.Device, i-1, host, p.Host, len(ids)+1)
			}
			ids[host] = p.Host
			if res.Hosts[p.Host] != host {
				t.Fatalf("%s: Hosts[%d] = %q, want %q", dt.Device, p.Host, res.Hosts[p.Host], host)
			}
		}
		if len(res.Hosts) != len(ids)+1 {
			t.Fatalf("%s: %d hosts for %d distinct", dt.Device, len(res.Hosts)-1, len(ids))
		}
	}
}

func TestReplayPacketReturns(t *testing.T) {
	dt := newTrace()
	addPacket(dt, 0, 1, trace.DirUp, trace.StateService, 100, 1000)
	addPacket(dt, 2*sec, 2, trace.DirDown, trace.StateForeground, 100, 2000)
	p := radio.LTE()
	k := NewReplay(DefaultOptions(), NewLedger())
	feed := func(r *trace.Record) (own, gapTail float64) {
		d, own, gapTail := k.Packet(r.TS, r.App, r.Dir, r.Net, r.State, r.Payload)
		if d == nil || d.WireLen != 140 {
			t.Fatalf("decoded %+v", d)
		}
		return own, gapTail
	}
	if own, gap := feed(&dt.Records[0]); gap != 0 || own != p.PromotionEnergy()+p.TransferEnergy(140, radio.Up) {
		t.Errorf("first packet: own %v, gap tail %v", own, gap)
	}
	own, gap := feed(&dt.Records[1])
	if own != p.TransferEnergy(140, radio.Down) {
		t.Errorf("second packet: own %v", own)
	}
	k.Ledger.Sync() // the maps are read mid-stream: sync them first
	if gap < 1.9 || gap > 2.8 || k.Ledger.ByApp[1] != p.PromotionEnergy()+p.TransferEnergy(140, radio.Up)+gap {
		t.Errorf("gap tail %v, app 1 charged %v", gap, k.Ledger.ByApp[1])
	}
	// Settling a copy charges it the final tail and leaves the kernel alone.
	snap := MergeLedgers([]*Ledger{k.Ledger})
	before := k.Ledger.Total
	if tail := k.Settle(snap); tail != p.FullTailEnergy() || snap.Total != before+tail || k.Ledger.Total != before {
		t.Errorf("settle: tail %v, copy %v, live %v (was %v)", tail, snap.Total, k.Ledger.Total, before)
	}
	if tail := k.Finish(); k.Ledger.Total != snap.Total || k.Ledger.ByApp[2] != own+tail {
		t.Errorf("finish: live %v vs settled copy %v", k.Ledger.Total, snap.Total)
	}
}

// TestReplayPacketAllocFree is the dynamic half of Packet's
// //repolint:noalloc: once the ledger holds the (app, state, day) triples,
// a packet costs no allocation whether it is accounted, on the other
// network, or undecodable.
func TestReplayPacketAllocFree(t *testing.T) {
	dt := newTrace()
	addPacket(dt, 0, 1, trace.DirUp, trace.StateService, 100, 1000)
	valid := dt.Records[0]
	k := NewReplay(DefaultOptions(), NewLedger())
	ts := trace.Timestamp(0)
	for name, rec := range map[string]trace.Record{
		"valid":         valid,
		"wrong network": {Net: trace.NetWiFi, Payload: valid.Payload},
		"undecodable":   {Net: trace.NetCellular, Payload: []byte{0x45, 0, 0}},
	} {
		feed := func() {
			ts += sec
			k.Packet(ts, 1, trace.DirUp, rec.Net, trace.StateService, rec.Payload)
		}
		feed() // first sight of the triple creates its map entries
		if n := testing.AllocsPerRun(100, feed); n != 0 {
			t.Errorf("%s packet: %v allocs", name, n)
		}
	}
	if k.DecodeErrors != 102 {
		t.Errorf("decode errors = %d", k.DecodeErrors)
	}
}
