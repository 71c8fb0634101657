package flows

import (
	"testing"
	"testing/quick"

	"netenergy/internal/netparse"
	"netenergy/internal/rng"
	"netenergy/internal/trace"
)

const sec = trace.Timestamp(1_000_000)

func tuple(port uint16) netparse.FiveTuple {
	a := netparse.NewEndpoint(netparse.EndpointIPv4, []byte{10, 0, 0, 1})
	b := netparse.NewEndpoint(netparse.EndpointIPv4, []byte{93, 184, 216, 34})
	return netparse.FiveTuple{AddrA: a, AddrB: b, PortA: port, PortB: 443, Proto: netparse.IPProtoTCP}
}

// conns is the connection table the tests' packets index: connection i is
// the canonical tuple from local port i.
var conns = func() []netparse.FiveTuple {
	out := make([]netparse.FiveTuple, 8)
	for i := range out {
		out[i] = tuple(uint16(i)).Canonical()
	}
	return out
}()

func TestAssemblerSingleFlow(t *testing.T) {
	a := NewAssembler(conns)
	a.Add(PacketInfo{TS: 0, App: 1, Conn: 1, Dir: trace.DirUp, Bytes: 100, State: trace.StateForeground, Energy: 2})
	a.Add(PacketInfo{TS: 5 * sec, App: 1, Conn: 1, Dir: trace.DirDown, Bytes: 1400, State: trace.StateBackground, Energy: 3})
	fs := a.Flows()
	if len(fs) != 1 {
		t.Fatalf("flows = %d", len(fs))
	}
	f := fs[0]
	if f.Packets != 2 || f.BytesUp != 100 || f.BytesDown != 1400 {
		t.Errorf("flow stats: %+v", f)
	}
	if f.Energy != 5 {
		t.Errorf("energy = %v", f.Energy)
	}
	if f.FgBytes != 100 || f.BgBytes != 1400 {
		t.Errorf("fg/bg bytes = %d/%d", f.FgBytes, f.BgBytes)
	}
	if f.StartState != trace.StateForeground {
		t.Errorf("start state = %v, want foreground", f.StartState)
	}
	if f.Duration() != 5 {
		t.Errorf("duration = %v", f.Duration())
	}
	if f.Bytes() != 1500 {
		t.Errorf("bytes = %d", f.Bytes())
	}
}

// TestAssemblerBidirectionalMerges: both directions of a connection share
// its id (energy.Process gives them one), so they form one flow, named by
// the canonical tuple either direction reduces to.
func TestAssemblerBidirectionalMerges(t *testing.T) {
	fwd := tuple(2000)
	rev := netparse.FiveTuple{AddrA: fwd.AddrB, AddrB: fwd.AddrA, PortA: fwd.PortB, PortB: fwd.PortA, Proto: fwd.Proto}
	a := NewAssembler([]netparse.FiveTuple{rev.Canonical()})
	a.Add(PacketInfo{TS: 0, App: 1, Conn: 0, Dir: trace.DirUp, Bytes: 10})
	a.Add(PacketInfo{TS: sec, App: 1, Conn: 0, Dir: trace.DirDown, Bytes: 20})
	fs := a.Flows()
	if len(fs) != 1 {
		t.Fatalf("both directions should form one flow, got %d", len(fs))
	}
	if fs[0].Tuple != fwd.Canonical() || fs[0].Bytes() != 30 {
		t.Errorf("flow %v moved %d bytes, want %v and 30", fs[0].Tuple, fs[0].Bytes(), fwd.Canonical())
	}
}

func TestAssemblerTimeoutSplits(t *testing.T) {
	a := NewAssembler(conns)
	a.Add(PacketInfo{TS: 0, App: 1, Conn: 3, Bytes: 1})
	a.Add(PacketInfo{TS: 30 * sec, App: 1, Conn: 3, Bytes: 1})
	a.Add(PacketInfo{TS: 2000 * sec, App: 1, Conn: 3, Bytes: 1}) // 1970 s gap > 1800
	fs := a.Flows()
	if len(fs) != 2 {
		t.Fatalf("want 2 flows after timeout split, got %d", len(fs))
	}
	if fs[0].Packets != 2 || fs[1].Packets != 1 {
		t.Errorf("split sizes: %d/%d", fs[0].Packets, fs[1].Packets)
	}
}

func TestAssemblerDistinctTuples(t *testing.T) {
	a := NewAssembler(conns)
	a.Add(PacketInfo{TS: 0, App: 1, Conn: 1, Bytes: 1})
	a.Add(PacketInfo{TS: sec, App: 2, Conn: 2, Bytes: 1})
	fs := a.Flows()
	if len(fs) != 2 {
		t.Fatalf("flows = %d", len(fs))
	}
}

func TestFlowsSortedByStart(t *testing.T) {
	a := NewAssembler(conns)
	a.Add(PacketInfo{TS: 10 * sec, App: 1, Conn: 2, Bytes: 1})
	a.Add(PacketInfo{TS: 0, App: 1, Conn: 1, Bytes: 1})
	fs := a.Flows()
	if fs[0].Start != 0 || fs[1].Start != 10*sec {
		t.Errorf("not sorted: %v %v", fs[0].Start, fs[1].Start)
	}
}

func TestConservationProperty(t *testing.T) {
	// Total bytes, packets, and energy across flows must equal the inputs.
	src := rng.New(55)
	f := func(n uint8) bool {
		a := NewAssembler(conns)
		count := int(n)%200 + 1
		var wantBytes int64
		var wantEnergy float64
		ts := trace.Timestamp(0)
		for i := 0; i < count; i++ {
			ts += trace.Timestamp(src.Exp(800) * 1e6) // some gaps pass the 1800 s timeout
			b := 1 + src.Intn(1400)
			e := src.Float64()
			wantBytes += int64(b)
			wantEnergy += e
			a.Add(PacketInfo{
				TS: ts, App: uint32(src.Intn(5)), Conn: uint32(src.Intn(8)),
				Dir: trace.Direction(src.Intn(2)), Bytes: b,
				State: trace.ProcState(1 + src.Intn(5)), Energy: e,
			})
		}
		var gotBytes int64
		var gotEnergy float64
		gotPkts := 0
		for _, fl := range a.Flows() {
			gotBytes += fl.Bytes()
			gotEnergy += fl.Energy
			gotPkts += fl.Packets
			if fl.End < fl.Start {
				return false
			}
			if fl.FgBytes+fl.BgBytes > fl.Bytes() {
				return false
			}
		}
		return gotBytes == wantBytes && gotPkts == count &&
			gotEnergy > wantEnergy-1e-9 && gotEnergy < wantEnergy+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
