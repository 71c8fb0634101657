// Package flows assembles per-app network flows from decoded packets.
//
// A flow is the unit the paper's Table 1 reports on ("energy per flow"):
// all packets sharing a canonical five-tuple, split whenever the tuple goes
// quiet for longer than an inactivity timeout. The assembler also tracks
// how many bytes each flow moved while its app was in foreground vs
// background process states, which §4.1's persistence analysis needs.
package flows

import (
	"sort"

	"netenergy/internal/netparse"
	"netenergy/internal/trace"
)

// PacketInfo is the per-packet input to the assembler: the packet's
// connection id plus the collector-side metadata and the energy already
// attributed to the packet by the energy engine.
type PacketInfo struct {
	TS     trace.Timestamp
	App    uint32
	Conn   uint32 // index into the assembler's connection table
	Dir    trace.Direction
	Bytes  int // wire bytes
	State  trace.ProcState
	Energy float64 // joules attributed to this packet
}

// Flow is one assembled flow.
type Flow struct {
	Tuple      netparse.FiveTuple
	App        uint32
	Start, End trace.Timestamp
	Packets    int
	BytesUp    int64
	BytesDown  int64
	Energy     float64 // J, sum over packets
	FgBytes    int64   // bytes moved while app was foreground/visible
	BgBytes    int64   // bytes moved while app was in a background state
	StartState trace.ProcState
}

// Bytes returns total bytes in both directions.
func (f *Flow) Bytes() int64 { return f.BytesUp + f.BytesDown }

// Duration returns the flow's duration in seconds.
func (f *Flow) Duration() float64 { return f.End.Sub(f.Start) }

// inactivityTimeout splits a five-tuple into separate flows when no packet
// is seen for this many seconds: 30 minutes, long enough to keep a periodic
// poller's connection-reuse pattern in one flow while still splitting
// genuinely separate connections.
const inactivityTimeout = 1800

// Assembler groups packets into flows. Feed packets in timestamp order via
// Add, then call Flows once. Not safe for concurrent use.
type Assembler struct {
	conns  []netparse.FiveTuple
	active []*Flow // by connection id
	done   []*Flow
}

// NewAssembler returns an Assembler over a device's connection table:
// conns[id] is the canonical five-tuple of connection id, as
// energy.Result.Conns holds it.
func NewAssembler(conns []netparse.FiveTuple) *Assembler {
	return &Assembler{conns: conns, active: make([]*Flow, len(conns))}
}

// Add incorporates one packet.
func (a *Assembler) Add(p PacketInfo) {
	f := a.active[p.Conn]
	if f != nil && p.TS.Sub(f.End) > inactivityTimeout {
		a.done = append(a.done, f)
		f = nil
	}
	if f == nil {
		f = &Flow{Tuple: a.conns[p.Conn], App: p.App, Start: p.TS, End: p.TS, StartState: p.State}
		a.active[p.Conn] = f
	}
	f.End = p.TS
	f.Packets++
	if p.Dir == trace.DirUp {
		f.BytesUp += int64(p.Bytes)
	} else {
		f.BytesDown += int64(p.Bytes)
	}
	f.Energy += p.Energy
	if p.State.IsForeground() {
		f.FgBytes += int64(p.Bytes)
	} else if p.State.IsBackground() {
		f.BgBytes += int64(p.Bytes)
	}
}

// Flows finalises assembly and returns all flows sorted by start time.
// The assembler can keep accepting packets afterwards; subsequent calls
// return the updated set.
func (a *Assembler) Flows() []*Flow {
	out := make([]*Flow, 0, len(a.done)+len(a.active))
	out = append(out, a.done...)
	for _, f := range a.active {
		if f != nil {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Tuple.FastHash() < out[j].Tuple.FastHash()
	})
	return out
}

// ByApp groups flows by app ID.
func ByApp(fs []*Flow) map[uint32][]*Flow {
	out := make(map[uint32][]*Flow)
	for _, f := range fs {
		out[f.App] = append(out[f.App], f)
	}
	return out
}

// ActiveAt returns the flows in fs that span ts (Start <= ts <= End).
func ActiveAt(fs []*Flow, ts trace.Timestamp) []*Flow {
	var out []*Flow
	for _, f := range fs {
		if f.Start <= ts && f.End >= ts {
			out = append(out, f)
		}
	}
	return out
}
