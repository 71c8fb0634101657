// Package appmodel contains per-app network behaviour models: the traffic
// and process-state patterns of the apps the paper studies (§4's case
// studies: social media pollers, push services, widgets, streamers, podcast
// downloaders, leaky browsers) plus a generic population model for the long
// tail of the 342 observed apps.
//
// Each Behavior, given an app's foreground session schedule, emits the same
// record streams the paper's on-device collector captured: serialised IP
// packets (with a capture snap length, like tcpdump -s), process-state
// transitions and UI events. Behaviour parameters are calibrated against
// the values Table 1 reports (update period, bytes per flow, flows per
// day).
package appmodel

import (
	"netenergy/internal/netparse"
	"netenergy/internal/rng"
	"netenergy/internal/trace"
)

// Session is one foreground usage session of an app, produced by the user
// model: the user launches the app at Start and leaves it at End.
type Session struct {
	Start, End trace.Timestamp
}

// Duration returns the session length in seconds.
func (s Session) Duration() float64 { return s.End.Sub(s.Start) }

// DefaultSnaplen is the capture snap length the generator stores: full
// headers plus a sliver of payload, exactly like a header-only tcpdump
// capture. The IP header's total-length field preserves the wire size.
const DefaultSnaplen = 96

// maxSegment is the largest single packet the generator emits. Real traces
// show GRO/LRO-coalesced captures with segments far above the MTU; using
// large segments keeps long traces tractable without changing burst-level
// energy (transfer energy depends on bytes and rate, not segmentation).
const maxSegment = 60000

// Gen emits trace records for one device. It is shared by all app models on
// the device so that ephemeral ports do not collide.
type Gen struct {
	DT      *trace.DeviceTrace
	Rng     *rng.Source
	LocalIP [4]byte
	Snaplen int
	Net     trace.Network // default interface for emitted packets

	// WiFiPeriods are sorted time spans during which the device routes
	// traffic over WiFi instead of Net (e.g. nights at home). The study
	// analyses cellular traffic, so these packets are present in the trace
	// but filtered out by the energy engine — as in the real dataset.
	WiFiPeriods []Session

	// ActivePeriods are the user's merged foreground sessions across all
	// apps. Behaviours that only act while the device is in use (home
	// screen widgets refreshing a visible surface) consult these via
	// DeviceActive.
	ActivePeriods []Session

	// RetransmitProb is the per-segment probability of emitting a TCP
	// retransmission (same sequence number, one RTT later) — wire bytes
	// that cost radio energy but deliver no new data.
	RetransmitProb float64

	// EmitDNS enables DNS lookups: the first burst on a connection to a
	// not-recently-resolved server is preceded by a UDP query/response
	// exchange with the carrier resolver. Isolated lookups wake the radio
	// just like any other packet — small requests, full tail price.
	EmitDNS bool

	// dnsCache maps server address -> cache expiry time.
	dnsCache map[[4]byte]trace.Timestamp

	nextPort uint16
	buf      []byte
}

// netAt returns the interface in use at ts.
func (g *Gen) netAt(ts trace.Timestamp) trace.Network {
	i := sortSearchSessions(g.WiFiPeriods, ts)
	if i < len(g.WiFiPeriods) && g.WiFiPeriods[i].Start <= ts {
		return trace.NetWiFi
	}
	return g.Net
}

// DeviceActive reports whether the user was interacting with the device at
// ts, within slack seconds of any session. Widget updates that happen while
// the radio is already busy with foreground traffic share its tail — the
// mechanism behind the paper's cheap-but-frequent widget updates.
func (g *Gen) DeviceActive(ts trace.Timestamp, slack float64) bool {
	i := sortSearchSessions(g.ActivePeriods, ts.AddSeconds(-slack))
	if i >= len(g.ActivePeriods) {
		return false
	}
	p := g.ActivePeriods[i]
	return p.Start.AddSeconds(-slack) <= ts && ts <= p.End.AddSeconds(slack)
}

// sortSearchSessions returns the index of the first session whose End is
// after ts.
func sortSearchSessions(ss []Session, ts trace.Timestamp) int {
	lo, hi := 0, len(ss)
	for lo < hi {
		mid := (lo + hi) / 2
		if ss[mid].End <= ts {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// NewGen returns a generator appending to dt.
func NewGen(dt *trace.DeviceTrace, src *rng.Source) *Gen {
	return &Gen{
		DT: dt, Rng: src,
		LocalIP:  [4]byte{10, 32, byte(src.Intn(250)), byte(1 + src.Intn(250))},
		Snaplen:  DefaultSnaplen,
		Net:      trace.NetCellular,
		nextPort: 32768,
		buf:      make([]byte, 65536),
	}
}

// Conn is one TCP connection an app model reuses across updates; reusing a
// connection keeps consecutive updates in the same five-tuple flow, which
// is how "one flow may not correspond to one periodic update" (Table 1)
// arises in the real traces.
type Conn struct {
	ServerIP   [4]byte
	ServerPort uint16
	LocalPort  uint16
	seq        uint32
	resolved   bool // DNS already performed for this connection
}

// ResolverIP is the carrier DNS resolver the generator targets.
var ResolverIP = [4]byte{198, 51, 100, 53}

// dnsTTL is how long a resolved name stays cached on the device.
const dnsTTL = 300.0

// maybeEmitDNS emits a DNS query/response pair before ts if the server is
// not in the device's resolver cache, returning the time the exchange ends.
func (g *Gen) maybeEmitDNS(app uint32, ts trace.Timestamp, state trace.ProcState, c *Conn) trace.Timestamp {
	if !g.EmitDNS || c.resolved {
		return ts
	}
	c.resolved = true
	if g.dnsCache == nil {
		g.dnsCache = make(map[[4]byte]trace.Timestamp)
	}
	if exp, ok := g.dnsCache[c.ServerIP]; ok && ts < exp {
		return ts
	}
	g.dnsCache[c.ServerIP] = ts.AddSeconds(dnsTTL)
	g.nextPort++
	qLen := 28 + 12 + 30 // IP+UDP headers + DNS header + QNAME-ish
	rLen := qLen + 60
	q, err := netparse.BuildUDPv4(g.buf, g.LocalIP, ResolverIP, g.nextPort, 53, qLen-28)
	if err != nil {
		panic("appmodel: dns build failed: " + err.Error())
	}
	g.appendRaw(app, ts, state, trace.DirUp, g.buf[:q])
	t := ts.AddSeconds(float64(qLen) * 8 / 5.64e6)
	r, err := netparse.BuildUDPv4(g.buf, ResolverIP, g.LocalIP, 53, g.nextPort, rLen-28)
	if err != nil {
		panic("appmodel: dns build failed: " + err.Error())
	}
	// Resolver round trip ~40 ms.
	t = t.AddSeconds(0.02 + g.Rng.Exp(0.02))
	g.appendRaw(app, t, state, trace.DirDown, g.buf[:r])
	return t.AddSeconds(float64(rLen) * 8 / 12.74e6)
}

// appendRaw stores a fully serialised packet as a record.
func (g *Gen) appendRaw(app uint32, ts trace.Timestamp, state trace.ProcState, dir trace.Direction, pkt []byte) {
	payload := make([]byte, len(netparse.Snap(pkt, g.Snaplen)))
	copy(payload, pkt)
	g.DT.Records = append(g.DT.Records, trace.Record{
		Type: trace.RecPacket, TS: ts, App: app,
		Dir: dir, Net: g.netAt(ts), State: state, Payload: payload,
	})
}

// NewConn opens a new connection identity to the given server.
func (g *Gen) NewConn(server [4]byte, port uint16) *Conn {
	g.nextPort++
	if g.nextPort < 32768 {
		g.nextPort = 32768
	}
	return &Conn{ServerIP: server, ServerPort: port, LocalPort: g.nextPort}
}

// ServerIP derives a stable pseudo-random public server address from a
// service label hash, so each app talks to its own server(s).
func ServerIP(seed uint32) [4]byte {
	// Keep out of private ranges: 23.x.y.z is public (Akamai space).
	return [4]byte{23, byte(seed >> 16), byte(seed >> 8), byte(1 + seed%250)}
}

// SetState appends a process-state transition record.
func (g *Gen) SetState(app uint32, ts trace.Timestamp, s trace.ProcState) {
	g.DT.Records = append(g.DT.Records, trace.Record{
		Type: trace.RecProcState, TS: ts, App: app, State: s,
	})
}

// UIEvent appends a user-input record.
func (g *Gen) UIEvent(app uint32, ts trace.Timestamp, kind trace.UIEventKind) {
	g.DT.Records = append(g.DT.Records, trace.Record{
		Type: trace.RecUIEvent, TS: ts, App: app, UIKind: kind,
	})
}

// Screen appends a screen on/off record.
func (g *Gen) Screen(ts trace.Timestamp, on bool) {
	g.DT.Records = append(g.DT.Records, trace.Record{
		Type: trace.RecScreen, TS: ts, ScreenOn: on,
	})
}

// emitPacket serialises and appends one packet record with the given
// sequence number, returning the time the transmission ends. prefix, if
// non-nil, is embedded at the start of the payload (an application-layer
// request line).
func (g *Gen) emitPacket(app uint32, ts trace.Timestamp, state trace.ProcState,
	c *Conn, dir trace.Direction, prefix []byte, payloadLen int, seq uint32) trace.Timestamp {
	var stored, wire int
	var err error
	if dir == trace.DirUp {
		stored, wire, err = netparse.BuildTCPv4SnappedPayload(g.buf, g.LocalIP, c.ServerIP,
			c.LocalPort, c.ServerPort, seq, netparse.TCPAck|netparse.TCPPsh, prefix, payloadLen, g.Snaplen)
	} else {
		stored, wire, err = netparse.BuildTCPv4SnappedPayload(g.buf, c.ServerIP, g.LocalIP,
			c.ServerPort, c.LocalPort, seq, netparse.TCPAck, prefix, payloadLen, g.Snaplen)
	}
	if err != nil {
		panic("appmodel: packet build failed: " + err.Error())
	}
	payload := make([]byte, stored)
	copy(payload, g.buf[:stored])
	g.DT.Records = append(g.DT.Records, trace.Record{
		Type: trace.RecPacket, TS: ts, App: app,
		Dir: dir, Net: g.netAt(ts), State: state, Payload: payload,
	})
	// Advance time by the transmission duration at a nominal LTE link rate
	// so packets within a burst do not collapse onto one instant.
	rate := 12.74e6 // bit/s down
	if dir == trace.DirUp {
		rate = 5.64e6
	}
	return ts.AddSeconds(float64(wire) * 8 / rate)
}

// EmitHTTPBurst emits one request/response exchange on conn: upBytes of
// request followed by downBytes of response, segmented into
// at-most-maxSegment packets. A non-nil request is an application-layer
// prefix embedded in the first uplink packet, so the analyzer can recover
// the destination host from the capture (appproto.ParseHost). It returns
// the time the burst completes.
func (g *Gen) EmitHTTPBurst(app uint32, ts trace.Timestamp, state trace.ProcState,
	c *Conn, request []byte, upBytes, downBytes int64) trace.Timestamp {
	t := g.maybeEmitDNS(app, ts, state, c)
	t = g.emitSegments(app, t, state, c, trace.DirUp, request, upBytes)
	t = g.emitSegments(app, t, state, c, trace.DirDown, nil, downBytes)
	return t
}

func (g *Gen) emitSegments(app uint32, ts trace.Timestamp, state trace.ProcState,
	c *Conn, dir trace.Direction, prefix []byte, bytes int64) trace.Timestamp {
	t := ts
	if int64(len(prefix)) > bytes {
		bytes = int64(len(prefix))
	}
	for bytes > 0 {
		seg := bytes
		if seg > maxSegment {
			seg = maxSegment
		}
		seq := c.seq
		t = g.emitPacket(app, t, state, c, dir, prefix, int(seg), seq)
		c.seq = seq + uint32(seg)
		if g.RetransmitProb > 0 && g.Rng.Bool(g.RetransmitProb) {
			// One RTT later the same segment is retransmitted: identical
			// sequence number, fresh wire bytes.
			t = g.emitPacket(app, t.AddSeconds(0.05+g.Rng.Exp(0.15)), state, c, dir, prefix, int(seg), seq)
		}
		prefix = nil // only the first segment carries the request line
		bytes -= seg
	}
	return t
}
