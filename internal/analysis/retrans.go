package analysis

import (
	"netenergy/internal/stats"
	"netenergy/internal/tcpstream"
	"netenergy/internal/trace"
)

// RetransResult characterises TCP retransmission overhead: wire bytes (and
// therefore radio energy) that delivered no new application data. Cellular
// links lose packets; the overhead compounds the background-traffic energy
// problem the paper studies.
type RetransResult struct {
	Total tcpstream.Stats
	// PerApp ranks apps by retransmitted bytes, descending.
	PerApp []AppRetrans
	// WastedEnergyJ estimates the energy of retransmitted bytes, scaling
	// each packet's energy by its retransmitted fraction.
	WastedEnergyJ float64
}

// AppRetrans is one app's retransmission accounting.
type AppRetrans struct {
	App          string
	Bytes        int64
	RetransBytes int64
}

// Fraction returns the app's retransmitted share.
func (a AppRetrans) Fraction() float64 {
	if a.Bytes == 0 {
		return 0
	}
	return float64(a.RetransBytes) / float64(a.Bytes)
}

// Retransmissions replays every device's TCP segments through per-stream
// reassembly and aggregates the overhead. A stream is one direction of one
// connection: stream 2*conn+1 carries the connection's uplink, 2*conn its
// downlink.
func Retransmissions(devs []*DeviceData, topK int) RetransResult {
	var res RetransResult
	type tally struct{ bytes, retrans int64 }
	perApp := map[string]tally{}
	add := func(name string, t tally) {
		sum := perApp[name]
		sum.bytes += t.bytes
		sum.retrans += t.retrans
		perApp[name] = sum
	}
	for _, d := range devs {
		streams := make([]tcpstream.Stream, 2*len(d.Energy.Conns))
		// Tallied by app id and folded into the name-keyed totals once per
		// device, not once per packet; an id the device never named is rare
		// enough to go by name.
		byID := make([]tally, d.Apps.Len())
		for i := range d.Energy.Packets {
			p := &d.Energy.Packets[i]
			// Payload length: wire bytes minus the fixed 40-byte header
			// stack the generator emits.
			plen := p.Bytes - 40
			if plen < 0 {
				plen = 0
			}
			st := &streams[2*p.Conn]
			if p.Dir == trace.DirUp {
				st = &streams[2*p.Conn+1]
			}
			t := tally{bytes: int64(plen)}
			switch st.Segment(p.Seq, plen) {
			case tcpstream.KindRetrans:
				t.retrans = int64(plen)
				res.WastedEnergyJ += p.Energy
			case tcpstream.KindPartial:
				// Apportion energy by the retransmitted share.
				// (Stats track exact bytes; energy is approximated.)
				res.WastedEnergyJ += p.Energy / 2
			}
			if int(p.App) < len(byID) {
				byID[p.App].bytes += t.bytes
				byID[p.App].retrans += t.retrans
			} else {
				add(d.Apps.Name(p.App), t)
			}
		}
		for id, t := range byID {
			add(d.Apps.Name(uint32(id)), t)
		}
		for i := range streams {
			t := streams[i].Stats()
			res.Total.Segments += t.Segments
			res.Total.Bytes += t.Bytes
			res.Total.Goodput += t.Goodput
			res.Total.Retrans += t.Retrans
			res.Total.OutOfOrder += t.OutOfOrder
		}
	}
	rank := map[string]float64{}
	for name, t := range perApp {
		if t.retrans > 0 {
			rank[name] = float64(t.retrans)
		}
	}
	for _, kv := range stats.TopK(rank, topK) {
		res.PerApp = append(res.PerApp, AppRetrans{
			App:          kv.Key,
			Bytes:        perApp[kv.Key].bytes,
			RetransBytes: perApp[kv.Key].retrans,
		})
	}
	return res
}
