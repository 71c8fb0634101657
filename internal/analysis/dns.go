package analysis

import (
	"netenergy/internal/netparse"
	"netenergy/internal/radio"
)

// DNSResult characterises the cost of name resolution: tiny UDP exchanges
// that nevertheless wake the radio when they arrive in isolation. A DNS
// lookup that triggers an LTE promotion costs ~12 J for ~200 bytes — the
// most extreme instance of the small-transfer overhead the paper studies.
type DNSResult struct {
	Lookups     int     // query packets seen
	Bytes       int64   // total DNS bytes (both directions)
	Energy      float64 // J attributed to DNS packets
	WakeLookups int     // lookups that found the radio idle (paid promotion+tail)
}

// WakeFraction returns the share of lookups that woke the radio.
func (r DNSResult) WakeFraction() float64 {
	if r.Lookups == 0 {
		return 0
	}
	return float64(r.WakeLookups) / float64(r.Lookups)
}

// DNS computes the resolver-traffic overhead across the fleet. A lookup
// "wakes the radio" when the preceding packet on the device ended more
// than the radio's tail time earlier.
func DNS(devs []*DeviceData, p radio.Params) DNSResult {
	var res DNSResult
	tail := p.TailTime()
	for _, d := range devs {
		var prevTS float64
		havePrev := false
		for i := range d.Energy.Packets {
			pkt := &d.Energy.Packets[i]
			ts := pkt.TS.Seconds()
			tuple := &d.Energy.Conns[pkt.Conn]
			isDNS := tuple.Proto == netparse.IPProtoUDP &&
				(tuple.PortA == 53 || tuple.PortB == 53)
			if isDNS {
				res.Bytes += int64(pkt.Bytes)
				res.Energy += pkt.Energy
				// Queries are the uplink half of the exchange.
				if tuple.PortB == 53 || tuple.PortA == 53 {
					if pkt.Bytes < 100 { // queries are smaller than responses
						res.Lookups++
						if !havePrev || ts-prevTS > tail {
							res.WakeLookups++
						}
					}
				}
			}
			prevTS = ts
			havePrev = true
		}
	}
	return res
}
