package synthgen

import (
	"fmt"
	"math/rand"

	"netenergy/internal/netparse"
	"netenergy/internal/trace"
)

// EquivRecords builds a seed-deterministic randomized record stream
// exercising everything the stream accumulator and the attribution kernel
// consume: valid TCP/UDP packets across apps, states, directions and
// networks; junk payloads (decode errors); screen flips; proc-state
// transitions; app names; UI events. Timestamps advance monotonically across
// day boundaries so per-day ledgers get multiple keys. The equivalence
// harnesses replay it through every path that must agree bit for bit.
func EquivRecords(seed int64) []trace.Record {
	r := rand.New(rand.NewSource(seed))
	n := 200 + r.Intn(400)
	recs := make([]trace.Record, 0, n)
	ts := trace.Timestamp(1000 + r.Int63n(1e6))
	buf := make([]byte, 2048)
	for i := 0; i < n; i++ {
		// Mostly small steps, occasionally a jump past radio tails or a
		// day boundary.
		switch r.Intn(20) {
		case 0:
			ts = ts.AddSeconds(float64(r.Intn(90000))) // up to ~a day
		case 1:
			ts = ts.AddSeconds(20 + float64(r.Intn(60))) // past the tail
		default:
			ts = ts.AddSeconds(r.Float64() * 2)
		}
		app := uint32(r.Intn(6))
		switch p := r.Intn(100); {
		case p < 8:
			recs = append(recs, trace.Record{
				Type: trace.RecScreen, TS: ts, ScreenOn: r.Intn(2) == 0,
			})
		case p < 20:
			recs = append(recs, trace.Record{
				Type: trace.RecProcState, TS: ts, App: app,
				State: trace.AllStates[r.Intn(len(trace.AllStates))],
			})
		case p < 24:
			recs = append(recs, trace.Record{
				Type: trace.RecAppName, TS: ts, App: app,
				AppName: fmt.Sprintf("app.pkg%d", app),
			})
		case p < 28:
			recs = append(recs, trace.Record{
				Type: trace.RecUIEvent, TS: ts, App: app,
				UIKind: trace.UIEventKind(r.Intn(3)),
			})
		default:
			rec := trace.Record{
				Type: trace.RecPacket, TS: ts, App: app,
				Dir:   trace.Direction(r.Intn(2)),
				Net:   trace.Network(r.Intn(2)),
				State: trace.AllStates[r.Intn(len(trace.AllStates))],
			}
			src := [4]byte{10, 0, 0, byte(1 + r.Intn(250))}
			dst := [4]byte{93, 184, 216, byte(1 + r.Intn(250))}
			var m int
			switch r.Intn(10) {
			case 0:
				// Junk payload: both paths must count the decode error.
				m = 1 + r.Intn(40)
				r.Read(buf[:m])
			case 1, 2, 3:
				m, _ = netparse.BuildUDPv4(buf, src, dst,
					uint16(1024+r.Intn(60000)), 443, r.Intn(1200))
			default:
				m, _ = netparse.BuildTCPv4(buf, src, dst,
					uint16(1024+r.Intn(60000)), 443, r.Uint32(), 0x18, r.Intn(1200))
			}
			rec.Payload = append([]byte(nil), buf[:m]...)
			recs = append(recs, rec)
		}
	}
	return recs
}
