package energy

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"netenergy/internal/radio"
	"netenergy/internal/trace"
)

// shiftDiff compares a device's result with that of the same device with
// every timestamp k days later: ByAppDay keys move d -> d+k, packet and span
// timestamps by k days, and everything else is equal — counts exactly,
// joules at 1e-9 relative plus slack absolute per packet. It names the first
// difference, or returns "".
func shiftDiff(a, b *Result, k int, slack float64) string {
	shift := trace.Timestamp(k) * 86400 * 1e6
	// A ledger key sums at most every packet's error.
	keySlack := slack * float64(len(a.Packets))
	near := func(x, y, abs float64) bool {
		return math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))+abs
	}
	la, lb := a.Ledger, b.Ledger
	if !near(la.Total, lb.Total, keySlack) || !near(la.IdleEnergy, lb.IdleEnergy, 0) {
		return fmt.Sprintf("Total/IdleEnergy %v/%v, shifted %v/%v", la.Total, la.IdleEnergy, lb.Total, lb.IdleEnergy)
	}
	if len(la.ByApp) != len(lb.ByApp) || len(la.ByState) != len(lb.ByState) || len(la.ByAppState) != len(lb.ByAppState) ||
		len(la.ByAppDay) != len(lb.ByAppDay) || !reflect.DeepEqual(la.BytesByApp, lb.BytesByApp) {
		return "key sets or BytesByApp differ"
	}
	for s, e := range la.ByState {
		if g, ok := lb.ByState[s]; !ok || !near(e, g, keySlack) {
			return fmt.Sprintf("ByState[%v] = %v, shifted %v", s, e, g)
		}
	}
	for app, e := range la.ByApp {
		if g, ok := lb.ByApp[app]; !ok || !near(e, g, keySlack) {
			return fmt.Sprintf("ByApp[%d] = %v, shifted %v", app, e, g)
		}
		if len(la.ByAppState[app]) != len(lb.ByAppState[app]) || len(la.ByAppDay[app]) != len(lb.ByAppDay[app]) {
			return fmt.Sprintf("app %d: state or day counts differ", app)
		}
		for s, e := range la.ByAppState[app] {
			if g, ok := lb.ByAppState[app][s]; !ok || !near(e, g, keySlack) {
				return fmt.Sprintf("ByAppState[%d][%v] = %v, shifted %v", app, s, e, g)
			}
		}
		for day, w := range la.ByAppDay[app] {
			g := lb.ByAppDay[app][day+k]
			if g == nil || !near(w.Energy, g.Energy, keySlack) || !near(w.FgEnergy, g.FgEnergy, keySlack) ||
				!near(w.BgEnergy, g.BgEnergy, keySlack) || w.FgBytes != g.FgBytes || w.BgBytes != g.BgBytes || w.Packets != g.Packets {
				return fmt.Sprintf("ByAppDay[%d][%d] = %+v, shifted day %d holds %+v", app, day, *w, day+k, g)
			}
		}
	}
	if len(a.Packets) != len(b.Packets) || a.DecodeErrors != b.DecodeErrors ||
		b.Span != [2]trace.Timestamp{a.Span[0] + shift, a.Span[1] + shift} ||
		!reflect.DeepEqual(a.Conns, b.Conns) || !reflect.DeepEqual(a.Hosts, b.Hosts) {
		return "packet count, decode errors, span, connections or hosts differ"
	}
	for i := range a.Packets {
		p, q := a.Packets[i], b.Packets[i]
		if q.TS != p.TS+shift || !near(p.Energy, q.Energy, slack) {
			return fmt.Sprintf("packet %d: %+v, shifted %+v", i, p, q)
		}
		p.TS, p.Energy, q.TS, q.Energy = 0, 0, 0, 0
		if p != q {
			return fmt.Sprintf("packet %d: %+v, shifted %+v", i, a.Packets[i], b.Packets[i])
		}
	}
	return ""
}

// TestDayShiftProperty (metamorphic): moving every timestamp of a device by
// whole days moves its days and changes nothing else.
//
// Not bit for bit, and not at 1e-9 relative alone: the accountant takes
// times as float64 seconds of the absolute timestamp, so each gap it
// measures is off by up to about two ulps of the larger time — 9.3e-10 s
// at 40 days — and a gap's tail energy by that much times the tail's power.
// Measured on these inputs, a packet's energy moves by up to 6.7e-8
// relative (1.5e-9 J) under the shift. Each packet is allowed four ulps of
// the latest time at the highest tail power, and each ledger key that much
// per packet.
func TestDayShiftProperty(t *testing.T) {
	opts := DefaultOptions()
	var tailPower float64
	for _, ph := range radio.LTE().TailPhases {
		tailPower = math.Max(tailPower, ph.Power)
	}
	for name, recs := range ledgerInputs() {
		dt := &trace.DeviceTrace{Device: name, Records: recs}
		base, err := Process(dt, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(base.Ledger.ByAppDay) == 0 {
			t.Fatalf("%s: nothing accounted: the comparison is vacuous", name)
		}
		for _, k := range []int{1, 3, 40} {
			shifted := &trace.DeviceTrace{Device: name, Records: append([]trace.Record(nil), recs...)}
			for i := range shifted.Records {
				shifted.Records[i].TS += trace.Timestamp(k) * 86400 * 1e6
			}
			got, err := Process(shifted, opts)
			if err != nil {
				t.Fatal(err)
			}
			latest := got.Span[1].Seconds()
			slack := 4 * tailPower * (math.Nextafter(latest, math.Inf(1)) - latest)
			if diff := shiftDiff(base, got, k, slack); diff != "" {
				t.Errorf("%s shifted %d days: %s", name, k, diff)
			}
		}
	}
}

// TestSaveRestoreEveryBoundary: stopping a kernel after any packet, and
// going on in a new kernel from its saved state and a copy of its ledger,
// is the identity: every packet's charges and the finished ledger are bit
// for bit those of the uninterrupted run. (TestLedgerMatchesMapReference
// restores at four cuts; analysis.TestAppendStateRestoreProperty cuts a
// quarter of the equivalence traces at every packet, through the
// serialised accumulator.)
func TestSaveRestoreEveryBoundary(t *testing.T) {
	opts := DefaultOptions()
	type charge struct{ own, gapTail float64 }
	for name, recs := range ledgerInputs() {
		if strings.HasPrefix(name, "synthgen ") {
			continue // thousands of packets, and every cut replays them all
		}
		var pkts []int
		for i := range recs {
			if recs[i].Type == trace.RecPacket {
				pkts = append(pkts, i)
			}
		}
		// feed accounts recs' packets pkts[from:to] and returns their charges.
		feed := func(k *Replay, from, to int) []charge {
			var out []charge
			for _, i := range pkts[from:to] {
				r := &recs[i]
				if d, own, gapTail := k.Packet(r.TS, r.App, r.Dir, r.Net, r.State, r.Payload); d != nil {
					out = append(out, charge{own, gapTail})
				}
			}
			return out
		}
		whole := NewReplay(opts, NewLedger())
		want := feed(whole, 0, len(pkts))
		wantTail := whole.Finish()

		for cut := 0; cut <= len(pkts); cut++ {
			a := NewReplay(opts, NewLedger())
			got := feed(a, 0, cut)
			b := NewReplay(opts, MergeLedgers([]*Ledger{a.Ledger}))
			b.DecodeErrors, b.Span = a.DecodeErrors, a.Span
			b.RestoreState(a.SaveState())
			got = append(got, feed(b, cut, len(pkts))...)
			tail := b.Finish()
			if len(got) != len(want) {
				t.Fatalf("%s, cut after packet %d: %d packets accounted, want %d", name, cut, len(got), len(want))
			}
			for j := range want {
				if math.Float64bits(got[j].own) != math.Float64bits(want[j].own) ||
					math.Float64bits(got[j].gapTail) != math.Float64bits(want[j].gapTail) {
					t.Fatalf("%s, cut after packet %d: accounted packet %d charged %+v, want %+v", name, cut, j, got[j], want[j])
				}
			}
			if math.Float64bits(tail) != math.Float64bits(wantTail) || b.DecodeErrors != whole.DecodeErrors || b.Span != whole.Span {
				t.Fatalf("%s, cut after packet %d: final tail %v, decode errors %d, span %v; want %v, %d, %v",
					name, cut, tail, b.DecodeErrors, b.Span, wantTail, whole.DecodeErrors, whole.Span)
			}
			if diff := ledgerDiff(b.Ledger, whole.Ledger); diff != "" {
				t.Fatalf("%s, cut after packet %d: %s", name, cut, diff)
			}
		}
	}
}
