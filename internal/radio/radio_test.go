package radio

import (
	"math"
	"testing"
	"testing/quick"

	"netenergy/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLTEParameters(t *testing.T) {
	p := LTE()
	if !almost(p.TailTime(), 11.576, 1e-9) {
		t.Errorf("LTE tail time = %v, want 11.576", p.TailTime())
	}
	if !almost(p.PromotionEnergy(), 1.2107*0.2601, 1e-9) {
		t.Errorf("promotion energy = %v", p.PromotionEnergy())
	}
	// Full tail: 0.2 s at base + 11.376 s at DRX power.
	want := 0.2*1.28804 + 11.376*1.06004
	if !almost(p.FullTailEnergy(), want, 1e-9) {
		t.Errorf("full tail = %v, want %v", p.FullTailEnergy(), want)
	}
	// Transfer power from the published parameters, in mW: β 1288.04 plus
	// α_u 438.39 per Mbps at 5.64 Mbps up, α_d 51.97 per Mbps at 12.74 down.
	if up := p.txPower(Up) * 1000; !almost(up, 3760.5596, 1e-9) {
		t.Errorf("uplink transfer power = %v mW, want 1288.04 + 438.39*5.64 = 3760.5596", up)
	}
	if down := p.txPower(Down) * 1000; !almost(down, 1950.1378, 1e-9) {
		t.Errorf("downlink transfer power = %v mW, want 1288.04 + 51.97*12.74 = 1950.1378", down)
	}
	// An isolated small burst on LTE costs ~12.6 J — the magnitude the
	// paper's Table 1 per-flow numbers reflect (Twitter: 11 J/flow).
	e := BurstEnergy(p, 2000, Up)
	if e < 11 || e > 14 {
		t.Errorf("isolated LTE burst = %v J, want 11-14 J", e)
	}
}

func TestTailEnergySegments(t *testing.T) {
	p := LTE()
	// First 0.1 s is in the continuous-reception phase.
	if got := p.tailEnergy(0, 0.1); !almost(got, 0.1*1.28804, 1e-12) {
		t.Errorf("tail[0,0.1] = %v", got)
	}
	// Straddling both phases.
	want := 0.1*1.28804 + 0.3*1.06004
	if got := p.tailEnergy(0.1, 0.5); !almost(got, want, 1e-12) {
		t.Errorf("tail[0.1,0.5] = %v, want %v", got, want)
	}
	// Beyond the tail end contributes nothing.
	if got := p.tailEnergy(11.576, 100); got != 0 {
		t.Errorf("tail beyond end = %v", got)
	}
	if got := p.tailEnergy(5, 5); got != 0 {
		t.Errorf("empty interval = %v", got)
	}
	if got := p.tailEnergy(5, 4); got != 0 {
		t.Errorf("inverted interval = %v", got)
	}
}

func TestTransferEnergyDirections(t *testing.T) {
	p := LTE()
	// Uplink is slower and more power-hungry per Mbps: same bytes must cost
	// more energy up than down.
	up := p.TransferEnergy(100000, Up)
	down := p.TransferEnergy(100000, Down)
	if up <= down {
		t.Errorf("uplink energy %v should exceed downlink %v", up, down)
	}
	if p.TransferEnergy(0, Up) != 0 {
		t.Error("zero bytes should cost zero transfer energy")
	}

	// Every shipped model, worked by hand from its parameters. 125 000
	// bytes is one megabit, so the transfer lasts 1/rate s at β + α·rate W
	// and costs β/rate + α J (LTE up: 1.28804/5.64 + 0.43839); an isolated
	// burst adds the promotion (LTE: 0.2601 s · 1.2107 W = 0.31490307 J)
	// and the full tail (LTE: 0.2·1.28804 + 11.376·1.06004 = 12.31662304 J).
	variants := LTEVariants()
	for _, pin := range []struct {
		p                  Params
		powerUp, powerDown float64 // W
		xferUp, xferDown   float64 // J per megabit
		burstUp, burstDown float64 // J, promotion + megabit + full tail
	}{
		{LTE(), 3.7605596, 1.9501378, 0.666765886525, 0.153072040816, 13.298291996525, 12.784598150816},
		{ThreeG(), 1.075, 0.99, 0.977272727273, 0.260526315789, 12.097272727273, 11.380526315789},
		{WiFi(), 4.182191, 3.544409, 0.292460909091, 0.142345742972, 0.330715889091, 0.180600722972},
		{variants[1], 3.7605596, 1.9501378, 0.666765886525, 0.153072040816, 9.507588956525, 8.993895110816},
		{variants[2], 3.7605596, 1.9501378, 0.666765886525, 0.153072040816, 15.771045886525, 15.257352040816},
	} {
		m := pin.p
		for _, c := range []struct {
			what      string
			got, want float64
		}{
			{"txPower(Up)", m.txPower(Up), pin.powerUp},
			{"txPower(Down)", m.txPower(Down), pin.powerDown},
			{"TransferEnergy(125000, Up)", m.TransferEnergy(125000, Up), pin.xferUp},
			{"TransferEnergy(125000, Down)", m.TransferEnergy(125000, Down), pin.xferDown},
			{"BurstEnergy(125000, Up)", BurstEnergy(m, 125000, Up), pin.burstUp},
			{"BurstEnergy(125000, Down)", BurstEnergy(m, 125000, Down), pin.burstDown},
		} {
			if !almost(c.got, c.want, 1e-9) {
				t.Errorf("%s %s = %.12f, want %.12f", m.Name, c.what, c.got, c.want)
			}
		}
	}
}

func TestTxTimeZeroRate(t *testing.T) {
	p := Params{UplinkMbps: 0, DownlinkMbps: 0}
	if p.txTime(1000, Up) != 0 || p.txTime(1000, Down) != 0 {
		t.Error("zero-rate link should have zero tx time, not Inf")
	}
}

func TestAccountantIsolatedBurst(t *testing.T) {
	p := LTE()
	a := NewAccountant(p)
	c := a.OnPacket(100, 1000, Up)
	if c.Promotion != p.PromotionEnergy() {
		t.Errorf("first packet promotion = %v", c.Promotion)
	}
	if c.GapTail != 0 {
		t.Errorf("first packet gap tail = %v", c.GapTail)
	}
	fin := a.Finish()
	if !almost(fin, p.FullTailEnergy(), 1e-9) {
		t.Errorf("finish tail = %v", fin)
	}
	wantTotal := BurstEnergy(p, 1000, Up)
	if !almost(a.TotalEnergy(), wantTotal, 1e-9) {
		t.Errorf("total = %v, want %v", a.TotalEnergy(), wantTotal)
	}
	if a.State() != Idle {
		t.Errorf("state after finish = %v", a.State())
	}
}

func TestAccountantWithinTail(t *testing.T) {
	p := LTE()
	a := NewAccountant(p)
	a.OnPacket(0, 100, Up)
	// 2 s later: still in tail, no promotion, gap energy for ~2 s.
	c := a.OnPacket(2, 100, Up)
	if c.Promotion != 0 {
		t.Errorf("promotion within tail = %v", c.Promotion)
	}
	gapWant := p.tailEnergy(0, 2-p.txTime(100, Up))
	if !almost(c.GapTail, gapWant, 1e-9) {
		t.Errorf("gap tail = %v, want %v", c.GapTail, gapWant)
	}
}

func TestAccountantAfterFullTail(t *testing.T) {
	p := LTE()
	a := NewAccountant(p)
	a.OnPacket(0, 100, Up)
	// 60 s later: tail completed, radio idle, fresh promotion.
	c := a.OnPacket(60, 100, Up)
	if c.Promotion != p.PromotionEnergy() {
		t.Errorf("promotion after idle = %v", c.Promotion)
	}
	if !almost(c.GapTail, p.FullTailEnergy(), 1e-9) {
		t.Errorf("gap tail = %v, want full tail %v", c.GapTail, p.FullTailEnergy())
	}
}

func TestAccountantOverlappingPackets(t *testing.T) {
	p := LTE()
	a := NewAccountant(p)
	a.OnPacket(0, 1_000_000, Down) // ~0.63 s transmission
	// Next packet arrives "during" the first transmission.
	c := a.OnPacket(0.0001, 1000, Down)
	if c.GapTail != 0 || c.Promotion != 0 {
		t.Errorf("overlapping packet charged gap=%v promo=%v", c.GapTail, c.Promotion)
	}
}

func TestAccountantFinishIdempotent(t *testing.T) {
	a := NewAccountant(LTE())
	if a.Finish() != 0 {
		t.Error("finish with no packets should be 0")
	}
	a.OnPacket(0, 10, Up)
	a.Finish()
	if a.Finish() != 0 {
		t.Error("second finish should be 0")
	}
}

func TestEnergyConservationProperty(t *testing.T) {
	// Sum of all returned charges must equal the accountant's total, and
	// adding packets must never decrease total energy.
	src := rng.New(77)
	models := []Params{LTE(), ThreeG(), WiFi()}
	f := func(n uint8) bool {
		p := models[src.Intn(len(models))]
		a := NewAccountant(p)
		count := int(n)%100 + 1
		tm := 0.0
		var sum float64
		prevTotal := 0.0
		for i := 0; i < count; i++ {
			tm += src.Exp(8)
			c := a.OnPacket(tm, 1+src.Intn(1400), Dir(src.Intn(2)))
			sum += c.Total()
			if a.TotalEnergy() < prevTotal-1e-12 {
				return false
			}
			prevTotal = a.TotalEnergy()
		}
		sum += a.Finish()
		return almost(sum, a.TotalEnergy(), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBatchingSavesEnergy(t *testing.T) {
	// The paper's core efficiency claim: sending the same bytes in fewer,
	// batched bursts costs less energy than spreading them out beyond the
	// tail. 10 isolated 1 KB bursts vs one 10 KB burst.
	p := LTE()
	spread := NewAccountant(p)
	for i := 0; i < 10; i++ {
		spread.OnPacket(float64(i)*60, 1000, Up)
	}
	spread.Finish()

	batched := NewAccountant(p)
	for i := 0; i < 10; i++ {
		batched.OnPacket(float64(i)*0.01, 1000, Up)
	}
	batched.Finish()

	if spread.TotalEnergy() < 8*batched.TotalEnergy() {
		t.Errorf("spread=%v J batched=%v J; expected ~10x difference",
			spread.TotalEnergy(), batched.TotalEnergy())
	}
}

func TestModelOrdering(t *testing.T) {
	// For an identical intermittent workload, LTE should cost more than
	// WiFi (longer, hotter tail), with 3G in the same order of magnitude
	// as LTE.
	run := func(p Params) float64 {
		a := NewAccountant(p)
		for i := 0; i < 20; i++ {
			a.OnPacket(float64(i)*30, 2000, Up)
		}
		a.Finish()
		return a.TotalEnergy()
	}
	lte, wifi := run(LTE()), run(WiFi())
	if lte < 20*wifi {
		t.Errorf("LTE (%v J) should dwarf WiFi (%v J) on intermittent traffic", lte, wifi)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Idle: "idle", Promoting: "promoting", Active: "active", Tail: "tail", State(99): "invalid"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	p := LTE()
	if p.String() != "radio model LTE" {
		t.Errorf("Params.String = %q", p.String())
	}
}

func BenchmarkAccountantOnPacket(b *testing.B) {
	a := NewAccountant(LTE())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.OnPacket(float64(i)*0.5, 1200, Dir(i&1))
	}
}

func TestTimelineMatchesAccountant(t *testing.T) {
	// The timeline's integral must equal the accountant's total for the
	// same packet stream (both implement the same state machine).
	src := rng.New(17)
	for trial := 0; trial < 20; trial++ {
		p := []Params{LTE(), ThreeG(), WiFi()}[trial%3]
		acct := NewAccountant(p)
		tb := NewTimelineBuilder(p)
		tm := 0.0
		for i := 0; i < 50; i++ {
			tm += src.Exp(10)
			n := 1 + src.Intn(5000)
			d := Dir(src.Intn(2))
			acct.OnPacket(tm, n, d)
			tb.OnPacket(tm, n, d)
		}
		acct.Finish()
		spans := tb.Finish()
		got := TotalEnergy(spans)
		want := acct.TotalEnergy()
		if math.Abs(got-want) > 1e-6*(1+want) {
			t.Fatalf("trial %d (%s): timeline %v J vs accountant %v J", trial, p.Name, got, want)
		}
	}
}

func TestTimelineSpansContiguousWhileBusy(t *testing.T) {
	p := LTE()
	tb := NewTimelineBuilder(p)
	tb.OnPacket(100, 1000, Up)
	tb.OnPacket(105, 1000, Down) // within the tail
	spans := tb.Finish()
	if len(spans) < 4 {
		t.Fatalf("spans = %+v", spans)
	}
	for i := 1; i < len(spans); i++ {
		if math.Abs(spans[i].Start-spans[i-1].End) > 1e-9 {
			t.Errorf("gap between spans %d and %d: %v -> %v", i-1, i, spans[i-1].End, spans[i].Start)
		}
	}
	// First span is the promotion ending exactly at the first packet.
	if spans[0].State != Promoting || math.Abs(spans[0].End-100) > 1e-9 {
		t.Errorf("first span = %+v", spans[0])
	}
	// Last span is the end of the tail.
	last := spans[len(spans)-1]
	if last.State != Tail {
		t.Errorf("last span = %+v", last)
	}
}

func TestTimelineIdleBetweenBursts(t *testing.T) {
	p := LTE()
	tb := NewTimelineBuilder(p)
	tb.OnPacket(0, 100, Up)
	tb.OnPacket(100, 100, Up) // far beyond the tail: idle gap + re-promotion
	spans := tb.Finish()
	sawIdle := false
	for _, s := range spans {
		if s.State == Idle {
			sawIdle = true
			if s.Duration() < 80 {
				t.Errorf("idle span too short: %+v", s)
			}
		}
	}
	if !sawIdle {
		t.Error("no idle span between distant bursts")
	}
	if e := TotalEnergy(spans); e <= 2*p.FullTailEnergy() {
		t.Errorf("two isolated bursts energy = %v", e)
	}
}

func TestTimelineEmpty(t *testing.T) {
	tb := NewTimelineBuilder(LTE())
	if spans := tb.Finish(); spans != nil {
		t.Errorf("empty timeline = %+v", spans)
	}
	if TotalEnergy(nil) != 0 {
		t.Error("empty energy != 0")
	}
}

func TestStateSpanHelpers(t *testing.T) {
	s := StateSpan{Start: 1, End: 3, State: Active, Power: 2}
	if s.Duration() != 2 || s.Energy() != 4 {
		t.Errorf("span helpers: dur=%v e=%v", s.Duration(), s.Energy())
	}
}

func TestLTEVariantsOrdering(t *testing.T) {
	variants := LTEVariants()
	if len(variants) != 3 {
		t.Fatalf("variants = %d", len(variants))
	}
	burst := func(p Params) float64 { return BurstEnergy(p, 2000, Up) }
	std, short, hot := burst(variants[0]), burst(variants[1]), burst(variants[2])
	if !(short < std && std < hot) {
		t.Errorf("burst costs: short=%v std=%v hot=%v, want short<std<hot", short, std, hot)
	}
	names := map[string]bool{}
	for i := range variants {
		names[variants[i].Name] = true
	}
	if !names["LTE"] || !names["LTE-shortTail"] || !names["LTE-hotIdle"] {
		t.Errorf("variant names: %v", names)
	}
}
