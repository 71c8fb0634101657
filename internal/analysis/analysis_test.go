package analysis

import (
	"testing"

	"netenergy/internal/energy"
	"netenergy/internal/netparse"
	"netenergy/internal/radio"
	"netenergy/internal/trace"
)

// radioLTE is a tiny alias so DNS tests read naturally.
func radioLTE() radio.Params { return radio.LTE() }

const sec = trace.Timestamp(1_000_000)

// builder constructs hand-crafted device traces with real packet bytes.
type builder struct {
	dt   *trace.DeviceTrace
	port uint16
}

func newBuilder(device string) *builder {
	return &builder{
		dt:   &trace.DeviceTrace{Device: device, Start: 0, Apps: trace.NewAppTable()},
		port: 40000,
	}
}

func (b *builder) app(pkg string) uint32 {
	id := b.dt.Apps.Intern(pkg)
	b.dt.Records = append(b.dt.Records, trace.Record{Type: trace.RecAppName, TS: 0, App: id, AppName: pkg})
	return id
}

func (b *builder) state(app uint32, ts trace.Timestamp, s trace.ProcState) {
	b.dt.Records = append(b.dt.Records, trace.Record{Type: trace.RecProcState, TS: ts, App: app, State: s})
}

// pkt emits one packet; samePort keeps the five-tuple (and flow) of the
// previous packet.
func (b *builder) pkt(app uint32, ts trace.Timestamp, st trace.ProcState, bytes int, samePort bool) {
	if !samePort {
		b.port++
	}
	buf := make([]byte, 96)
	stored, _, err := netparse.BuildTCPv4Snapped(buf, [4]byte{10, 0, 0, 1}, [4]byte{23, 1, 2, 3},
		b.port, 443, 0, netparse.TCPAck, bytes, 96)
	if err != nil {
		panic(err)
	}
	b.dt.Records = append(b.dt.Records, trace.Record{
		Type: trace.RecPacket, TS: ts, App: app, Dir: trace.DirUp,
		Net: trace.NetCellular, State: st, Payload: buf[:stored],
	})
}

func (b *builder) load(t *testing.T) *DeviceData {
	t.Helper()
	b.dt.SortByTime()
	dd, err := Load(b.dt, energy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return dd
}

func TestLoadBasics(t *testing.T) {
	b := newBuilder("d0")
	a := b.app("com.a")
	b.state(a, 0, trace.StateForeground)
	b.pkt(a, 10*sec, trace.StateForeground, 100, false)
	b.state(a, 20*sec, trace.StateBackground)
	b.pkt(a, 30*sec, trace.StateBackground, 200, true)
	dd := b.load(t)
	if dd.Energy.Ledger.Total <= 0 {
		t.Error("no energy")
	}
	if len(dd.Flows) != 1 {
		t.Errorf("flows = %d", len(dd.Flows))
	}
	if dd.Days != 1 {
		t.Errorf("days = %d", dd.Days)
	}
	if _, ok := dd.Apps.Lookup("com.a"); !ok {
		t.Error("Lookup failed")
	}
	if _, ok := dd.Apps.Lookup("com.missing"); ok {
		t.Error("Lookup found a missing app")
	}
}

func TestTopApps(t *testing.T) {
	mk := func(dev string, hungry string) *DeviceData {
		b := newBuilder(dev)
		h := b.app(hungry)
		o := b.app("com.other")
		b.state(h, 0, trace.StateService)
		b.state(o, 0, trace.StateService)
		b.pkt(h, 10*sec, trace.StateService, 50000, false)
		b.pkt(o, 60*sec, trace.StateService, 100, false)
		return b.load(t)
	}
	devs := []*DeviceData{mk("d0", "com.shared"), mk("d1", "com.shared"), mk("d2", "com.solo")}
	res := TopApps(devs, 2)
	// com.shared appears in 2 top-10s; com.other in 3; com.solo only 1 (filtered).
	counts := map[string]float64{}
	for _, kv := range res.Counts {
		counts[kv.Key] = kv.Val
	}
	if counts["com.shared"] != 2 {
		t.Errorf("shared count = %v", counts["com.shared"])
	}
	if counts["com.other"] != 3 {
		t.Errorf("other count = %v", counts["com.other"])
	}
	if _, ok := counts["com.solo"]; ok {
		t.Error("solo app should be filtered by minUsers=2")
	}
}

func TestHungryApps(t *testing.T) {
	// com.data moves many bytes in one burst (cheap per byte); com.chatty
	// moves few bytes in many isolated bursts (expensive per byte).
	b := newBuilder("d0")
	data := b.app("com.data")
	chatty := b.app("com.chatty")
	b.state(data, 0, trace.StateService)
	b.state(chatty, 0, trace.StateService)
	t0 := 10 * sec
	for i := 0; i < 20; i++ { // one tight burst of 20 x 50 KB
		b.pkt(data, t0, trace.StateService, 50000, i > 0)
		t0 += sec / 10
	}
	for i := 0; i < 20; i++ { // 20 isolated 200-byte bursts, 60 s apart
		b.pkt(chatty, trace.Timestamp(1000+60*i)*sec, trace.StateService, 200, false)
	}
	devs := []*DeviceData{b.load(t)}
	res := HungryApps(devs, 2)
	if res.ByData[0].App != "com.data" {
		t.Errorf("top by data = %s", res.ByData[0].App)
	}
	if res.ByEnergy[0].App != "com.chatty" {
		t.Errorf("top by energy = %s", res.ByEnergy[0].App)
	}
	var dataJMB, chattyJMB float64
	for _, h := range res.ByData {
		if h.App == "com.data" {
			dataJMB = h.JPerMB
		}
		if h.App == "com.chatty" {
			chattyJMB = h.JPerMB
		}
	}
	if chattyJMB < 100*dataJMB {
		t.Errorf("chatty J/MB (%v) should dwarf bulk J/MB (%v)", chattyJMB, dataJMB)
	}
}

func TestStateBreakdowns(t *testing.T) {
	b := newBuilder("d0")
	a := b.app("com.a")
	b.state(a, 0, trace.StateForeground)
	b.pkt(a, 10*sec, trace.StateForeground, 100, false)
	b.pkt(a, 100*sec, trace.StateService, 100, false)
	b.pkt(a, 200*sec, trace.StateBackground, 100, false)
	devs := []*DeviceData{b.load(t)}
	sbs := StateBreakdowns(devs, []string{"com.a"})
	if len(sbs) != 1 {
		t.Fatalf("breakdowns = %d", len(sbs))
	}
	sb := sbs[0]
	sum := 0.0
	for _, f := range sb.Fractions {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("fractions sum to %v", sum)
	}
	if bg := sb.BackgroundShare(); bg < 0.6 || bg > 0.7 {
		t.Errorf("background share = %v", bg)
	}
	// nil packages selects top apps.
	auto := StateBreakdowns(devs, nil)
	if len(auto) != 1 || auto[0].App != "com.a" {
		t.Errorf("auto selection = %+v", auto)
	}
}

func TestPersistence(t *testing.T) {
	b := newBuilder("d0")
	a := b.app("com.browser")
	// Session 1: fg packet at t=10 on flow F, backgrounded at t=20, flow F
	// persists until t=320 (300 s persistence).
	b.state(a, 5*sec, trace.StateForeground)
	b.pkt(a, 10*sec, trace.StateForeground, 1000, false)
	b.state(a, 20*sec, trace.StateBackground)
	b.pkt(a, 100*sec, trace.StateBackground, 500, true)
	b.pkt(a, 320*sec, trace.StateBackground, 500, true)
	// Session 2: clean exit, no persisting traffic.
	b.state(a, 1000*sec, trace.StateForeground)
	b.pkt(a, 1010*sec, trace.StateForeground, 1000, false)
	b.state(a, 1020*sec, trace.StateBackground)
	devs := []*DeviceData{b.load(t)}
	res := Persistence(devs, "com.browser")
	if len(res.Durations) != 2 {
		t.Fatalf("durations = %v", res.Durations)
	}
	// First transition: 300 s persistence; second: 0.
	var have300, have0 bool
	for _, d := range res.Durations {
		if d > 299 && d < 301 {
			have300 = true
		}
		if d == 0 {
			have0 = true
		}
	}
	if !have300 || !have0 {
		t.Errorf("durations = %v", res.Durations)
	}
	if res.CDF.Quantile(0) != 0 || res.CDF.Quantile(1) < 299 {
		t.Error("CDF missing samples")
	}
}

func TestPersistenceWindowedByReturn(t *testing.T) {
	b := newBuilder("d0")
	a := b.app("com.app")
	b.state(a, 0, trace.StateForeground)
	b.pkt(a, 5*sec, trace.StateForeground, 1000, false)
	b.state(a, 10*sec, trace.StateBackground)
	// Flow continues past the next fg return at t=100.
	b.pkt(a, 50*sec, trace.StateBackground, 100, true)
	b.state(a, 100*sec, trace.StateForeground)
	b.pkt(a, 150*sec, trace.StateForeground, 100, true)
	b.state(a, 200*sec, trace.StateBackground)
	devs := []*DeviceData{b.load(t)}
	res := Persistence(devs, "com.app")
	for _, d := range res.Durations {
		if d > 190 {
			t.Errorf("duration %v not windowed at foreground return", d)
		}
	}
}

func TestSinceForeground(t *testing.T) {
	b := newBuilder("d0")
	a := b.app("com.a")
	b.state(a, 0, trace.StateForeground)
	b.state(a, 10*sec, trace.StateBackground)
	// 5 KB right after backgrounding, 1 KB at 5 minutes.
	b.pkt(a, 15*sec, trace.StateBackground, 5000, false)
	b.pkt(a, 310*sec, trace.StateBackground, 1000, false)
	devs := []*DeviceData{b.load(t)}
	res := SinceForeground(devs, 10, 3600)
	if res.TotalBgBytes < 6000 {
		t.Errorf("binned bytes = %v", res.TotalBgBytes)
	}
	if res.FirstMinute < 0.7 || res.FirstMinute > 0.95 {
		t.Errorf("first minute share = %v", res.FirstMinute)
	}
}

func TestFirstMinuteCriterion(t *testing.T) {
	// App A: all bg bytes right after backgrounding (meets).
	// App B: bg bytes spread over hours (fails).
	// App C: never foregrounded (fails).
	b := newBuilder("d0")
	a := b.app("com.meets")
	bb := b.app("com.fails")
	c := b.app("com.service")
	b.state(a, 0, trace.StateForeground)
	b.state(a, 10*sec, trace.StateBackground)
	b.pkt(a, 15*sec, trace.StateBackground, 10000, false)
	b.state(bb, 0, trace.StateForeground)
	b.state(bb, 10*sec, trace.StateBackground)
	b.pkt(bb, 15*sec, trace.StateBackground, 100, false)
	for i := 1; i <= 5; i++ {
		b.pkt(bb, trace.Timestamp(i*1800)*sec, trace.StateBackground, 5000, false)
	}
	b.state(c, 0, trace.StateService)
	b.pkt(c, 100*sec, trace.StateService, 5000, false)
	devs := []*DeviceData{b.load(t)}
	res := FirstMinute(devs, 60, 0.8)
	if res.Total != 3 {
		t.Fatalf("total apps = %d", res.Total)
	}
	if res.Meeting != 1 {
		t.Errorf("meeting = %d, want 1 (only com.meets)", res.Meeting)
	}
	if res.PerApp["com.meets"] < 0.99 {
		t.Errorf("com.meets share = %v", res.PerApp["com.meets"])
	}
	if res.PerApp["com.service"] != 0 {
		t.Errorf("never-fg app share = %v", res.PerApp["com.service"])
	}
}

func TestBrowserShares(t *testing.T) {
	b := newBuilder("d0")
	leaky := b.app("com.leaky")
	clean := b.app("com.clean")
	b.state(leaky, 0, trace.StateForeground)
	b.pkt(leaky, 10*sec, trace.StateForeground, 1000, false)
	b.state(leaky, 20*sec, trace.StateBackground)
	b.pkt(leaky, 120*sec, trace.StateBackground, 1000, false)
	b.state(clean, 500*sec, trace.StateForeground)
	b.pkt(clean, 510*sec, trace.StateForeground, 1000, false)
	b.state(clean, 520*sec, trace.StateBackground)
	devs := []*DeviceData{b.load(t)}
	shares := BrowserShares(devs, []string{"com.leaky", "com.clean", "com.absent"})
	if shares["com.leaky"] < 0.3 {
		t.Errorf("leaky share = %v", shares["com.leaky"])
	}
	if shares["com.clean"] != 0 {
		t.Errorf("clean share = %v", shares["com.clean"])
	}
	if shares["com.absent"] != 0 {
		t.Errorf("absent share = %v", shares["com.absent"])
	}
}

func TestTimeline(t *testing.T) {
	b := newBuilder("d0")
	a := b.app("com.chrome")
	b.state(a, 100*sec, trace.StateForeground)
	b.pkt(a, 110*sec, trace.StateForeground, 5000, false)
	b.state(a, 200*sec, trace.StateBackground)
	for i := 0; i < 10; i++ {
		b.pkt(a, trace.Timestamp(210+i*30)*sec, trace.StateBackground, 2000, true)
	}
	devs := []*DeviceData{b.load(t)}
	res, ok := Timeline(devs, "com.chrome", 120, 600, 10)
	if !ok {
		t.Fatal("no transition found")
	}
	if res.Transition != 200*sec {
		t.Errorf("transition = %v", res.Transition)
	}
	if len(res.Offsets) != int((120+600)/10) {
		t.Errorf("bins = %d", len(res.Offsets))
	}
	var pre, post float64
	for i, off := range res.Offsets {
		if off < 120 {
			pre += res.Bytes[i]
		} else {
			post += res.Bytes[i]
		}
	}
	if pre == 0 || post == 0 {
		t.Errorf("pre=%v post=%v", pre, post)
	}
	if post < pre {
		t.Errorf("leak traffic should dominate: pre=%v post=%v", pre, post)
	}
	if _, ok := Timeline(devs, "com.missing", 120, 600, 10); ok {
		t.Error("missing app should report not found")
	}
}

func TestCaseStudiesTable(t *testing.T) {
	b := newBuilder("d0")
	a := b.app("com.poller")
	b.state(a, 0, trace.StateService)
	// 20 polls, 300 s apart, same connection in pairs (10 flows by port
	// rotation every 2 polls).
	for i := 0; i < 20; i++ {
		b.pkt(a, trace.Timestamp(10+i*300)*sec, trace.StateService, 5000, i%2 == 1)
	}
	devs := []*DeviceData{b.load(t)}
	rows := CaseStudies(devs, []string{"com.poller", "com.absent"}, []string{"Poller", ""})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Label != "Poller" {
		t.Errorf("label = %q", r.Label)
	}
	if r.Flows != 10 {
		t.Errorf("flows = %d", r.Flows)
	}
	if r.ActiveDays != 1 {
		t.Errorf("active days = %d", r.ActiveDays)
	}
	if r.JPerDay <= 0 || r.JPerFlow <= 0 || r.UJPerByte <= 0 {
		t.Errorf("row = %+v", r)
	}
	if r.Period.Seconds < 250 || r.Period.Seconds > 350 {
		t.Errorf("period = %v", r.Period.Seconds)
	}
	if !r.Period.IsPeriodic() {
		t.Error("poller not detected as periodic")
	}
	if rows[1].Flows != 0 || rows[1].JPerDay != 0 {
		t.Errorf("absent app row = %+v", rows[1])
	}
}

func TestComputeHeadlineOnHandTrace(t *testing.T) {
	b := newBuilder("d0")
	a := b.app("com.a")
	b.state(a, 0, trace.StateForeground)
	b.pkt(a, 10*sec, trace.StateForeground, 100, false)
	b.pkt(a, 100*sec, trace.StateService, 100, false)
	devs := []*DeviceData{b.load(t)}
	h := ComputeHeadline(devs)
	if h.TotalEnergyJ <= 0 {
		t.Error("no energy")
	}
	if h.BackgroundFraction <= 0 || h.BackgroundFraction >= 1 {
		t.Errorf("bg fraction = %v", h.BackgroundFraction)
	}
}

func TestMergedLedger(t *testing.T) {
	mk := func(dev string) *DeviceData {
		b := newBuilder(dev)
		a := b.app("com.a")
		b.state(a, 0, trace.StateService)
		b.pkt(a, 10*sec, trace.StateService, 1000, false)
		return b.load(t)
	}
	devs := []*DeviceData{mk("d0"), mk("d1")}
	m := MergedLedger(devs)
	want := devs[0].Energy.Ledger.Total + devs[1].Energy.Ledger.Total
	if m.Total != want {
		t.Errorf("merged total = %v, want %v", m.Total, want)
	}
}

// pktHTTP emits a packet with an HTTP request prefix toward host.
func (b *builder) pktHTTP(app uint32, ts trace.Timestamp, st trace.ProcState, host string, bytes int, samePort bool) {
	if !samePort {
		b.port++
	}
	req := []byte("GET /r HTTP/1.1\r\nHost: " + host + "\r\n")
	buf := make([]byte, 4096)
	stored, _, err := netparse.BuildTCPv4SnappedPayload(buf, [4]byte{10, 0, 0, 1}, [4]byte{23, 1, 2, 3},
		b.port, 443, 0, netparse.TCPAck|netparse.TCPPsh, req, bytes, 96)
	if err != nil {
		panic(err)
	}
	b.dt.Records = append(b.dt.Records, trace.Record{
		Type: trace.RecPacket, TS: ts, App: app, Dir: trace.DirUp,
		Net: trace.NetCellular, State: st, Payload: buf[:stored],
	})
}

func TestHostBreakdown(t *testing.T) {
	b := newBuilder("d0")
	a := b.app("com.browser")
	b.state(a, 0, trace.StateForeground)
	// Foreground page load to a content host.
	b.pktHTTP(a, 10*sec, trace.StateForeground, "www-000abc.content.example", 5000, false)
	b.state(a, 20*sec, trace.StateBackground)
	// Background leak: 3 requests to an ad host, 2 to analytics.
	for i := 0; i < 3; i++ {
		b.pktHTTP(a, trace.Timestamp(100+i*30)*sec, trace.StateBackground, "pix.adserver.example", 2000, i > 0)
	}
	for i := 0; i < 2; i++ {
		b.pktHTTP(a, trace.Timestamp(400+i*30)*sec, trace.StateBackground, "t.metrics.example", 1000, i > 0)
	}
	devs := []*DeviceData{b.load(t)}

	bg := HostBreakdown(devs, "com.browser", true)
	if len(bg.Hosts) != 2 {
		t.Fatalf("bg hosts = %+v", bg.Hosts)
	}
	var ads, analytics HostStat
	for _, h := range bg.Hosts {
		switch h.Host {
		case "pix.adserver.example":
			ads = h
		case "t.metrics.example":
			analytics = h
		}
	}
	if ads.Requests != 3 || analytics.Requests != 2 {
		t.Errorf("requests: ads=%d analytics=%d", ads.Requests, analytics.Requests)
	}
	if bg.ThirdPartyShare() < 0.99 {
		t.Errorf("third-party share = %v, want ~1 (all bg traffic is 3rd party)", bg.ThirdPartyShare())
	}

	all := HostBreakdown(devs, "com.browser", false)
	if len(all.Hosts) != 3 {
		t.Fatalf("all hosts = %+v", all.Hosts)
	}
	if all.ThirdPartyShare() > 0.9 {
		t.Errorf("with fg content included, third-party share = %v", all.ThirdPartyShare())
	}
}

func TestHostBreakdownResponsesInheritFlowHost(t *testing.T) {
	b := newBuilder("d0")
	a := b.app("com.app")
	b.state(a, 0, trace.StateService)
	// Request with host, then a continuation packet on the same flow
	// without any HTTP prefix.
	b.pktHTTP(a, 10*sec, trace.StateService, "api.svc.content.example", 1000, false)
	b.pkt(a, 11*sec, trace.StateService, 50000, true)
	devs := []*DeviceData{b.load(t)}
	res := HostBreakdown(devs, "com.app", false)
	if len(res.Hosts) != 1 {
		t.Fatalf("hosts = %+v", res.Hosts)
	}
	if res.Hosts[0].Bytes < 50000 {
		t.Errorf("continuation bytes not attributed: %+v", res.Hosts[0])
	}
	if res.UnattributedBytes != 0 {
		t.Errorf("unattributed = %d", res.UnattributedBytes)
	}
}

func TestHostBreakdownUnattributed(t *testing.T) {
	b := newBuilder("d0")
	a := b.app("com.app")
	b.state(a, 0, trace.StateService)
	b.pkt(a, 10*sec, trace.StateService, 3000, false) // no HTTP prefix at all
	devs := []*DeviceData{b.load(t)}
	res := HostBreakdown(devs, "com.app", false)
	if len(res.Hosts) != 0 || res.UnattributedBytes == 0 {
		t.Errorf("res = %+v", res)
	}
}

func (b *builder) screen(ts trace.Timestamp, on bool) {
	b.dt.Records = append(b.dt.Records, trace.Record{Type: trace.RecScreen, TS: ts, ScreenOn: on})
}

func TestScreenOnAt(t *testing.T) {
	b := newBuilder("d0")
	a := b.app("com.a")
	b.state(a, 0, trace.StateService)
	b.pkt(a, 5*sec, trace.StateService, 100, false)
	b.screen(10*sec, true)
	b.screen(20*sec, false)
	b.screen(30*sec, true) // still on at trace end
	b.pkt(a, 40*sec, trace.StateService, 100, false)
	dd := b.load(t)
	cases := []struct {
		ts   trace.Timestamp
		want bool
	}{
		{5 * sec, false}, {10 * sec, true}, {15 * sec, true},
		{20 * sec, false}, {25 * sec, false}, {35 * sec, true},
	}
	for _, c := range cases {
		if got := dd.ScreenOnAt(c.ts); got != c.want {
			t.Errorf("ScreenOnAt(%d) = %v, want %v", c.ts/sec, got, c.want)
		}
	}
}

func TestScreenOff(t *testing.T) {
	b := newBuilder("d0")
	a := b.app("com.night")
	bb := b.app("com.day")
	b.state(a, 0, trace.StateService)
	b.state(bb, 0, trace.StateService)
	b.screen(100*sec, true)
	b.screen(200*sec, false)
	// com.day's packet while screen on; com.night's two while off.
	b.pkt(bb, 150*sec, trace.StateService, 1000, false)
	b.pkt(a, 300*sec, trace.StateService, 1000, false)
	b.pkt(a, 400*sec, trace.StateService, 1000, false)
	devs := []*DeviceData{b.load(t)}
	res := ScreenOff(devs, 5)
	if res.OffBytes <= res.OnBytes {
		t.Errorf("off=%d on=%d", res.OffBytes, res.OnBytes)
	}
	if f := res.OffByteFraction(); f < 0.6 || f > 0.7 {
		t.Errorf("off byte fraction = %v", f)
	}
	if res.OffEnergyFraction() <= 0.5 {
		t.Errorf("off energy fraction = %v", res.OffEnergyFraction())
	}
	if len(res.TopOffApps) == 0 || res.TopOffApps[0].App != "com.night" {
		t.Errorf("top off apps = %+v", res.TopOffApps)
	}
}

func TestScreenOffEmpty(t *testing.T) {
	res := ScreenOff(nil, 5)
	if res.OffByteFraction() != 0 || res.OffEnergyFraction() != 0 {
		t.Error("empty fleet should have zero fractions")
	}
}

// pktSeq emits a packet with an explicit TCP sequence number.
func (b *builder) pktSeq(app uint32, ts trace.Timestamp, st trace.ProcState, bytes int, seq uint32, samePort bool) {
	if !samePort {
		b.port++
	}
	buf := make([]byte, 96)
	stored, _, err := netparse.BuildTCPv4Snapped(buf, [4]byte{10, 0, 0, 1}, [4]byte{23, 1, 2, 3},
		b.port, 443, seq, netparse.TCPAck, bytes, 96)
	if err != nil {
		panic(err)
	}
	b.dt.Records = append(b.dt.Records, trace.Record{
		Type: trace.RecPacket, TS: ts, App: app, Dir: trace.DirUp,
		Net: trace.NetCellular, State: st, Payload: buf[:stored],
	})
}

func TestRetransmissions(t *testing.T) {
	b := newBuilder("d0")
	a := b.app("com.lossy")
	b.state(a, 0, trace.StateService)
	// 1000-byte payloads: seq 0, 1000 (new), then 1000 again (retrans),
	// then 2000 (new).
	b.pktSeq(a, 10*sec, trace.StateService, 1000, 0, false)
	b.pktSeq(a, 11*sec, trace.StateService, 1000, 1000, true)
	b.pktSeq(a, 12*sec, trace.StateService, 1000, 1000, true)
	b.pktSeq(a, 13*sec, trace.StateService, 1000, 2000, true)
	devs := []*DeviceData{b.load(t)}
	res := Retransmissions(devs, 5)
	if res.Total.Retrans != 1000 {
		t.Errorf("retrans bytes = %d", res.Total.Retrans)
	}
	if res.Total.Goodput != 3000 {
		t.Errorf("goodput = %d", res.Total.Goodput)
	}
	if res.WastedEnergyJ <= 0 {
		t.Error("no wasted energy attributed")
	}
	if len(res.PerApp) != 1 || res.PerApp[0].App != "com.lossy" {
		t.Fatalf("per app = %+v", res.PerApp)
	}
	if f := res.PerApp[0].Fraction(); f < 0.24 || f > 0.26 {
		t.Errorf("app retrans fraction = %v", f)
	}
}

func TestRetransmissionsDirectionsSeparate(t *testing.T) {
	// The same sequence numbers in opposite directions must not collide.
	b := newBuilder("d0")
	a := b.app("com.app")
	b.state(a, 0, trace.StateService)
	b.pktSeq(a, 10*sec, trace.StateService, 500, 0, false)
	// Down-direction packet, same tuple and seq.
	buf := make([]byte, 96)
	stored, _, err := netparse.BuildTCPv4Snapped(buf, [4]byte{23, 1, 2, 3}, [4]byte{10, 0, 0, 1},
		443, b.port, 0, netparse.TCPAck, 500, 96)
	if err != nil {
		t.Fatal(err)
	}
	b.dt.Records = append(b.dt.Records, trace.Record{
		Type: trace.RecPacket, TS: 11 * sec, App: a, Dir: trace.DirDown,
		Net: trace.NetCellular, State: trace.StateService, Payload: buf[:stored],
	})
	devs := []*DeviceData{b.load(t)}
	res := Retransmissions(devs, 5)
	if res.Total.Retrans != 0 {
		t.Errorf("cross-direction segments misclassified as retrans: %+v", res.Total)
	}
}

func TestWeekly(t *testing.T) {
	b := newBuilder("d0")
	a := b.app("com.a")
	b.state(a, 0, trace.StateService)
	day := trace.Timestamp(86400) * sec
	// Week 0: 2 isolated bursts; week 1: 6; week 2: 2.
	for i := 0; i < 2; i++ {
		b.pkt(a, trace.Timestamp(i)*day+10*sec, trace.StateService, 500, false)
	}
	for i := 0; i < 6; i++ {
		b.pkt(a, 7*day+trace.Timestamp(i)*3600*sec, trace.StateService, 500, false)
	}
	for i := 0; i < 2; i++ {
		b.pkt(a, 14*day+trace.Timestamp(i)*3600*sec, trace.StateService, 500, false)
	}
	// Week 3 exists so the week-1 -> week-2 transition is interior.
	b.pkt(a, 21*day+10*sec, trace.StateService, 500, false)
	devs := []*DeviceData{b.load(t)}
	res := Weekly(devs)
	if len(res.Weeks) != 4 {
		t.Fatalf("weeks = %v", res.Weeks)
	}
	if res.Weeks[1] < 2*res.Weeks[0] {
		t.Errorf("week 1 (%v) should dwarf week 0 (%v)", res.Weeks[1], res.Weeks[0])
	}
	if res.MaxWeekOverWeekChange <= 0 {
		t.Errorf("fluctuation = %v", res.MaxWeekOverWeekChange)
	}
}

func TestWeeklyEmpty(t *testing.T) {
	res := Weekly(nil)
	if len(res.Weeks) != 0 || res.MaxWeekOverWeekChange != 0 {
		t.Errorf("empty trend = %+v", res)
	}
}

// compareNetworksOracle is the comparison as it was computed before Load
// owned it: both interfaces replayed from scratch, the cellular one for a
// second time. Kept as the reference Load's one-replay-per-network result
// must equal bit for bit.
func compareNetworksOracle(dts []*trace.DeviceTrace) (NetworkComparison, error) {
	var out NetworkComparison
	for _, dt := range dts {
		cell := energy.DefaultOptions()
		cell.KeepPackets = false
		resC, err := energy.Process(dt, cell)
		if err != nil {
			return out, err
		}
		wifi := energy.DefaultOptions()
		wifi.KeepPackets = false
		wifi.Network = trace.NetWiFi
		wifi.Radio = radio.WiFi()
		resW, err := energy.Process(dt, wifi)
		if err != nil {
			return out, err
		}
		out.CellularJ += resC.Ledger.Total
		out.WiFiJ += resW.Ledger.Total
		for _, b := range resC.Ledger.BytesByApp {
			out.CellularBytes += b
		}
		for _, b := range resW.Ledger.BytesByApp {
			out.WiFiBytes += b
		}
	}
	return out, nil
}

func TestCompareNetworks(t *testing.T) {
	mixed := newBuilder("d0")
	a := mixed.app("com.a")
	mixed.state(a, 0, trace.StateService)
	// Identical burst patterns on each interface.
	for i := 0; i < 5; i++ {
		mixed.pkt(a, trace.Timestamp(100+i*60)*sec, trace.StateService, 2000, false)
	}
	cellOnly := newBuilder("d1")
	cellOnly.dt.Records = append(cellOnly.dt.Records, mixed.dt.Records...)
	// Clone the last five packets as WiFi.
	n := len(mixed.dt.Records)
	for i := n - 5; i < n; i++ {
		r := mixed.dt.Records[i]
		r.Net = trace.NetWiFi
		r.TS += 1000 * sec
		mixed.dt.Records = append(mixed.dt.Records, r)
	}
	res := mixed.load(t).Networks
	if res.CellularBytes != res.WiFiBytes {
		t.Errorf("bytes differ: %d vs %d", res.CellularBytes, res.WiFiBytes)
	}
	if res.Ratio() < 20 {
		t.Errorf("cellular/wifi ratio = %v, want >>1 for intermittent bursts", res.Ratio())
	}

	wifiOpts := energy.DefaultOptions()
	wifiOpts.Network, wifiOpts.Radio = trace.NetWiFi, radio.WiFi()
	for _, b := range []*builder{mixed, cellOnly, newBuilder("empty")} {
		b.dt.SortByTime()
		want, err := compareNetworksOracle([]*trace.DeviceTrace{b.dt})
		if err != nil {
			t.Fatal(err)
		}
		if b == cellOnly && (want.CellularJ == 0 || want.WiFiJ != 0 || want.WiFiBytes != 0) {
			t.Fatalf("%s: oracle = %+v, want a cellular side only", b.dt.Device, want)
		}
		// Whichever interface Load itself replays, the other is replayed
		// once and the pair reads the same.
		for _, opts := range []energy.Options{energy.DefaultOptions(), wifiOpts} {
			dd, err := Load(b.dt, opts)
			if err != nil {
				t.Fatal(err)
			}
			if dd.Networks != want {
				t.Errorf("%s (Load on %v): Networks = %+v, the double replay gave %+v",
					b.dt.Device, opts.Network, dd.Networks, want)
			}
		}
	}
}

func TestDNSAnalysis(t *testing.T) {
	b := newBuilder("d0")
	a := b.app("com.a")
	b.state(a, 0, trace.StateService)
	// An isolated DNS lookup (wakes the radio), then a TCP burst, then a
	// DNS lookup inside the burst's tail (does not wake).
	addDNS := func(ts trace.Timestamp, up bool) {
		buf := make([]byte, 256)
		var n int
		var err error
		if up {
			n, err = netparse.BuildUDPv4(buf, [4]byte{10, 0, 0, 1}, [4]byte{198, 51, 100, 53}, 40001, 53, 40)
		} else {
			n, err = netparse.BuildUDPv4(buf, [4]byte{198, 51, 100, 53}, [4]byte{10, 0, 0, 1}, 53, 40001, 120)
		}
		if err != nil {
			t.Fatal(err)
		}
		dir := trace.DirUp
		if !up {
			dir = trace.DirDown
		}
		b.dt.Records = append(b.dt.Records, trace.Record{
			Type: trace.RecPacket, TS: ts, App: a, Dir: dir,
			Net: trace.NetCellular, State: trace.StateService, Payload: buf[:n],
		})
	}
	addDNS(10*sec, true)
	addDNS(10*sec+sec/10, false)
	b.pkt(a, 11*sec, trace.StateService, 5000, false)
	addDNS(13*sec, true) // within the TCP burst's tail
	addDNS(13*sec+sec/10, false)
	devs := []*DeviceData{b.load(t)}
	res := DNS(devs, radioLTE())
	if res.Lookups != 2 {
		t.Fatalf("lookups = %d", res.Lookups)
	}
	if res.WakeLookups != 1 {
		t.Errorf("wake lookups = %d, want 1", res.WakeLookups)
	}
	if res.WakeFraction() != 0.5 {
		t.Errorf("wake fraction = %v", res.WakeFraction())
	}
	if res.Bytes == 0 || res.Energy <= 0 {
		t.Errorf("dns bytes/energy: %+v", res)
	}
}

func TestTimelinePowerOverlay(t *testing.T) {
	b := newBuilder("d0")
	a := b.app("com.chrome")
	b.state(a, 100*sec, trace.StateForeground)
	b.pkt(a, 110*sec, trace.StateForeground, 5000, false)
	b.state(a, 200*sec, trace.StateBackground)
	for i := 0; i < 5; i++ {
		b.pkt(a, trace.Timestamp(210+i*30)*sec, trace.StateBackground, 2000, true)
	}
	devs := []*DeviceData{b.load(t)}
	res, ok := Timeline(devs, "com.chrome", 60, 300, 10)
	if !ok {
		t.Fatal("no transition")
	}
	if len(res.PowerW) != len(res.Offsets) {
		t.Fatalf("power bins = %d, offsets = %d", len(res.PowerW), len(res.Offsets))
	}
	// Power must be positive in bins right after each burst (tail) and
	// bounded by the LTE peak (~3.8 W during uplink transfer).
	var peak, total float64
	for _, p := range res.PowerW {
		if p < 0 {
			t.Fatalf("negative power: %v", res.PowerW)
		}
		if p > peak {
			peak = p
		}
		total += p
	}
	if total == 0 {
		t.Fatal("power overlay all zero")
	}
	if peak > 4.0 {
		t.Errorf("peak mean power = %v W, above any LTE state", peak)
	}
	// Tail bins (~1.06 W) should exist right after the bursts.
	sawTail := false
	for i, off := range res.Offsets {
		if off >= 60 && res.PowerW[i] > 0.9 && res.PowerW[i] < 1.4 {
			sawTail = true
		}
	}
	if !sawTail {
		t.Errorf("no tail-level power bins: %v", res.PowerW)
	}
}
