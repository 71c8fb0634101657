package appmodel

import (
	"bytes"
	"strings"
	"testing"

	"netenergy/internal/netparse"
	"netenergy/internal/rng"
	"netenergy/internal/trace"
)

const sec = trace.Timestamp(1_000_000)
const day = 86400 * sec

func newGen(seed uint64) (*Gen, *trace.DeviceTrace) {
	dt := &trace.DeviceTrace{Device: "t", Start: 0, Apps: trace.NewAppTable()}
	return NewGen(dt, rng.New(seed)), dt
}

// decodeAll parses every packet record with a snap-aware parser, failing the
// test on any decode error.
func decodeAll(t *testing.T, dt *trace.DeviceTrace) (packets int, bytes int64) {
	t.Helper()
	p := new(netparse.Parser)
	for i := range dt.Records {
		r := &dt.Records[i]
		if r.Type != trace.RecPacket {
			continue
		}
		d, err := p.DecodePacket(r.Payload)
		if err != nil {
			t.Fatalf("record %d undecodable: %v", i, err)
		}
		packets++
		bytes += int64(d.WireLen)
	}
	return packets, bytes
}

func TestEmitBurstSegmentsAndDecodes(t *testing.T) {
	g, dt := newGen(1)
	conn := g.NewConn(ServerIP(7), 443)
	end := g.EmitHTTPBurst(5, 100*sec, trace.StateService, conn, nil, 1000, 150000)
	if end <= 100*sec {
		t.Error("burst end did not advance")
	}
	n, bytes := decodeAll(t, dt)
	// 1 up packet + ceil(150000/60000)=3 down packets.
	if n != 4 {
		t.Errorf("packets = %d, want 4", n)
	}
	// Wire bytes = payloads + 40 B of headers each.
	if want := int64(1000 + 150000 + 4*40); bytes != want {
		t.Errorf("wire bytes = %d, want %d", bytes, want)
	}
	// Stored records are snapped.
	for i := range dt.Records {
		if r := &dt.Records[i]; r.Type == trace.RecPacket && len(r.Payload) > DefaultSnaplen {
			t.Errorf("record %d stored %d bytes > snaplen", i, len(r.Payload))
		}
	}
}

func TestEmitBurstTimestampsOrdered(t *testing.T) {
	g, dt := newGen(2)
	conn := g.NewConn(ServerIP(9), 443)
	g.EmitHTTPBurst(1, 0, trace.StateService, conn, nil, 500, 500000)
	var prev trace.Timestamp = -1
	for i := range dt.Records {
		r := &dt.Records[i]
		if r.TS < prev {
			t.Fatalf("timestamps regress at record %d", i)
		}
		prev = r.TS
	}
}

func TestConnRotationChangesTuple(t *testing.T) {
	g, _ := newGen(3)
	c1 := g.NewConn(ServerIP(1), 443)
	c2 := g.NewConn(ServerIP(1), 443)
	if c1.LocalPort == c2.LocalPort {
		t.Error("connections share a local port")
	}
}

func TestPeriodicPollerCadence(t *testing.T) {
	g, dt := newGen(4)
	pp := &PeriodicPoller{
		Period: 600, Jitter: 0.1, UpBytes: 1000, DownBytes: 5000,
		UpdatesPerConn: 4, BgState: trace.StateService,
	}
	pp.Generate(g, 1, nil, 0, day)
	n, _ := decodeAll(t, dt)
	// ~144 updates/day, 2+ packets each.
	if n < 200 || n > 600 {
		t.Errorf("packet count = %d", n)
	}
	// All background-state packets labelled service.
	for i := range dt.Records {
		if r := &dt.Records[i]; r.Type == trace.RecPacket && r.State != trace.StateService {
			t.Errorf("record %d state = %v", i, r.State)
		}
	}
	// Initial procstate event present for a session-less service.
	if dt.Records[0].Type != trace.RecProcState || dt.Records[0].State != trace.StateService {
		t.Errorf("first record = %v", dt.Records[0])
	}
}

func TestPeriodicPollerPeriodSwitch(t *testing.T) {
	g, dt := newGen(5)
	pp := &PeriodicPoller{
		Period: 300, Period2: 3600, SwitchFrac: 0.5, Jitter: 0.05,
		UpBytes: 500, DownBytes: 500, UpdatesPerConn: 1, BgState: trace.StateService,
	}
	pp.Generate(g, 1, nil, 0, 10*day)
	// Count bursts per half.
	var firstHalf, secondHalf int
	for i := range dt.Records {
		r := &dt.Records[i]
		if r.Type != trace.RecPacket || r.Dir != trace.DirUp {
			continue
		}
		if r.TS < 5*day {
			firstHalf++
		} else {
			secondHalf++
		}
	}
	if firstHalf < 5*secondHalf {
		t.Errorf("period switch not visible: %d vs %d", firstHalf, secondHalf)
	}
}

func TestPeriodicPollerSessionsLabelForeground(t *testing.T) {
	g, dt := newGen(6)
	sessions := []Session{{Start: 1000 * sec, End: 2000 * sec}}
	pp := &PeriodicPoller{
		Period: 100, Jitter: 0.05, UpBytes: 500, DownBytes: 500,
		UpdatesPerConn: 1, BgState: trace.StateService,
		Sessions: SessionCfg{BurstPeriod: 50, BurstUp: 500, BurstDown: 1000,
			BgState: trace.StateService, Residual: ResidualCfg{Bursts: 1, Window: 10, Up: 500, Down: 500}},
	}
	pp.Generate(g, 1, sessions, 0, 4000*sec)
	sawFgPoll, sawBgPoll, sawLaunch := false, false, false
	for i := range dt.Records {
		r := &dt.Records[i]
		switch r.Type {
		case trace.RecPacket:
			in := r.TS >= 1000*sec && r.TS < 2000*sec
			if in && r.State == trace.StateForeground {
				sawFgPoll = true
			}
			if !in && r.State == trace.StateService && r.TS > 2100*sec {
				sawBgPoll = true
			}
		case trace.RecUIEvent:
			if r.UIKind == trace.UILaunch {
				sawLaunch = true
			}
		}
	}
	if !sawFgPoll || !sawBgPoll || !sawLaunch {
		t.Errorf("fgPoll=%v bgPoll=%v launch=%v", sawFgPoll, sawBgPoll, sawLaunch)
	}
}

func TestPeriodicPollerDailyKill(t *testing.T) {
	g, dt := newGen(7)
	pp := &PeriodicPoller{
		Period: 600, Jitter: 0.05, UpBytes: 500, DownBytes: 500,
		UpdatesPerConn: 1, BgState: trace.StateService, DailyKillProb: 1.0,
	}
	// No sessions: once killed (first midnight), silence forever.
	pp.Generate(g, 1, nil, 0, 10*day)
	var lastPacket trace.Timestamp
	for i := range dt.Records {
		if r := &dt.Records[i]; r.Type == trace.RecPacket {
			lastPacket = r.TS
		}
	}
	if lastPacket >= day+sec {
		t.Errorf("polling continued past guaranteed kill: last at %v", lastPacket)
	}
}

func TestStreamerStates(t *testing.T) {
	g, dt := newGen(8)
	st := &Streamer{ChunkPeriod: 60, ChunkBytes: 1000000, InitialBytes: 500000}
	st.Generate(g, 1, []Session{{Start: 0, End: 1800 * sec}}, 0, day)
	n, bytes := decodeAll(t, dt)
	if n == 0 {
		t.Fatal("no packets")
	}
	if bytes < 10_000_000 {
		t.Errorf("streamed only %d bytes", bytes)
	}
	sawPerceptible := false
	for i := range dt.Records {
		if r := &dt.Records[i]; r.Type == trace.RecPacket && r.State == trace.StatePerceptible {
			sawPerceptible = true
		}
	}
	if !sawPerceptible {
		t.Error("no perceptible-state packets during playback")
	}
}

func TestPodcastWholeVsChunked(t *testing.T) {
	bursts := func(chunked bool) int {
		g, dt := newGen(9)
		p := &Podcast{CheckPeriod: 0, EpisodesPday: 100, EpisodeBytes: 30000000}
		if chunked {
			p.ChunkBytes = 2000000
			p.ChunkPeriod = 600
		}
		p.Generate(g, 1, nil, 0, day)
		// Count up-direction packets as burst starts.
		n := 0
		for i := range dt.Records {
			if r := &dt.Records[i]; r.Type == trace.RecPacket && r.Dir == trace.DirUp {
				n++
			}
		}
		return n
	}
	whole, chunked := bursts(false), bursts(true)
	if chunked < 5*whole {
		t.Errorf("chunked bursts (%d) should dwarf whole-episode bursts (%d)", chunked, whole)
	}
}

func TestBrowserLeak(t *testing.T) {
	leakPackets := func(prob float64) int {
		g, dt := newGen(10)
		b := &Browser{
			PageLoadPeriod: 30, PageUpBytes: 2000, PageDownBytes: 100000,
			LeakProb: prob, LeakPeriod: 5, LeakUpBytes: 500, LeakDownBytes: 2000,
			LeakMedian: 600, LeakSigma: 1.0,
		}
		b.Generate(g, 1, []Session{{Start: 0, End: 300 * sec}}, 0, day)
		n := 0
		for i := range dt.Records {
			// Leak traffic: background-state packets well after the
			// residual window.
			if r := &dt.Records[i]; r.Type == trace.RecPacket &&
				r.State == trace.StateBackground && r.TS > 400*sec {
				n++
			}
		}
		return n
	}
	if got := leakPackets(0); got != 0 {
		t.Errorf("non-leaky browser leaked %d packets", got)
	}
	if got := leakPackets(1); got < 10 {
		t.Errorf("leaky browser produced only %d leak packets", got)
	}
}

func TestBrowserLeakStopsAtNextSession(t *testing.T) {
	g, dt := newGen(11)
	b := &Browser{
		PageLoadPeriod: 1e12, // no page loads, isolate the leak
		LeakProb:       1, LeakPeriod: 5, LeakUpBytes: 500, LeakDownBytes: 500,
		LeakMedian: 1e6, LeakSigma: 0.01, // essentially infinite
	}
	sessions := []Session{
		{Start: 0, End: 100 * sec},
		{Start: 2000 * sec, End: 2100 * sec},
	}
	b.Generate(g, 1, sessions, 0, day)
	for i := range dt.Records {
		r := &dt.Records[i]
		if r.Type == trace.RecPacket && r.State == trace.StateBackground &&
			r.TS > 2000*sec && r.TS < 2100*sec {
			t.Fatalf("leak continued into the next foreground session at %v", r.TS)
		}
	}
}

func TestGenericResidualFirstMinute(t *testing.T) {
	g, dt := newGen(12)
	a := &Generic{
		BurstPeriod: 20, BurstUp: 1000, BurstDown: 50000,
		Residual: ResidualCfg{Bursts: 2, Window: 20, Up: 1000, Down: 20000},
	}
	a.Generate(g, 1, []Session{{Start: 0, End: 120 * sec}}, 0, day)
	var bgFirstMin, bgLater int64
	for i := range dt.Records {
		r := &dt.Records[i]
		if r.Type != trace.RecPacket || !r.State.IsBackground() {
			continue
		}
		if r.TS <= 180*sec {
			bgFirstMin += int64(len(r.Payload))
		} else {
			bgLater += int64(len(r.Payload))
		}
	}
	if bgFirstMin == 0 {
		t.Error("no residual traffic after backgrounding")
	}
	if bgLater > 0 {
		t.Errorf("generic app sent %d bg bytes long after backgrounding", bgLater)
	}
}

func TestProfilesSane(t *testing.T) {
	all := AllProfiles()
	if len(all) != 342 {
		t.Errorf("profile count = %d, want 342", len(all))
	}
	seen := map[string]bool{}
	for i := range all {
		p := &all[i]
		if p.Package == "" || p.Behavior == nil {
			t.Errorf("profile %d incomplete: %+v", i, p)
		}
		if seen[p.Package] {
			t.Errorf("duplicate package %s", p.Package)
		}
		seen[p.Package] = true
		if p.InstallProb <= 0 || p.InstallProb > 1 {
			t.Errorf("%s install prob %v", p.Label, p.InstallProb)
		}
		if !p.NeverForeground && p.SessionsPerDay <= 0 {
			t.Errorf("%s has no sessions but is foregroundable", p.Label)
		}
	}
}

func TestCaseStudyProfilesGenerate(t *testing.T) {
	// Every named behaviour must generate decodable traffic without panics.
	for _, prof := range CaseStudies() {
		prof := prof
		t.Run(prof.Label, func(t *testing.T) {
			g, dt := newGen(99)
			// Device-level activity windows (for ActiveOnly behaviours).
			for h := trace.Timestamp(0); h < 48; h += 2 {
				g.ActivePeriods = append(g.ActivePeriods,
					Session{Start: h * 3600 * sec, End: h*3600*sec + 900*sec})
			}
			var sessions []Session
			if !prof.NeverForeground {
				sessions = []Session{
					{Start: 3600 * sec, End: 3600*sec + trace.Timestamp(prof.SessionMean)*sec},
					{Start: 10 * 3600 * sec, End: 10*3600*sec + trace.Timestamp(prof.SessionMean)*sec},
				}
			}
			prof.Behavior.Generate(g, 1, sessions, 0, 2*day)
			dt.SortByTime()
			n, _ := decodeAll(t, dt)
			if n == 0 {
				t.Error("profile generated no packets")
			}
		})
	}
}

func TestServerIPPublic(t *testing.T) {
	ip := ServerIP(12345)
	if ip[0] != 23 {
		t.Errorf("server IP = %v", ip)
	}
	if ServerIP(1) == ServerIP(2) {
		t.Error("distinct seeds should give distinct servers")
	}
}

func TestActiveOnlyPollerSkipsIdleTime(t *testing.T) {
	runWidget := func(active []Session) int {
		g, dt := newGen(20)
		g.ActivePeriods = active
		pp := &PeriodicPoller{
			Period: 300, Jitter: 0.05, UpBytes: 500, DownBytes: 500,
			UpdatesPerConn: 1, BgState: trace.StateService, ActiveOnly: true,
		}
		pp.Generate(g, 1, nil, 0, day)
		n := 0
		for i := range dt.Records {
			if dt.Records[i].Type == trace.RecPacket {
				n++
			}
		}
		return n
	}
	// No activity at all: the widget never refreshes.
	if n := runWidget(nil); n != 0 {
		t.Errorf("idle device widget sent %d packets", n)
	}
	// Two 1-hour active windows: ~24 refresh opportunities.
	active := []Session{
		{Start: 9 * 3600 * sec, End: 10 * 3600 * sec},
		{Start: 18 * 3600 * sec, End: 19 * 3600 * sec},
	}
	n := runWidget(active)
	if n < 10 || n > 80 {
		t.Errorf("active-window widget packets = %d, want ~24 bursts", n)
	}
}

func TestAlignToBackgroundPhaseLock(t *testing.T) {
	g, dt := newGen(21)
	sessions := []Session{{Start: 1000 * sec, End: 1600 * sec}}
	pp := &PeriodicPoller{
		Period: 300, UpBytes: 400, DownBytes: 400,
		UpdatesPerConn: 1, BgState: trace.StateService,
		AlignToBackground: true,
	}
	pp.Generate(g, 1, sessions, 0, 4000*sec)
	// After the session ends at t=1600, polls must land near exact
	// multiples of 300 s from the session end.
	for i := range dt.Records {
		r := &dt.Records[i]
		if r.Type != trace.RecPacket || r.Dir != trace.DirUp || r.TS <= 1600*sec {
			continue
		}
		off := r.TS.Sub(1600 * sec)
		k := int(off/300 + 0.5)
		if k < 1 {
			continue
		}
		drift := off - float64(k)*300
		if drift < -30 || drift > 30 {
			t.Errorf("poll at +%.0f s drifts %.0f s from the %d x 300 s phase", off, drift, k)
		}
	}
}

func TestDeviceActiveSlack(t *testing.T) {
	g, _ := newGen(22)
	g.ActivePeriods = []Session{{Start: 1000 * sec, End: 2000 * sec}}
	cases := []struct {
		ts    trace.Timestamp
		slack float64
		want  bool
	}{
		{1500 * sec, 0, true},
		{900 * sec, 0, false},
		{900 * sec, 120, true},
		{2100 * sec, 120, true},
		{2200 * sec, 120, false},
		{100 * sec, 0, false},
	}
	for _, c := range cases {
		if got := g.DeviceActive(c.ts, c.slack); got != c.want {
			t.Errorf("DeviceActive(%d, %v) = %v, want %v", c.ts, c.slack, got, c.want)
		}
	}
}

func TestGenericPostSessionSyncAligned(t *testing.T) {
	g, dt := newGen(23)
	a := &Generic{
		BurstPeriod: 1e9, // no fg bursts
		SyncPeriod:  300, SyncUp: 500, SyncDown: 500, SyncDurMean: 3000,
		Residual: ResidualCfg{},
	}
	sessions := []Session{{Start: 0, End: 100 * sec}}
	a.Generate(g, 1, sessions, 0, day)
	syncs := 0
	for i := range dt.Records {
		r := &dt.Records[i]
		if r.Type != trace.RecPacket || r.Dir != trace.DirUp {
			continue
		}
		off := r.TS.Sub(100 * sec)
		if off <= 0 {
			continue
		}
		syncs++
		k := int(off/300 + 0.5)
		drift := off - float64(k)*300
		if drift < -30 || drift > 30 {
			t.Errorf("sync at +%.0fs drifts %.0fs from phase", off, drift)
		}
	}
	if syncs == 0 {
		t.Error("no post-session syncs emitted")
	}
}

func TestBrowserInfiniteLeakRunsToNextSession(t *testing.T) {
	g, dt := newGen(24)
	b := &Browser{
		PageLoadPeriod: 1e12,
		LeakProb:       1, LeakPeriod: 30, LeakUpBytes: 400, LeakDownBytes: 400,
		LeakMedian: 1, LeakSigma: 0.0001, // finite leaks end immediately
		LeakInfinitePortion: 1, LeakInfinitePeriod: 60,
	}
	sessions := []Session{
		{Start: 0, End: 100 * sec},
		{Start: 7200 * sec, End: 7300 * sec},
	}
	b.Generate(g, 1, sessions, 0, day)
	var last trace.Timestamp
	for i := range dt.Records {
		r := &dt.Records[i]
		if r.Type == trace.RecPacket && r.State == trace.StateBackground {
			last = r.TS
		}
	}
	// The infinite leak should run right up to (but not into) the next
	// session at t=7200.
	if last < 6000*sec {
		t.Errorf("infinite leak stopped early at %v", last)
	}
	if last >= 7200*sec && last < 7300*sec {
		t.Error("leak ran into the next foreground session")
	}
}

func TestRetransmitProbEmitsDuplicates(t *testing.T) {
	g, dt := newGen(30)
	g.RetransmitProb = 1.0 // every segment retransmitted once
	conn := g.NewConn(ServerIP(5), 443)
	g.EmitHTTPBurst(1, 0, trace.StateService, conn, nil, 1000, 1000)
	p := new(netparse.Parser)
	seqs := map[uint32]int{}
	for i := range dt.Records {
		r := &dt.Records[i]
		if r.Type != trace.RecPacket {
			continue
		}
		d, err := p.DecodePacket(r.Payload)
		if err != nil {
			t.Fatal(err)
		}
		seqs[d.TCP.Seq]++
	}
	for seq, n := range seqs {
		if n != 2 {
			t.Errorf("seq %d emitted %d times, want 2", seq, n)
		}
	}
	if len(seqs) != 2 { // one up + one down segment
		t.Errorf("distinct segments = %d", len(seqs))
	}
}

func TestEmitHTTPBurstCarriesHost(t *testing.T) {
	g, dt := newGen(31)
	conn := g.NewConn(ServerIP(5), 443)
	req := []byte("GET /x HTTP/1.1\r\nHost: api.test.example\r\n")
	g.EmitHTTPBurst(1, 0, trace.StateService, conn, req, 500, 120000)
	p := new(netparse.Parser)
	hosts := 0
	for i := range dt.Records {
		r := &dt.Records[i]
		if r.Type != trace.RecPacket {
			continue
		}
		d, err := p.DecodePacket(r.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if d.Transport == netparse.LayerTypeTCP && r.Dir == trace.DirUp &&
			len(d.Payload) > 0 && d.Payload[0] == 'G' {
			hosts++
		}
	}
	// Exactly the first uplink segment carries the request line.
	if hosts != 1 {
		t.Errorf("request-bearing packets = %d, want 1", hosts)
	}
}

func TestDNSEmission(t *testing.T) {
	g, dt := newGen(40)
	g.EmitDNS = true
	server := ServerIP(9)
	// Two bursts on one conn: DNS once. A new conn to the same server
	// within the TTL: no new lookup. A conn 10 minutes later: fresh lookup.
	c1 := g.NewConn(server, 443)
	g.EmitHTTPBurst(1, 0, trace.StateService, c1, nil, 500, 500)
	g.EmitHTTPBurst(1, 10*sec, trace.StateService, c1, nil, 500, 500)
	c2 := g.NewConn(server, 443)
	g.EmitHTTPBurst(1, 60*sec, trace.StateService, c2, nil, 500, 500)
	c3 := g.NewConn(server, 443)
	g.EmitHTTPBurst(1, 900*sec, trace.StateService, c3, nil, 500, 500)

	p := new(netparse.Parser)
	dns := 0
	for i := range dt.Records {
		r := &dt.Records[i]
		if r.Type != trace.RecPacket {
			continue
		}
		d, err := p.DecodePacket(r.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if d.Transport == netparse.LayerTypeUDP && (d.Tuple.PortA == 53 || d.Tuple.PortB == 53) {
			dns++
		}
	}
	// Two lookups (t=0 and t=900), query+response each.
	if dns != 4 {
		t.Errorf("dns packets = %d, want 4", dns)
	}
}

func TestDNSDisabledByDefault(t *testing.T) {
	g, dt := newGen(41)
	c := g.NewConn(ServerIP(9), 443)
	g.EmitHTTPBurst(1, 0, trace.StateService, c, nil, 500, 500)
	p := new(netparse.Parser)
	for i := range dt.Records {
		r := &dt.Records[i]
		if r.Type != trace.RecPacket {
			continue
		}
		d, err := p.DecodePacket(r.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if d.Transport == netparse.LayerTypeUDP {
			t.Fatal("DNS emitted despite EmitDNS=false")
		}
	}
}

func TestProfileConfigRoundTrip(t *testing.T) {
	orig := CaseStudies()
	var buf bytes.Buffer
	if err := SaveProfiles(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadProfiles(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(orig) {
		t.Fatalf("loaded %d profiles, want %d", len(loaded), len(orig))
	}
	for i := range orig {
		if loaded[i].Package != orig[i].Package {
			t.Errorf("profile %d package %q != %q", i, loaded[i].Package, orig[i].Package)
		}
		if loaded[i].InstallProb != orig[i].InstallProb {
			t.Errorf("%s install prob changed", orig[i].Package)
		}
	}
	// The loaded Weibo poller must behave like the original.
	var w *Profile
	for i := range loaded {
		if loaded[i].Package == PkgWeibo {
			w = &loaded[i]
		}
	}
	if w == nil {
		t.Fatal("Weibo missing after round trip")
	}
	pp, ok := w.Behavior.(*PeriodicPoller)
	if !ok {
		t.Fatalf("Weibo behavior type %T", w.Behavior)
	}
	if pp.Period != 370 || pp.UpdatesPerConn != 3 {
		t.Errorf("Weibo poller params lost: %+v", pp)
	}
}

func TestLoadProfilesValidation(t *testing.T) {
	cases := map[string]string{
		"missing package":  `[{"behavior":{"type":"generic","generic":{}},"install_prob":0.5}]`,
		"bad install prob": `[{"package":"a","behavior":{"type":"generic","generic":{}},"install_prob":1.5,"never_foreground":true}]`,
		"unknown behavior": `[{"package":"a","behavior":{"type":"magic"},"install_prob":0.5,"never_foreground":true}]`,
		"missing params":   `[{"package":"a","behavior":{"type":"poller"},"install_prob":0.5,"never_foreground":true}]`,
		"no sessions":      `[{"package":"a","behavior":{"type":"generic","generic":{}},"install_prob":0.5}]`,
		"duplicate": `[
			{"package":"a","behavior":{"type":"generic","generic":{}},"install_prob":0.5,"never_foreground":true},
			{"package":"a","behavior":{"type":"generic","generic":{}},"install_prob":0.5,"never_foreground":true}]`,
		"unknown field": `[{"package":"a","behavior":{"type":"generic","generic":{}},"install_prob":0.5,"never_foreground":true,"bogus":1}]`,
	}
	for name, js := range cases {
		if _, err := LoadProfiles(strings.NewReader(js)); err == nil {
			t.Errorf("%s: accepted invalid config", name)
		}
	}
}

func TestLoadProfilesDefaults(t *testing.T) {
	js := `[{"package":"com.custom","behavior":{"type":"poller","poller":{"Period":600,"UpBytes":100,"DownBytes":100,"UpdatesPerConn":1}},"install_prob":1,"never_foreground":true}]`
	ps, err := LoadProfiles(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	p := ps[0]
	if p.Label != "com.custom" {
		t.Errorf("default label = %q", p.Label)
	}
	if p.UseDaysMean != 30 || p.GapDaysMean != 0.5 {
		t.Errorf("engagement defaults: %v/%v", p.UseDaysMean, p.GapDaysMean)
	}
	// The profile must actually generate traffic.
	g, dt := newGen(50)
	p.Behavior.Generate(g, 1, nil, 0, day)
	if len(dt.Records) == 0 {
		t.Error("custom profile generated nothing")
	}
}
