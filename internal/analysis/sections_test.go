package analysis

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"netenergy/internal/appmodel"
	"netenergy/internal/appproto"
	"netenergy/internal/energy"
	"netenergy/internal/periodic"
	"netenergy/internal/stats"
	"netenergy/internal/synthgen"
	"netenergy/internal/tcpstream"
	"netenergy/internal/trace"
)

// caseStudiesOracle is Table 1 as it was computed before the one-pass
// rewrite: every device's packets and flows scanned once per package.
func caseStudiesOracle(devs []*DeviceData, packages, labels []string) []CaseStudy {
	out := make([]CaseStudy, 0, len(packages))
	for i, pkg := range packages {
		label := pkg
		if labels != nil && i < len(labels) && labels[i] != "" {
			label = labels[i]
		}
		cs := CaseStudy{App: pkg, Label: label}
		var totalEnergy float64
		var totalBytes int64
		activeDays := map[[2]interface{}]bool{} // (device, day)
		var periods []periodic.Period
		for _, d := range devs {
			app, ok := d.appID(pkg)
			if !ok {
				continue
			}
			totalEnergy += d.Energy.Ledger.ByApp[app]
			totalBytes += d.Energy.Ledger.BytesByApp[app]
			for day, ds := range d.Energy.Ledger.ByAppDay[app] {
				if ds.Packets > 0 {
					activeDays[[2]interface{}{d.Device, day}] = true
				}
			}
			for _, f := range d.Flows {
				if f.App == app {
					cs.Flows++
				}
			}
			var bgBurstTimes []float64
			for i := range d.Energy.Packets {
				p := &d.Energy.Packets[i]
				if p.App == app && p.State.IsBackground() && p.Dir == trace.DirUp {
					bgBurstTimes = append(bgBurstTimes, p.TS.Seconds())
				}
			}
			bursts := periodic.Bursts(bgBurstTimes, 15)
			if pd := periodic.DominantPeriod(bursts); pd.Samples >= 5 {
				periods = append(periods, pd)
			}
		}
		cs.ActiveDays = len(activeDays)
		if cs.ActiveDays > 0 {
			cs.JPerDay = totalEnergy / float64(cs.ActiveDays)
		}
		if cs.Flows > 0 {
			cs.JPerFlow = totalEnergy / float64(cs.Flows)
			cs.MBPerFlow = float64(totalBytes) / float64(cs.Flows) / 1e6
		}
		if totalBytes > 0 {
			cs.UJPerByte = totalEnergy / float64(totalBytes) * 1e6
		}
		if len(periods) > 0 {
			sort.Slice(periods, func(i, j int) bool { return periods[i].Seconds < periods[j].Seconds })
			cs.Period = periods[len(periods)/2]
		}
		out = append(out, cs)
	}
	return out
}

// retransmissionsOracle is the retransmission section as it was computed
// before the per-device tally and the connection ids: two name-keyed map
// writes per packet, and streams keyed by the five-tuple's hash.
func retransmissionsOracle(devs []*DeviceData, topK int) RetransResult {
	var res RetransResult
	perAppBytes := map[string]int64{}
	perAppRetrans := map[string]int64{}
	for _, d := range devs {
		streams := map[uint64]*tcpstream.Stream{}
		for i := range d.Energy.Packets {
			p := &d.Energy.Packets[i]
			plen := p.Bytes - 40
			if plen < 0 {
				plen = 0
			}
			key := d.Energy.Conns[p.Conn].FastHash()
			if p.Dir == trace.DirUp {
				key ^= 0x9e3779b97f4a7c15
			}
			st := streams[key]
			if st == nil {
				st = &tcpstream.Stream{}
				streams[key] = st
			}
			kind := st.Segment(p.Seq, plen)
			name := d.Apps.Name(p.App)
			perAppBytes[name] += int64(plen)
			switch kind {
			case tcpstream.KindRetrans:
				perAppRetrans[name] += int64(plen)
				res.WastedEnergyJ += p.Energy
			case tcpstream.KindPartial:
				res.WastedEnergyJ += p.Energy / 2
			}
		}
		for _, st := range streams {
			t := st.Stats()
			res.Total.Segments += t.Segments
			res.Total.Bytes += t.Bytes
			res.Total.Goodput += t.Goodput
			res.Total.Retrans += t.Retrans
			res.Total.OutOfOrder += t.OutOfOrder
		}
	}
	rank := map[string]float64{}
	for name, b := range perAppRetrans {
		rank[name] = float64(b)
	}
	for _, kv := range stats.TopK(rank, topK) {
		res.PerApp = append(res.PerApp, AppRetrans{
			App:          kv.Key,
			Bytes:        perAppBytes[kv.Key],
			RetransBytes: perAppRetrans[kv.Key],
		})
	}
	return res
}

// hostBreakdownOracle is HostBreakdown's per-packet walk as it was before
// the connection ids: a response inherits the host of the last request on
// the same five-tuple hash. It returns the per-host tallies.
func hostBreakdownOracle(devs []*DeviceData, pkg string, bgOnly bool) (map[string]HostStat, int64) {
	hosts := map[string]HostStat{}
	var unattributed int64
	for _, d := range devs {
		app, ok := d.appID(pkg)
		if !ok {
			continue
		}
		flowHost := map[uint64]string{}
		for i := range d.Energy.Packets {
			p := &d.Energy.Packets[i]
			if p.App != app || (bgOnly && !p.State.IsBackground()) {
				continue
			}
			key := d.Energy.Conns[p.Conn].FastHash()
			host := p.Host
			if host != "" {
				flowHost[key] = host
			} else {
				host = flowHost[key]
			}
			if host == "" {
				unattributed += int64(p.Bytes)
				continue
			}
			hs := hosts[host]
			hs.Host, hs.Category = host, appproto.Classify(host)
			hs.Bytes += int64(p.Bytes)
			hs.Energy += p.Energy
			if p.Host != "" {
				hs.Requests++
			}
			hosts[host] = hs
		}
	}
	return hosts, unattributed
}

// TestSectionsMatchOracles: the sections that lost their redundant scans or
// their tuple hashing return what they returned before, field for field, on
// a fleet —
// including a package listed twice, one no device has, and a packet whose
// app id the device never named.
func TestSectionsMatchOracles(t *testing.T) {
	dts := synthgen.GenerateInMemory(synthgen.Small(5, 4))
	devs, err := LoadAll(dts, energy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stray := devs[0].Energy.Packets[len(devs[0].Energy.Packets)/2]
	stray.App = uint32(devs[0].Apps.Len()) + 7
	devs[0].Energy.Packets = append(devs[0].Energy.Packets, stray, stray)

	packages := []string{appmodel.PkgWeibo, appmodel.PkgTwitter, appmodel.PkgFacebook, appmodel.PkgGmail,
		appmodel.PkgChrome, appmodel.PkgSpotify, appmodel.PkgTwitter, "com.absent"}
	labels := []string{"Weibo", "Twitter", "", "Gmail"}
	if got, want := CaseStudies(devs, packages, labels), caseStudiesOracle(devs, packages, labels); !reflect.DeepEqual(got, want) {
		t.Errorf("CaseStudies:\n got %+v\nwant %+v", got, want)
	}
	if got, want := CaseStudies(devs, packages, nil), caseStudiesOracle(devs, packages, nil); !reflect.DeepEqual(got, want) {
		t.Errorf("CaseStudies without labels:\n got %+v\nwant %+v", got, want)
	}
	for _, topK := range []int{0, 3, 10} {
		got, want := Retransmissions(devs, topK), retransmissionsOracle(devs, topK)
		if want.Total.Retrans == 0 {
			t.Fatal("fleet has no retransmissions: the comparison is vacuous")
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Retransmissions(topK=%d):\n got %+v\nwant %+v", topK, got, want)
		}
	}
	for _, pkg := range []string{appmodel.PkgChrome, appmodel.PkgWeibo, "com.absent"} {
		for _, bgOnly := range []bool{false, true} {
			got := HostBreakdown(devs, pkg, bgOnly)
			want, unattributed := hostBreakdownOracle(devs, pkg, bgOnly)
			if pkg == appmodel.PkgChrome && len(want) == 0 {
				t.Fatal("no Chrome host was attributed: the comparison is vacuous")
			}
			if got.UnattributedBytes != unattributed || len(got.Hosts) != len(want) {
				t.Errorf("HostBreakdown(%s, bg=%v): %d hosts, %d unattributed bytes; want %d, %d",
					pkg, bgOnly, len(got.Hosts), got.UnattributedBytes, len(want), unattributed)
			}
			for _, hs := range got.Hosts {
				if hs != want[hs.Host] {
					t.Errorf("HostBreakdown(%s, bg=%v) host %s: %+v, want %+v", pkg, bgOnly, hs.Host, hs, want[hs.Host])
				}
			}
		}
	}
}

// TestFiguresConcurrentOutOfOrderStates drives the figure functions that
// read the process-state tracker from several goroutines at once, over a
// device whose proc-state records arrived out of order: every tracker query
// must be a pure read (run under -race) and agree with the same device
// loaded from the sorted trace.
func TestFiguresConcurrentOutOfOrderStates(t *testing.T) {
	build := func(sorted bool) *DeviceData {
		b := newBuilder("d0")
		a := b.app("com.browser")
		for s := 0; s < 40; s++ {
			t0 := trace.Timestamp(s*1000) * sec
			b.pkt(a, t0+10*sec, trace.StateForeground, 1000, false)
			b.pkt(a, t0+100*sec, trace.StateBackground, 500, true)
			b.pkt(a, t0+320*sec, trace.StateBackground, 500, true)
		}
		// Every session's state changes come after all packets, latest
		// session first.
		for s := 39; s >= 0; s-- {
			t0 := trace.Timestamp(s*1000) * sec
			b.state(a, t0+20*sec, trace.StateBackground)
			b.state(a, t0+5*sec, trace.StateForeground)
		}
		if sorted {
			b.dt.SortByTime()
		}
		dd, err := Load(b.dt, energy.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return dd
	}
	devs, ref := []*DeviceData{build(false)}, []*DeviceData{build(true)}
	wantP, wantS := Persistence(ref, "com.browser"), SinceForeground(ref, 10, 3600)
	wantT, _ := Timeline(ref, "com.browser", 300, 900, 10)
	if len(wantP.Durations) != 40 {
		t.Fatalf("reference has %d transitions, want 40", len(wantP.Durations))
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			if got := Persistence(devs, "com.browser"); !reflect.DeepEqual(got.Durations, wantP.Durations) {
				t.Errorf("Persistence: %v, want %v", got.Durations, wantP.Durations)
			}
		}()
		go func() {
			defer wg.Done()
			if got := SinceForeground(devs, 10, 3600); !reflect.DeepEqual(got, wantS) {
				t.Errorf("SinceForeground: %+v, want %+v", got, wantS)
			}
		}()
		go func() {
			defer wg.Done()
			if got, _ := Timeline(devs, "com.browser", 300, 900, 10); got.Transition != wantT.Transition {
				t.Errorf("Timeline transition: %v, want %v", got.Transition, wantT.Transition)
			}
		}()
	}
	wg.Wait()
}
