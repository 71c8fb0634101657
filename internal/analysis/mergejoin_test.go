package analysis

import (
	"fmt"
	"reflect"
	"testing"

	"netenergy/internal/energy"
	"netenergy/internal/procstate"
	"netenergy/internal/rng"
	"netenergy/internal/stats"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

// The three sections that join packets to a timeline, written with the
// per-packet searches they used before the merge joins: the reference the
// sections are held to, bit for bit.

func firstMinuteOracle(devs []*DeviceData, windowSec, threshold float64) FirstMinuteResult {
	early := map[string]float64{}
	total := map[string]float64{}
	everFg := map[string]bool{}
	for _, d := range devs {
		for i := range d.Energy.Packets {
			p := &d.Energy.Packets[i]
			if !p.State.IsBackground() {
				continue
			}
			name := d.Apps.Name(p.App)
			total[name] += float64(p.Bytes)
			fgEnd, ok := d.Tracker.LastForegroundEnd(p.App, p.TS)
			if !ok {
				continue
			}
			everFg[name] = true
			if p.TS.Sub(fgEnd) <= windowSec {
				early[name] += float64(p.Bytes)
			}
		}
	}
	res := FirstMinuteResult{PerApp: map[string]float64{}}
	for name, tot := range total {
		if tot <= 0 {
			continue
		}
		share := early[name] / tot
		if !everFg[name] {
			share = 0
		}
		res.PerApp[name] = share
		res.Total++
		if share >= threshold {
			res.Meeting++
		}
	}
	if res.Total > 0 {
		res.Fraction = float64(res.Meeting) / float64(res.Total)
	}
	return res
}

// sinceForegroundBinsOracle returns Figure 6's series; the rest of the
// result is a function of it.
func sinceForegroundBinsOracle(devs []*DeviceData, binWidth, horizon float64) (offs, vals []float64) {
	tb := stats.NewTimeBins(binWidth, int(horizon/binWidth))
	for _, d := range devs {
		for i := range d.Energy.Packets {
			p := &d.Energy.Packets[i]
			if !p.State.IsBackground() {
				continue
			}
			fgEnd, ok := d.Tracker.LastForegroundEnd(p.App, p.TS)
			if !ok {
				continue
			}
			tb.Add(p.TS.Sub(fgEnd), float64(p.Bytes))
		}
	}
	return tb.Series()
}

func screenOffOracle(devs []*DeviceData, topK int) ScreenOffResult {
	var res ScreenOffResult
	offByApp := map[string]*HungryApp{}
	for _, d := range devs {
		for i := range d.Energy.Packets {
			p := &d.Energy.Packets[i]
			if d.ScreenOnAt(p.TS) {
				res.OnBytes += int64(p.Bytes)
				res.OnEnergy += p.Energy
				continue
			}
			res.OffBytes += int64(p.Bytes)
			res.OffEnergy += p.Energy
			name := d.Apps.Name(p.App)
			h := offByApp[name]
			if h == nil {
				h = &HungryApp{App: name}
				offByApp[name] = h
			}
			h.Bytes += int64(p.Bytes)
			h.Energy += p.Energy
		}
	}
	rank := map[string]float64{}
	for name, h := range offByApp {
		rank[name] = h.Energy
	}
	for _, kv := range stats.TopK(rank, topK) {
		h := offByApp[kv.Key]
		if h.Bytes > 0 {
			h.JPerMB = h.Energy / (float64(h.Bytes) / 1e6)
		}
		res.TopOffApps = append(res.TopOffApps, *h)
	}
	return res
}

// seededDevice builds a device on a 10-second grid, so packets, state
// changes and screen toggles often share a timestamp. Its apps have ids 0,
// 1, 2^32-2 and 2^32-1; app 1 never reaches the foreground. Packets and
// screen toggles are in time order; the state changes are spread through
// the records in an order of their own, so the tracker sees late Observe
// calls.
func seededDevice(t *testing.T, seed uint64) *DeviceData {
	t.Helper()
	r := rng.New(seed)
	b := newBuilder(fmt.Sprintf("seeded-%d", seed))
	ids := []uint32{0, 1, 1<<32 - 2, 1<<32 - 1}
	for i, id := range ids {
		name := fmt.Sprintf("com.seeded%d", i)
		b.dt.Apps.Register(id, name)
		b.dt.Records = append(b.dt.Records, trace.Record{Type: trace.RecAppName, App: id, AppName: name})
	}
	grid := func() trace.Timestamp { return trace.Timestamp(r.Intn(360)) * 10 * sec }

	var states []trace.Record
	for i, id := range ids {
		for n := r.Intn(12); n > 0; n-- {
			s := []trace.ProcState{trace.StateForeground, trace.StateVisible, trace.StatePerceptible,
				trace.StateService, trace.StateBackground}[r.Intn(5)]
			if i == 1 && s.IsForeground() {
				s = trace.StateService
			}
			states = append(states, trace.Record{Type: trace.RecProcState, TS: grid(), App: id, State: s})
		}
	}
	var timed []trace.Record
	on := false
	for n := r.Intn(14); n > 0; n-- {
		on = !on
		timed = append(timed, trace.Record{Type: trace.RecScreen, TS: grid(), ScreenOn: on})
	}
	pk := newBuilder("")
	for n := 50 + r.Intn(100); n > 0; n-- {
		id := ids[r.Intn(len(ids))]
		s := trace.StateBackground
		if r.Bool(0.3) {
			s = trace.StateForeground
		}
		pk.pkt(id, grid(), s, 40+r.Intn(1400), r.Bool(0.5))
	}
	timed = append(timed, pk.dt.Records...)
	sortRecords(timed)
	for _, st := range states {
		at := r.Intn(len(timed) + 1)
		timed = append(timed[:at], append([]trace.Record{st}, timed[at:]...)...)
	}
	b.dt.Records = append(b.dt.Records, timed...)
	dd, err := Load(b.dt, energy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return dd
}

func sortRecords(recs []trace.Record) {
	dt := trace.DeviceTrace{Records: recs}
	dt.SortByTime()
}

// TestMergeJoinsMatchSearches: at every packet, the foreground cursor
// answers what Tracker.LastForegroundEnd answers and the screen cursor what
// ScreenOnAt answers, and FirstMinute, SinceForeground and ScreenOff equal
// their search-per-packet references bit for bit — on the golden fleet and
// on seeded devices with late state observations, shared timestamps, an app
// never in the foreground and app ids near 2^32. Each device is also asked
// again in a shuffled order, so the cursors' restart is checked too.
func TestMergeJoinsMatchSearches(t *testing.T) {
	golden, err := LoadAll(synthgen.GenerateInMemory(synthgen.Small(5, 10)), energy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var seeded []*DeviceData
	for seed := uint64(1); seed <= 40; seed++ {
		seeded = append(seeded, seededDevice(t, seed))
	}
	r := rng.New(99)
	for _, fleet := range []struct {
		name string
		devs []*DeviceData
	}{{"golden", golden}, {"seeded", seeded}} {
		var fgJoined, shared, rewinds, walked int
		for _, d := range fleet.devs {
			if !newScreenCursor(d).search {
				walked++
			}
			order := make([]int, len(d.Energy.Packets))
			for i := range order {
				order[i] = i
			}
			shuffled := r.Perm(len(order))
			for pass, idx := range [][]int{order, shuffled} {
				cursors := map[uint32]*procstate.Cursor{}
				asked := map[uint32]trace.Timestamp{}
				screen := newScreenCursor(d)
				for _, i := range idx {
					p := &d.Energy.Packets[i]
					c := cursors[p.App]
					if c == nil {
						cur := d.Tracker.Cursor(p.App)
						c = &cur
						cursors[p.App] = c
					}
					if last, ok := asked[p.App]; ok && p.TS < last {
						rewinds++
					}
					asked[p.App] = p.TS
					gotEnd, gotOK := c.LastForegroundEnd(p.TS)
					wantEnd, wantOK := d.Tracker.LastForegroundEnd(p.App, p.TS)
					if gotEnd != wantEnd || gotOK != wantOK {
						t.Fatalf("%s %s pass %d packet %d (app %d, ts %d): cursor LastForegroundEnd = %d %v, search %d %v",
							fleet.name, d.Device, pass, i, p.App, p.TS, gotEnd, gotOK, wantEnd, wantOK)
					}
					if wantOK {
						fgJoined++
					}
					if d.Tracker.StateAt(p.App, p.TS) != d.Tracker.StateAt(p.App, p.TS-1) {
						shared++ // a state change at the packet's own timestamp
					}
					if got, want := screen.at(p.TS), d.ScreenOnAt(p.TS); got != want {
						t.Fatalf("%s %s pass %d packet %d (ts %d): screen cursor = %v, ScreenOnAt = %v",
							fleet.name, d.Device, pass, i, p.TS, got, want)
					}
				}
			}
		}
		t.Logf("%s: %d packet queries joined to a foreground end, %d on a state change's timestamp, %d cursor restarts; screen walked on %d of %d devices",
			fleet.name, fgJoined, shared, rewinds, walked, len(fleet.devs))
		if fgJoined == 0 || rewinds == 0 || walked == 0 || (fleet.name == "seeded" && (shared == 0 || walked == len(fleet.devs))) {
			t.Fatalf("%s: the comparison is vacuous", fleet.name)
		}

		if got, want := FirstMinute(fleet.devs, 60, 0.8), firstMinuteOracle(fleet.devs, 60, 0.8); !reflect.DeepEqual(got, want) {
			t.Errorf("%s FirstMinute:\n got %+v\nwant %+v", fleet.name, got, want)
		}
		got := SinceForeground(fleet.devs, 10, 3600)
		if offs, vals := sinceForegroundBinsOracle(fleet.devs, 10, 3600); !reflect.DeepEqual(got.Offsets, offs) || !reflect.DeepEqual(got.Bytes, vals) {
			t.Errorf("%s SinceForeground bins differ from the search's", fleet.name)
		}
		if got, want := ScreenOff(fleet.devs, 10), screenOffOracle(fleet.devs, 10); !reflect.DeepEqual(got, want) {
			t.Errorf("%s ScreenOff:\n got %+v\nwant %+v", fleet.name, got, want)
		}
	}
}
