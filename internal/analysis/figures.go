package analysis

import (
	"cmp"
	"slices"

	"netenergy/internal/periodic"
	"netenergy/internal/procstate"
	"netenergy/internal/radio"
	"netenergy/internal/stats"
	"netenergy/internal/trace"
)

// --- Figure 1: app popularity across users' top-10 lists ---

// TopAppsResult is Figure 1: for each app appearing in at least MinUsers
// users' top-10-by-data lists, how many users list it.
type TopAppsResult struct {
	Counts []stats.KV // app package -> number of users, descending
}

// TopApps computes Figure 1. minUsers is the paper's "at least two users"
// filter.
func TopApps(devs []*DeviceData, minUsers int) TopAppsResult {
	appearances := map[string]float64{}
	for _, d := range devs {
		perApp := map[string]float64{}
		for app, b := range d.Energy.Ledger.BytesByApp {
			perApp[d.Apps.Name(app)] = float64(b)
		}
		for _, kv := range stats.TopK(perApp, 10) {
			appearances[kv.Key]++
		}
	}
	for k, v := range appearances {
		if v < float64(minUsers) {
			delete(appearances, k)
		}
	}
	return TopAppsResult{Counts: stats.TopK(appearances, 0)}
}

// --- Figure 2: data- and energy-hungry apps ---

// HungryAppsResult is Figure 2: the top apps by total cellular data and by
// total network energy across all users, with both metrics reported for
// each so the data/energy contrast (email vs media server) is visible.
type HungryAppsResult struct {
	ByData   []HungryApp // descending by bytes
	ByEnergy []HungryApp // descending by joules
}

// HungryApp is one app's fleet-wide totals.
type HungryApp struct {
	App    string
	Bytes  int64
	Energy float64 // J
	JPerMB float64 // J per megabyte — the efficiency contrast
}

// HungryApps computes Figure 2, returning the top k apps by each metric.
func HungryApps(devs []*DeviceData, k int) HungryAppsResult {
	type acc struct {
		bytes  int64
		energy float64
	}
	byApp := map[string]*acc{}
	for _, d := range devs {
		for app, b := range d.Energy.Ledger.BytesByApp {
			name := d.Apps.Name(app)
			a := byApp[name]
			if a == nil {
				a = &acc{}
				byApp[name] = a
			}
			a.bytes += b
			a.energy += d.Energy.Ledger.ByApp[app]
		}
	}
	mk := func(name string) HungryApp {
		a := byApp[name]
		h := HungryApp{App: name, Bytes: a.bytes, Energy: a.energy}
		if a.bytes > 0 {
			h.JPerMB = a.energy / (float64(a.bytes) / 1e6)
		}
		return h
	}
	dataRank := map[string]float64{}
	energyRank := map[string]float64{}
	for name, a := range byApp {
		dataRank[name] = float64(a.bytes)
		energyRank[name] = a.energy
	}
	var res HungryAppsResult
	for _, kv := range stats.TopK(dataRank, k) {
		res.ByData = append(res.ByData, mk(kv.Key))
	}
	for _, kv := range stats.TopK(energyRank, k) {
		res.ByEnergy = append(res.ByEnergy, mk(kv.Key))
	}
	return res
}

// --- Figure 3: energy by process state ---

// StateBreakdown is Figure 3: for each app, the fraction of its energy in
// each of the five Android process states.
type StateBreakdown struct {
	App       string
	Total     float64 // J
	Fractions map[trace.ProcState]float64
}

// StateBreakdowns computes Figure 3 for the named packages (pass nil to use
// the top-12 apps by energy, as the paper selects "twelve data- or
// energy-hungry apps").
func StateBreakdowns(devs []*DeviceData, packages []string) []StateBreakdown {
	energyByAppState := map[string]map[trace.ProcState]float64{}
	totals := map[string]float64{}
	for _, d := range devs {
		for app, states := range d.Energy.Ledger.ByAppState {
			name := d.Apps.Name(app)
			dst := energyByAppState[name]
			if dst == nil {
				dst = map[trace.ProcState]float64{}
				energyByAppState[name] = dst
			}
			for _, s := range sortedKeys(states) { // totals is a float sum: fold in a fixed order
				dst[s] += states[s]
				totals[name] += states[s]
			}
		}
	}
	if packages == nil {
		for _, kv := range stats.TopK(totals, 12) {
			packages = append(packages, kv.Key)
		}
	}
	var out []StateBreakdown
	for _, pkg := range packages {
		states := energyByAppState[pkg]
		total := totals[pkg]
		sb := StateBreakdown{App: pkg, Total: total, Fractions: map[trace.ProcState]float64{}}
		if total > 0 {
			for s, e := range states {
				sb.Fractions[s] = e / total
			}
		}
		out = append(out, sb)
	}
	return out
}

// BackgroundShare returns the fraction of a breakdown's energy in
// background states.
func (sb StateBreakdown) BackgroundShare() float64 {
	var f float64
	for _, s := range trace.AllStates { // a fixed order keeps the float sum repeatable
		if s.IsBackground() {
			f += sb.Fractions[s]
		}
	}
	return f
}

// --- Figure 4: one app's traffic timeline around a background transition ---

// TimelineResult is Figure 4: binned traffic of one app on one device
// around a foreground→background transition, with the transition instant
// marked (the grey region of the paper's figure starts there).
type TimelineResult struct {
	Device     string
	App        string
	Transition trace.Timestamp
	BinWidth   float64   // seconds
	Offsets    []float64 // bin start offsets relative to (Transition - Before)
	Bytes      []float64
	// PowerW is the app-attributed mean radio power per bin (watts),
	// reconstructed with the RRC timeline — the Monsoon-monitor overlay.
	PowerW []float64
	Before float64 // seconds of context before the transition
}

// Timeline extracts the Figure 4 view for the given package: the background
// transition with the most post-transition traffic across the fleet, with
// before/after seconds of context in binWidth-second bins.
func Timeline(devs []*DeviceData, pkg string, before, after, binWidth float64) (TimelineResult, bool) {
	best := TimelineResult{App: pkg, BinWidth: binWidth, Before: before}
	bestBytes := int64(-1)
	for _, d := range devs {
		app, ok := d.Apps.Lookup(pkg)
		if !ok {
			continue
		}
		// Packet times/bytes for this app.
		var pts []int // indexes into d.Energy.Packets
		for i := range d.Energy.Packets {
			if d.Energy.Packets[i].App == app {
				pts = append(pts, i)
			}
		}
		for _, tr := range d.Tracker.BackgroundTransitions(app) {
			var post int64
			for _, pi := range pts {
				p := &d.Energy.Packets[pi]
				dt := p.TS.Sub(tr.TS)
				if dt > 0 && dt <= after && p.State.IsBackground() {
					post += int64(p.Bytes)
				}
			}
			if post > bestBytes {
				bestBytes = post
				best.Device = d.Device
				best.Transition = tr.TS
			}
		}
	}
	if bestBytes < 0 {
		return best, false
	}
	// Build the binned series and the radio-power overlay for the winning
	// transition.
	for _, d := range devs {
		if d.Device != best.Device {
			continue
		}
		app, _ := d.Apps.Lookup(pkg)
		tb := stats.NewTimeBins(binWidth, int((before+after)/binWidth))
		origin := best.Transition.AddSeconds(-before)
		rt := radio.NewTimelineBuilder(radio.LTE())
		for i := range d.Energy.Packets {
			p := &d.Energy.Packets[i]
			if p.App != app {
				continue
			}
			tb.Add(p.TS.Sub(origin), float64(p.Bytes))
			dir := radio.Down
			if p.Dir == trace.DirUp {
				dir = radio.Up
			}
			rt.OnPacket(p.TS.Seconds(), p.Bytes, dir)
		}
		best.Offsets, best.Bytes = tb.Series()
		// Integrate the power timeline into the same bins.
		best.PowerW = make([]float64, len(best.Offsets))
		o := origin.Seconds()
		for _, span := range rt.Finish() {
			if span.State == radio.Idle {
				continue
			}
			lo := span.Start - o
			hi := span.End - o
			if hi <= 0 || lo >= before+after {
				continue
			}
			for b := int(max(lo, 0) / binWidth); b < len(best.PowerW); b++ {
				bs, be := float64(b)*binWidth, float64(b+1)*binWidth
				ov := min(hi, be) - max(lo, bs)
				if ov <= 0 {
					break
				}
				best.PowerW[b] += ov * span.Power / binWidth
			}
		}
	}
	return best, true
}

// --- Figure 5: persistence of traffic after backgrounding ---

// PersistenceCDF is Figure 5: the distribution of how long an app's traffic
// persists after each foreground→background transition. Each sample is one
// transition; the duration is the time from the transition to the last
// packet of a flow that was active at the transition (0 if none persisted),
// windowed to the next return to the foreground.
type PersistenceCDF struct {
	App       string
	Durations []float64 // seconds, one per transition
	CDF       *stats.CDF
}

// Persistence computes Figure 5 for one package across the fleet.
func Persistence(devs []*DeviceData, pkg string) PersistenceCDF {
	out := PersistenceCDF{App: pkg}
	for _, d := range devs {
		app, ok := d.Apps.Lookup(pkg)
		if !ok {
			continue
		}
		// This app's flows, sorted by start (Flows() guarantees order).
		var fs []int
		for i, f := range d.Flows {
			if f.App == app {
				fs = append(fs, i)
			}
		}
		transitions := d.Tracker.BackgroundTransitions(app)
		for ti, tr := range transitions {
			// Window ends when the app returns to the foreground (next
			// transition's preceding fg interval) or at trace end.
			windowEnd := d.Span[1]
			if ti+1 < len(transitions) {
				// The next fg->bg transition implies a fg return before it;
				// find it from the timeline: use the next session's start,
				// approximated by the next transition's own fg entry. A
				// simple, robust bound: the app's state at t is fg again
				// somewhere before transitions[ti+1].TS.
				windowEnd = transitions[ti+1].TS
			}
			var last trace.Timestamp = tr.TS
			for _, fi := range fs {
				f := d.Flows[fi]
				if f.Start > tr.TS {
					break
				}
				if f.End > tr.TS {
					end := f.End
					if end > windowEnd {
						end = windowEnd
					}
					if end > last {
						last = end
					}
				}
			}
			out.Durations = append(out.Durations, last.Sub(tr.TS))
		}
	}
	out.CDF = stats.NewCDF(out.Durations)
	return out
}

// --- Figure 6: background data vs time since foreground ---

// SinceForegroundResult is Figure 6: total background bytes across all apps
// and users as a function of the time since the app was last in the
// foreground, in fixed bins, plus spike diagnostics at the 5- and 10-minute
// marks.
type SinceForegroundResult struct {
	BinWidth     float64
	Offsets      []float64
	Bytes        []float64
	FirstMinute  float64 // fraction of windowed bg bytes in the first 60 s
	Spike5m      float64 // periodic.SpikeScore at the 5-minute bin
	Spike10m     float64
	TotalBgBytes float64 // all binned bg bytes
}

// SinceForeground computes Figure 6 with the given bin width and horizon
// (both seconds).
func SinceForeground(devs []*DeviceData, binWidth, horizon float64) SinceForegroundResult {
	tb := stats.NewTimeBins(binWidth, int(horizon/binWidth))
	for _, d := range devs {
		fg := newAppMemo(func(app uint32) *procstate.Cursor {
			c := d.Tracker.Cursor(app)
			return &c
		})
		for i := range d.Energy.Packets {
			p := &d.Energy.Packets[i]
			if !p.State.IsBackground() {
				continue
			}
			fgEnd, ok := fg.get(p.App).LastForegroundEnd(p.TS)
			if !ok {
				continue // never-foreground apps are outside this figure
			}
			tb.Add(p.TS.Sub(fgEnd), float64(p.Bytes))
		}
	}
	offs, vals := tb.Series()
	res := SinceForegroundResult{BinWidth: binWidth, Offsets: offs, Bytes: vals}
	res.TotalBgBytes = stats.Sum(vals)
	if res.TotalBgBytes > 0 {
		var first float64
		for i := range offs {
			if offs[i] < 60 {
				first += vals[i]
			}
		}
		res.FirstMinute = first / res.TotalBgBytes
	}
	res.Spike5m = periodic.SpikeScore(vals, int(300/binWidth), 6)
	res.Spike10m = periodic.SpikeScore(vals, int(600/binWidth), 6)
	return res
}

// FirstMinuteShare computes, per app, the fraction of its background bytes
// sent within windowSec of leaving the foreground, and returns the
// fraction of apps for which that share is at least threshold — the §4.1
// "84% of apps" criterion. Apps with no background bytes after a foreground
// exit are skipped; never-foregrounded apps count as failing (their traffic
// is all far from any foreground use).
type FirstMinuteResult struct {
	PerApp   map[string]float64 // app -> share of bg bytes in first window
	Meeting  int                // apps meeting the criterion
	Total    int                // apps with background traffic
	Fraction float64
}

// FirstMinute computes the criterion across the fleet.
func FirstMinute(devs []*DeviceData, windowSec, threshold float64) FirstMinuteResult {
	// One accumulator per app name, fleet-wide; each device's apps reach
	// theirs, and their foreground cursor, through the memo.
	type appShare struct {
		early, total float64
		everFg       bool
	}
	type appWalk struct {
		acc *appShare
		fg  procstate.Cursor
	}
	byName := map[string]*appShare{}
	for _, d := range devs {
		apps := newAppMemo(func(app uint32) *appWalk {
			name := d.Apps.Name(app)
			acc := byName[name]
			if acc == nil {
				acc = &appShare{}
				byName[name] = acc
			}
			return &appWalk{acc: acc, fg: d.Tracker.Cursor(app)}
		})
		for i := range d.Energy.Packets {
			p := &d.Energy.Packets[i]
			if !p.State.IsBackground() {
				continue
			}
			a := apps.get(p.App)
			a.acc.total += float64(p.Bytes)
			fgEnd, ok := a.fg.LastForegroundEnd(p.TS)
			if !ok {
				continue
			}
			a.acc.everFg = true
			if p.TS.Sub(fgEnd) <= windowSec {
				a.acc.early += float64(p.Bytes)
			}
		}
	}
	res := FirstMinuteResult{PerApp: map[string]float64{}}
	for name, acc := range byName {
		if acc.total <= 0 {
			continue
		}
		share := acc.early / acc.total
		if !acc.everFg {
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

// BrowserShares returns each browser package's background energy fraction
// (§4.1: Chrome ~30%, Firefox and the stock browser near zero).
func BrowserShares(devs []*DeviceData, packages []string) map[string]float64 {
	eBg := map[string]float64{}
	eTot := map[string]float64{}
	for _, d := range devs {
		for app, states := range d.Energy.Ledger.ByAppState {
			name := d.Apps.Name(app)
			for s, e := range states {
				eTot[name] += e
				if s.IsBackground() {
					eBg[name] += e
				}
			}
		}
	}
	out := map[string]float64{}
	for _, pkg := range packages {
		if eTot[pkg] > 0 {
			out[pkg] = eBg[pkg] / eTot[pkg]
		} else {
			out[pkg] = 0
		}
	}
	return out
}

// sortedKeys returns m's keys in ascending order. Report and serialization
// loops iterate maps through it so their output is a pure function of the
// map's content, never of iteration order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	//repolint:ordered collection order is irrelevant: keys are sorted before return
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
