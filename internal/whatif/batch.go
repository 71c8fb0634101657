package whatif

import (
	"sort"

	"netenergy/internal/analysis"
	"netenergy/internal/radio"
	"netenergy/internal/trace"
)

// BatchResult quantifies the paper's §6 recommendation — "app developers
// should continue to batch traffic to minimize the frequency of background
// updates" — by coalescing each app's background bursts into groups of
// Factor and re-accounting the radio energy. Data volume and content are
// unchanged; only timing moves (updates are delayed to the end of their
// batch window, the tradeoff the paper discusses).
type BatchResult struct {
	Factor    int
	BaselineJ float64
	BatchedJ  float64
	SavedJ    float64
	SavedPct  float64
	// MaxDelayS is the largest delay any burst experienced (the
	// staleness cost of batching).
	MaxDelayS float64
}

// MaxDeferS bounds how long a burst may be delayed by batching: groups are
// split rather than deferring an update by more than this (2 h). Without a
// bound, batching across multi-day idle gaps would imply absurd staleness.
const MaxDeferS = 7200

// SimulateBatching re-times one device's background packets so that every
// run of up to `factor` consecutive background bursts of an app (within a
// MaxDeferS window) is emitted together at the last burst's time, then
// re-accounts energy over the merged stream (foreground packets keep their
// original times).
func SimulateBatching(d *analysis.DeviceData, p radio.Params, factor int) BatchResult {
	res := BatchResult{Factor: factor, BaselineJ: d.Energy.Ledger.Total}
	if factor < 2 {
		res.BatchedJ = res.BaselineJ
		return res
	}

	type ev struct {
		ts    float64
		bytes int
		dir   radio.Dir
	}
	var evs []ev

	// Group each app's background packets into bursts (15 s gap), then
	// shift each burst to the end of its batch group.
	type appPkt struct {
		ts    float64
		bytes int
		dir   radio.Dir
	}
	byApp := map[uint32][]appPkt{}
	for i := range d.Energy.Packets {
		pkt := &d.Energy.Packets[i]
		dir := radio.Down
		if pkt.Dir == trace.DirUp {
			dir = radio.Up
		}
		if !pkt.State.IsBackground() {
			evs = append(evs, ev{pkt.TS.Seconds(), pkt.Bytes, dir})
			continue
		}
		byApp[pkt.App] = append(byApp[pkt.App], appPkt{pkt.TS.Seconds(), pkt.Bytes, dir})
	}
	const burstGap = 15.0
	// Process apps in ascending ID order: the evs sort below keys only on
	// timestamp, so same-instant packets from different apps would
	// otherwise be replayed in map-iteration (run-dependent) order.
	for _, app := range sortedKeys(byApp) {
		pkts := byApp[app]
		// Burst boundaries.
		var burstStart []int
		for i := range pkts {
			if i == 0 || pkts[i].ts-pkts[i-1].ts > burstGap {
				burstStart = append(burstStart, i)
			}
		}
		// Walk bursts in groups of up to `factor`, splitting a group when
		// the deferral bound would be exceeded; shift each burst in a
		// group to the anchor (last burst of the group), preserving
		// intra-burst spacing.
		for g := 0; g < len(burstStart); {
			lastIdx := g
			first := pkts[burstStart[g]].ts
			for lastIdx+1 < len(burstStart) && lastIdx-g+1 < factor &&
				pkts[burstStart[lastIdx+1]].ts-first <= MaxDeferS {
				lastIdx++
			}
			anchor := pkts[burstStart[lastIdx]].ts
			for b := g; b <= lastIdx; b++ {
				start := burstStart[b]
				end := len(pkts)
				if b+1 < len(burstStart) {
					end = burstStart[b+1]
				}
				base := pkts[start].ts
				delay := anchor - base
				if delay > res.MaxDelayS {
					res.MaxDelayS = delay
				}
				for i := start; i < end; i++ {
					evs = append(evs, ev{pkts[i].ts + delay, pkts[i].bytes, pkts[i].dir})
				}
			}
			g = lastIdx + 1
		}
	}

	sort.Slice(evs, func(i, j int) bool { return evs[i].ts < evs[j].ts })
	acct := radio.NewAccountant(p)
	for _, e := range evs {
		acct.OnPacket(e.ts, e.bytes, e.dir)
	}
	acct.Finish()
	res.BatchedJ = acct.TotalEnergy()
	res.SavedJ = res.BaselineJ - res.BatchedJ
	if res.BaselineJ > 0 {
		res.SavedPct = 100 * res.SavedJ / res.BaselineJ
	}
	return res
}

// SimulateBatchingFleet aggregates the batching policy over every device.
func SimulateBatchingFleet(devs []*analysis.DeviceData, p radio.Params, factor int) BatchResult {
	agg := BatchResult{Factor: factor}
	for _, d := range devs {
		r := SimulateBatching(d, p, factor)
		agg.BaselineJ += r.BaselineJ
		agg.BatchedJ += r.BatchedJ
		agg.SavedJ += r.SavedJ
		if r.MaxDelayS > agg.MaxDelayS {
			agg.MaxDelayS = r.MaxDelayS
		}
	}
	if agg.BaselineJ > 0 {
		agg.SavedPct = 100 * agg.SavedJ / agg.BaselineJ
	}
	return agg
}
