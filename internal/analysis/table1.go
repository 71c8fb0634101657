package analysis

import (
	"sort"

	"netenergy/internal/periodic"
	"netenergy/internal/trace"
)

// CaseStudy is one row of Table 1: per-day and per-flow energy, flow sizes,
// energy per byte and the detected background update period for one app.
type CaseStudy struct {
	App        string
	Label      string
	JPerDay    float64 // average energy per active day (paper's "MJ/day" column, joules)
	JPerFlow   float64
	MBPerFlow  float64
	UJPerByte  float64 // µJ/B, the paper's "Avg. J/B" column
	Flows      int
	ActiveDays int
	Period     periodic.Period // dominant background update period
}

// CaseStudies computes Table 1 rows for the given packages (with optional
// display labels; pass nil labels to reuse package names). Only background
// traffic drives the period detection, mirroring the paper's focus on
// transfers initiated in the background.
func CaseStudies(devs []*DeviceData, packages, labels []string) []CaseStudy {
	// One pass over each device's flows and packets, bucketed by app id for
	// the requested packages; each row below reads its app's bucket. A
	// table lists a handful of packages, so finding a bucket is a scan.
	type bucket struct {
		app          uint32
		flows        int
		bgBurstTimes []float64 // background uplink times, in packet order
	}
	find := func(bs []*bucket, app uint32) *bucket {
		for _, b := range bs {
			if b.app == app {
				return b
			}
		}
		return nil
	}
	buckets := make([][]*bucket, len(devs))
	for di, d := range devs {
		var bs []*bucket
		for _, pkg := range packages {
			if app, ok := d.Apps.Lookup(pkg); ok && find(bs, app) == nil {
				bs = append(bs, &bucket{app: app})
			}
		}
		buckets[di] = bs
		for _, f := range d.Flows {
			if b := find(bs, f.App); b != nil {
				b.flows++
			}
		}
		for i := range d.Energy.Packets {
			p := &d.Energy.Packets[i]
			if !p.State.IsBackground() || p.Dir != trace.DirUp {
				continue
			}
			if b := find(bs, p.App); b != nil {
				b.bgBurstTimes = append(b.bgBurstTimes, p.TS.Seconds())
			}
		}
	}

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

		for di, d := range devs {
			app, ok := d.Apps.Lookup(pkg)
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
			b := find(buckets[di], app)
			cs.Flows += b.flows
			// Update-period detection is per device: burst schedules are
			// independent across users, so mixing them would destroy the
			// interval structure.
			bursts := periodic.Bursts(b.bgBurstTimes, 15)
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
		// The reported period is the median across devices.
		if len(periods) > 0 {
			sort.Slice(periods, func(i, j int) bool { return periods[i].Seconds < periods[j].Seconds })
			cs.Period = periods[len(periods)/2]
		}
		out = append(out, cs)
	}
	return out
}
