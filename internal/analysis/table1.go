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
	// the requested packages; each row below reads its app's bucket.
	flowCount := make([][]int, len(devs))
	bgBurstTimes := make([][][]float64, len(devs)) // background uplink times, in packet order
	for di, d := range devs {
		n := d.Apps.Len()
		flowCount[di], bgBurstTimes[di] = make([]int, n), make([][]float64, n)
		wanted := make([]bool, n)
		for _, pkg := range packages {
			if app, ok := d.appID(pkg); ok {
				wanted[app] = true
			}
		}
		for _, f := range d.Flows {
			if int(f.App) < n {
				flowCount[di][f.App]++
			}
		}
		for i := range d.Energy.Packets {
			p := &d.Energy.Packets[i]
			if int(p.App) < n && wanted[p.App] && p.State.IsBackground() && p.Dir == trace.DirUp {
				bgBurstTimes[di][p.App] = append(bgBurstTimes[di][p.App], p.TS.Seconds())
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
			cs.Flows += flowCount[di][app]
			// Update-period detection is per device: burst schedules are
			// independent across users, so mixing them would destroy the
			// interval structure.
			bursts := periodic.Bursts(bgBurstTimes[di][app], 15)
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
