// Package whatif implements the paper's §5 what-if analysis: if the OS
// preemptively killed apps that have stayed in the background for several
// consecutive days, how much network energy would be saved?
//
// The simulation replays each device's per-day app ledgers under a policy
// "suppress the app's background traffic once it has gone killAfter
// consecutive days without foreground traffic; a foreground day revives
// it", and reports the Table 2 rows: the fraction of days with only
// background traffic (row A), the longest consecutive run of such days
// bounded by foreground activity (row B), and the average per-user energy
// reduction (row C).
package whatif

import (
	"cmp"
	"slices"
	"sort"

	"netenergy/internal/analysis"
)

// dayKind classifies one (device, app, day).
type dayKind uint8

const (
	daySilent dayKind = iota // no traffic from the app
	dayBgOnly                // background traffic only
	dayFg                    // some foreground traffic
)

// AppResult is one Table 2 column (the table is transposed: apps are
// columns in the paper).
type AppResult struct {
	App   string
	Label string
	Users int // devices where the app produced traffic

	// PctBgOnlyDays is row A: of the days with any traffic from the app,
	// the percentage with only background traffic.
	PctBgOnlyDays float64

	// MaxConsecutiveBgDays is row B: the longest run of background-only
	// days bounded by foreground-traffic days on both sides, maximised
	// over users.
	MaxConsecutiveBgDays int

	// AvgEnergyReductionPct is row C: killing the app after killAfter
	// consecutive non-foreground days, the app-level energy reduction
	// averaged over users.
	AvgEnergyReductionPct float64

	// FleetEnergyReductionPct is the suppressed energy as a share of the
	// whole fleet's energy (the paper's "<1% overall" observation).
	FleetEnergyReductionPct float64

	// DeviceShareOnSuppressedDaysPct is the suppressed energy as a share
	// of the owning devices' total energy on the suppressed days (the
	// paper's "16% on those days" for Weibo).
	DeviceShareOnSuppressedDaysPct float64
}

// appDays returns the classified day sequence and day-index bounds for an
// app on one device.
func appDays(d *analysis.DeviceData, app uint32) (map[int]dayKind, []int) {
	days := d.Energy.Ledger.ByAppDay[app]
	kinds := make(map[int]dayKind, len(days))
	var idx []int
	//repolint:ordered idx is sorted below and kinds is keyed by day; iteration order cannot reach either output
	for day, ds := range days {
		if ds.Packets == 0 {
			continue
		}
		if ds.FgBytes > 0 {
			kinds[day] = dayFg
		} else {
			kinds[day] = dayBgOnly
		}
		idx = append(idx, day)
	}
	sort.Ints(idx)
	return kinds, idx
}

// maxBoundedRun returns the longest run of bg-only days bounded by fg days
// on both sides (silent days inside a run do not extend it but do not
// break boundedness either, matching "the maximum number of such days
// occurring consecutively").
func maxBoundedRun(kinds map[int]dayKind, idx []int) int {
	best := 0
	lastFg := -1
	run := 0
	for _, day := range idx {
		switch kinds[day] {
		case dayFg:
			if lastFg >= 0 && run > best {
				best = run
			}
			lastFg = day
			run = 0
		case dayBgOnly:
			if lastFg >= 0 {
				run++
			}
		}
	}
	return best
}

// simulateKill walks the day range and returns the suppressed energy and
// the suppressed days in ascending order, under the kill-after-N policy. Consecutive
// non-foreground days (background-only or silent) accumulate; once the
// count exceeds killAfter, background energy on subsequent days is
// suppressed until a foreground day revives the app.
func simulateKill(d *analysis.DeviceData, app uint32, killAfter int) (saved float64, suppressed []int) {
	ledger := d.Energy.Ledger.ByAppDay[app]
	if len(ledger) == 0 {
		return 0, nil
	}
	firstDay := d.Span[0].Day()
	lastDay := d.Span[1].Day()
	nonFg := 0
	for day := firstDay; day <= lastDay; day++ {
		ds := ledger[day]
		isFg := ds != nil && ds.FgBytes > 0
		if isFg {
			nonFg = 0
			continue
		}
		nonFg++
		if nonFg > killAfter && ds != nil {
			saved += ds.BgEnergy
			suppressed = append(suppressed, day)
		}
	}
	return saved, suppressed
}

// Evaluate computes Table 2 for the given packages under a
// kill-after-killAfter-days policy.
func Evaluate(devs []*analysis.DeviceData, packages, labels []string, killAfter int) []AppResult {
	fleetTotal := 0.0
	for _, d := range devs {
		fleetTotal += d.Energy.Ledger.Total
	}
	out := make([]AppResult, 0, len(packages))
	for i, pkg := range packages {
		r := AppResult{App: pkg, Label: pkg}
		if labels != nil && i < len(labels) && labels[i] != "" {
			r.Label = labels[i]
		}
		var bgOnlyDays, trafficDays int
		var reductions []float64
		var savedTotal float64
		var deviceEnergyOnSuppressed, savedOnSuppressed float64
		for _, d := range devs {
			app, ok := d.Apps.Lookup(pkg)
			if !ok {
				continue
			}
			kinds, idx := appDays(d, app)
			if len(idx) == 0 {
				continue
			}
			r.Users++
			trafficDays += len(idx)
			for _, day := range idx {
				if kinds[day] == dayBgOnly {
					bgOnlyDays++
				}
			}
			if run := maxBoundedRun(kinds, idx); run > r.MaxConsecutiveBgDays {
				r.MaxConsecutiveBgDays = run
			}
			saved, supp := simulateKill(d, app, killAfter)
			savedTotal += saved
			appTotal := d.Energy.Ledger.ByApp[app]
			if appTotal > 0 {
				reductions = append(reductions, 100*saved/appTotal)
			}
			// Device-wide energy on the suppressed days.
			apps := sortedKeys(d.Energy.Ledger.ByAppDay)
			for _, day := range supp {
				for _, a := range apps {
					if ds := d.Energy.Ledger.ByAppDay[a][day]; ds != nil {
						deviceEnergyOnSuppressed += ds.Energy
					}
				}
			}
			savedOnSuppressed += saved
		}
		if trafficDays > 0 {
			r.PctBgOnlyDays = 100 * float64(bgOnlyDays) / float64(trafficDays)
		}
		if len(reductions) > 0 {
			var sum float64
			for _, v := range reductions {
				sum += v
			}
			r.AvgEnergyReductionPct = sum / float64(len(reductions))
		}
		if fleetTotal > 0 {
			r.FleetEnergyReductionPct = 100 * savedTotal / fleetTotal
		}
		if deviceEnergyOnSuppressed > 0 {
			r.DeviceShareOnSuppressedDaysPct = 100 * savedOnSuppressed / deviceEnergyOnSuppressed
		}
		out = append(out, r)
	}
	return out
}

// Sweep evaluates total fleet savings for each kill threshold, for the
// threshold-sensitivity ablation (extends §5).
type SweepPoint struct {
	KillAfterDays int
	FleetSavedJ   float64
	FleetSavedPct float64
}

// SweepThresholds runs the policy for thresholds 1..maxDays over every app
// that produced traffic, summing fleet-wide suppressed energy.
func SweepThresholds(devs []*analysis.DeviceData, maxDays int) []SweepPoint {
	fleetTotal := 0.0
	for _, d := range devs {
		fleetTotal += d.Energy.Ledger.Total
	}
	out := make([]SweepPoint, 0, maxDays)
	for k := 1; k <= maxDays; k++ {
		var saved float64
		for _, d := range devs {
			for _, app := range sortedKeys(d.Energy.Ledger.ByAppDay) {
				s, _ := simulateKill(d, app, k)
				saved += s
			}
		}
		p := SweepPoint{KillAfterDays: k, FleetSavedJ: saved}
		if fleetTotal > 0 {
			p.FleetSavedPct = 100 * saved / fleetTotal
		}
		out = append(out, p)
	}
	return out
}

// PerUserSavings returns, for each device, the fraction of its total
// energy recovered by the kill-after-N-days policy applied to all apps —
// the distribution behind the paper's observation that "how much users
// benefit ... depends greatly on the set of apps involved and on user
// behavior".
func PerUserSavings(devs []*analysis.DeviceData, killAfter int) []float64 {
	out := make([]float64, 0, len(devs))
	for _, d := range devs {
		var saved float64
		for _, app := range sortedKeys(d.Energy.Ledger.ByAppDay) {
			s, _ := simulateKill(d, app, killAfter)
			saved += s
		}
		if total := d.Energy.Ledger.Total; total > 0 {
			out = append(out, saved/total)
		} else {
			out = append(out, 0)
		}
	}
	return out
}

// Candidate is an app recommended for isolation on one device: it has gone
// long stretches without foreground use while spending real background
// energy — the apps ZapDroid (cited by the paper as concurrent work) would
// quarantine.
type Candidate struct {
	Device      string
	App         string
	MaxIdleRun  int     // longest run of consecutive non-foreground days with traffic
	BgEnergyJ   float64 // background energy over the study
	ShareOfDev  float64 // fraction of the device's total energy
	SavingsEstJ float64 // energy a 3-day kill policy would recover
}

// IsolationCandidates scans the fleet for apps idle for at least
// minIdleDays consecutive days while consuming at least minBgJ of
// background energy, ranked by estimated savings.
func IsolationCandidates(devs []*analysis.DeviceData, minIdleDays int, minBgJ float64) []Candidate {
	var out []Candidate
	for _, d := range devs {
		devTotal := d.Energy.Ledger.Total
		//repolint:ordered candidates are fully ordered by the sort below: savings, then the unique (device, app) pair
		for app, days := range d.Energy.Ledger.ByAppDay {
			kinds, idx := appDays(d, app)
			if len(idx) == 0 {
				continue
			}
			run, maxRun := 0, 0
			var bgJ float64
			for _, day := range idx {
				if kinds[day] == dayFg {
					run = 0
				} else {
					run++
					if run > maxRun {
						maxRun = run
					}
				}
				bgJ += days[day].BgEnergy
			}
			if maxRun < minIdleDays || bgJ < minBgJ {
				continue
			}
			saved, _ := simulateKill(d, app, 3)
			c := Candidate{
				Device: d.Device, App: d.Apps.Name(app),
				MaxIdleRun: maxRun, BgEnergyJ: bgJ, SavingsEstJ: saved,
			}
			if devTotal > 0 {
				c.ShareOfDev = bgJ / devTotal
			}
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SavingsEstJ != out[j].SavingsEstJ {
			return out[i].SavingsEstJ > out[j].SavingsEstJ
		}
		if out[i].Device != out[j].Device {
			return out[i].Device < out[j].Device
		}
		return out[i].App < out[j].App
	})
	return out
}

// sortedKeys returns m's keys in ascending order. Float sums over a map fold
// in this order: Go randomizes map iteration, and a float sum taken in a
// different order can differ in the last place.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	//repolint:ordered collection order is irrelevant: keys are sorted before return
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
