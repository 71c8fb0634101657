// Package usermodel simulates smartphone users: which apps each user has
// installed, multi-day engagement/idle runs per app (the §5 pattern of apps
// left untouched for days while their background services keep polling),
// and the daily phone-pickup sessions that become per-app foreground
// sessions.
//
// The model produces the app-usage diversity the paper observes in
// Figure 1: a handful of apps (media, Facebook, Play) common to everyone,
// and otherwise highly individual top-ten lists.
package usermodel

import (
	"fmt"
	"sort"

	"netenergy/internal/appmodel"
	"netenergy/internal/rng"
	"netenergy/internal/trace"
)

// Config controls user synthesis.
type Config struct {
	Start trace.Timestamp
	Days  int
	// ActivityScale multiplies every app's SessionsPerDay, modelling
	// lighter or heavier phone users; each user additionally gets an
	// individual multiplier around this value. 1.0 is the paper-calibrated
	// default.
	ActivityScale float64
}

// User is one synthesised user: installed apps and their foreground
// session schedules.
type User struct {
	ID        string
	Installed []int                      // indexes into the profile slice
	Sessions  map[int][]appmodel.Session // profile index -> sorted sessions
	// EngagedDays[profileIdx][day] reports whether the user was actively
	// using the app that day (foreground sessions only happen on engaged
	// days); exposed for tests and what-if analyses.
	EngagedDays map[int][]bool
}

// diurnalWeights is the relative likelihood of a pickup starting in each
// hour of the day: quiet nights, morning rise, evening peak.
var diurnalWeights = []float64{
	0.3, 0.15, 0.1, 0.08, 0.08, 0.2, 0.6, 1.2, // 00-07
	1.8, 1.8, 1.6, 1.6, 1.9, 1.8, 1.6, 1.6, // 08-15
	1.8, 2.1, 2.4, 2.6, 2.8, 2.6, 1.9, 0.9, // 16-23
}

// Build synthesises one user. The source should be a per-user split of the
// study seed so users are independent and reproducible.
func Build(id string, src *rng.Source, profiles []appmodel.Profile, cfg Config) *User {
	u := &User{
		ID:          id,
		Sessions:    make(map[int][]appmodel.Session),
		EngagedDays: make(map[int][]bool),
	}
	// Install decisions.
	for i := range profiles {
		if src.Bool(profiles[i].InstallProb) {
			u.Installed = append(u.Installed, i)
		}
	}
	// Per-app engagement runs: alternating engaged/idle streaks in days.
	for _, pi := range u.Installed {
		p := &profiles[pi]
		if p.NeverForeground {
			continue
		}
		days := make([]bool, cfg.Days)
		engaged := src.Bool(0.6)
		d := 0
		for d < cfg.Days {
			var run int
			if engaged {
				run = 1 + int(src.Exp(p.UseDaysMean))
			} else {
				run = 1 + int(src.Exp(p.GapDaysMean))
			}
			for i := 0; i < run && d < cfg.Days; i++ {
				days[d] = engaged
				d++
			}
			engaged = !engaged
		}
		u.EngagedDays[pi] = days
	}

	// Per-(user, app) affinity so users differ in which apps dominate.
	affinity := make(map[int]float64)
	for _, pi := range u.Installed {
		affinity[pi] = src.LogNormalMean(1, 0.7)
	}

	hourPick := rng.NewCategorical(src, diurnalWeights)
	scale := cfg.ActivityScale
	if scale <= 0 {
		scale = 1
	}
	scale = src.Jitter(scale, 0.4)

	type sess struct {
		pi         int
		start, end trace.Timestamp
	}
	var all []sess
	for day := 0; day < cfg.Days; day++ {
		for _, pi := range u.Installed {
			p := &profiles[pi]
			if p.NeverForeground {
				continue
			}
			if ed := u.EngagedDays[pi]; ed != nil && !ed[day] {
				continue
			}
			n := src.Poisson(p.SessionsPerDay * affinity[pi] * scale)
			for i := 0; i < n; i++ {
				hour := hourPick.Next()
				startSec := float64(day)*86400 + float64(hour)*3600 + src.Float64()*3600
				dur := src.LogNormalMean(p.SessionMean, 0.8)
				if dur < 5 {
					dur = 5
				}
				start := cfg.Start.AddSeconds(startSec)
				all = append(all, sess{pi: pi, start: start, end: start.AddSeconds(dur)})
			}
		}
	}

	// One foreground app at a time: sort by start and drop overlaps.
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	var lastEnd trace.Timestamp
	for _, s := range all {
		if s.start < lastEnd {
			continue
		}
		u.Sessions[s.pi] = append(u.Sessions[s.pi], appmodel.Session{Start: s.start, End: s.end})
		lastEnd = s.end
	}
	return u
}

// AllSessions returns every session of the user across apps, sorted by
// start time — the phone's overall usage timeline (used for screen events).
func (u *User) AllSessions() []appmodel.Session {
	// Walk profiles in index order: the sort below is not stable and keys
	// only on Start, so two sessions starting at the same instant would
	// otherwise land in map-iteration (run-dependent) order.
	pis := make([]int, 0, len(u.Sessions))
	//repolint:ordered collection order is irrelevant: indexes are sorted before use
	for pi := range u.Sessions {
		pis = append(pis, pi)
	}
	sort.Ints(pis)
	var out []appmodel.Session
	for _, pi := range pis {
		out = append(out, u.Sessions[pi]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// String summarises the user.
func (u *User) String() string {
	n := 0
	for _, ss := range u.Sessions {
		n += len(ss)
	}
	return fmt.Sprintf("user %s: %d apps installed, %d sessions", u.ID, len(u.Installed), n)
}
