package usermodel

import (
	"testing"

	"netenergy/internal/appmodel"
	"netenergy/internal/rng"
	"netenergy/internal/trace"
)

func build(t *testing.T, seed uint64, days int) (*User, []appmodel.Profile) {
	t.Helper()
	profiles := appmodel.AllProfiles()
	cfg := Config{Days: days, ActivityScale: 1}
	u := Build("u01", rng.New(seed), profiles, cfg)
	return u, profiles
}

func TestBuildDeterministic(t *testing.T) {
	a, _ := build(t, 42, 14)
	b, _ := build(t, 42, 14)
	if len(a.Installed) != len(b.Installed) {
		t.Fatal("installs differ across identical seeds")
	}
	for pi, sa := range a.Sessions {
		sb := b.Sessions[pi]
		if len(sa) != len(sb) {
			t.Fatalf("app %d sessions differ: %d vs %d", pi, len(sa), len(sb))
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("session %d differs", i)
			}
		}
	}
}

func TestUsersDiffer(t *testing.T) {
	a, _ := build(t, 1, 14)
	b, _ := build(t, 2, 14)
	if len(a.Installed) == len(b.Installed) {
		same := true
		for i := range a.Installed {
			if a.Installed[i] != b.Installed[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("two users have identical app installs — no diversity")
		}
	}
}

func TestSessionsNonOverlapping(t *testing.T) {
	u, _ := build(t, 3, 28)
	all := u.AllSessions()
	if len(all) < 50 {
		t.Fatalf("only %d sessions in 28 days", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Start < all[i-1].End {
			t.Fatalf("sessions overlap: %v then %v", all[i-1], all[i])
		}
	}
}

func TestSessionsWithinSpan(t *testing.T) {
	days := 14
	u, _ := build(t, 4, days)
	end := trace.Timestamp(0).AddSeconds(float64(days+1) * 86400)
	for _, s := range u.AllSessions() {
		if s.Start < 0 || s.Start > end {
			t.Fatalf("session outside span: %v", s)
		}
		if s.End <= s.Start {
			t.Fatalf("non-positive session: %v", s)
		}
	}
}

func TestPerAppSessionsSorted(t *testing.T) {
	u, _ := build(t, 5, 28)
	for pi, ss := range u.Sessions {
		for i := 1; i < len(ss); i++ {
			if ss[i].Start < ss[i-1].End {
				t.Fatalf("app %d sessions unsorted/overlapping", pi)
			}
		}
	}
}

func TestNeverForegroundAppsHaveNoSessions(t *testing.T) {
	u, profiles := build(t, 6, 28)
	for pi, ss := range u.Sessions {
		if profiles[pi].NeverForeground && len(ss) > 0 {
			t.Errorf("%s has %d sessions but is never-foreground", profiles[pi].Label, len(ss))
		}
	}
}

func TestEngagementGapsProduceIdleDays(t *testing.T) {
	// Weibo-like profiles (UseDaysMean 2, GapDaysMean 11) must show long
	// streaks of unengaged days for at least some seeds.
	profiles := appmodel.AllProfiles()
	weiboIdx := -1
	for i := range profiles {
		if profiles[i].Package == appmodel.PkgWeibo {
			weiboIdx = i
			break
		}
	}
	if weiboIdx < 0 {
		t.Fatal("Weibo profile missing")
	}
	found := false
	for seed := uint64(0); seed < 30 && !found; seed++ {
		u := Build("u", rng.New(seed), profiles, Config{Days: 60, ActivityScale: 1})
		ed := u.EngagedDays[weiboIdx]
		if ed == nil {
			continue // not installed for this seed
		}
		run, maxRun := 0, 0
		for _, e := range ed {
			if !e {
				run++
				if run > maxRun {
					maxRun = run
				}
			} else {
				run = 0
			}
		}
		if maxRun >= 7 {
			found = true
		}
	}
	if !found {
		t.Error("no user showed a >=7-day Weibo idle streak in 30 seeds")
	}
}

func TestDiurnalSessions(t *testing.T) {
	u, _ := build(t, 7, 28)
	night, day := 0, 0
	for _, s := range u.AllSessions() {
		hour := int(s.Start.Seconds()/3600) % 24
		if hour >= 1 && hour < 6 {
			night++
		} else if hour >= 17 && hour < 22 {
			day++
		}
	}
	if night*3 > day {
		t.Errorf("too many night sessions: night=%d evening=%d", night, day)
	}
}

func TestStringSummary(t *testing.T) {
	u, _ := build(t, 8, 7)
	if u.String() == "" {
		t.Error("empty summary")
	}
}
