package procstate

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"netenergy/internal/rng"
	"netenergy/internal/trace"
)

const us = trace.Timestamp(1_000_000) // one second in timestamp units

func buildTracker() *Tracker {
	t := NewTracker()
	// App 1: launched, foregrounded, backgrounded, serviced, foregrounded again.
	t.Observe(1, 10*us, trace.StateForeground)
	t.Observe(1, 100*us, trace.StateBackground)
	t.Observe(1, 200*us, trace.StateService)
	t.Observe(1, 300*us, trace.StateForeground)
	t.Observe(1, 400*us, trace.StateBackground)
	// App 2: pure background service.
	t.Observe(2, 50*us, trace.StateService)
	return t
}

func TestStateAt(t *testing.T) {
	tr := buildTracker()
	cases := []struct {
		ts   trace.Timestamp
		want trace.ProcState
	}{
		{5 * us, trace.StateUnknown},
		{10 * us, trace.StateForeground},
		{99 * us, trace.StateForeground},
		{100 * us, trace.StateBackground},
		{250 * us, trace.StateService},
		{1000 * us, trace.StateBackground},
	}
	for _, tc := range cases {
		if got := tr.StateAt(1, tc.ts); got != tc.want {
			t.Errorf("StateAt(1, %d) = %v, want %v", tc.ts, got, tc.want)
		}
	}
	if got := tr.StateAt(99, 500*us); got != trace.StateUnknown {
		t.Errorf("unknown app state = %v", got)
	}
}

func TestTimeline(t *testing.T) {
	tr := buildTracker()
	tl := tr.Timeline(1, 500*us)
	want := []Interval{
		{10 * us, 100 * us, trace.StateForeground},
		{100 * us, 200 * us, trace.StateBackground},
		{200 * us, 300 * us, trace.StateService},
		{300 * us, 400 * us, trace.StateForeground},
		{400 * us, 500 * us, trace.StateBackground},
	}
	if len(tl) != len(want) {
		t.Fatalf("timeline %v", tl)
	}
	for i := range want {
		if tl[i] != want[i] {
			t.Errorf("interval %d = %v, want %v", i, tl[i], want[i])
		}
	}
	if tr.Timeline(42, 100*us) != nil {
		t.Error("unknown app should have nil timeline")
	}
}

func TestTimelineMergesSameState(t *testing.T) {
	tr := NewTracker()
	tr.Observe(1, 10*us, trace.StateService)
	tr.Observe(1, 20*us, trace.StateService) // duplicate
	tr.Observe(1, 30*us, trace.StateBackground)
	tl := tr.Timeline(1, 40*us)
	if len(tl) != 2 {
		t.Fatalf("timeline = %v", tl)
	}
	if tl[0].End != 30*us {
		t.Errorf("merged interval end = %v", tl[0].End)
	}
}

func TestBackgroundTransitions(t *testing.T) {
	tr := buildTracker()
	trans := tr.BackgroundTransitions(1)
	if len(trans) != 2 {
		t.Fatalf("transitions = %v", trans)
	}
	if trans[0].TS != 100*us || trans[1].TS != 400*us {
		t.Errorf("transition times = %v", trans)
	}
	if len(tr.BackgroundTransitions(2)) != 0 {
		t.Error("service-only app should have no fg->bg transitions")
	}
}

func TestLastForegroundEnd(t *testing.T) {
	tr := buildTracker()
	// At t=250, last foreground ended at t=100.
	ts, ok := tr.LastForegroundEnd(1, 250*us)
	if !ok || ts != 100*us {
		t.Errorf("LastForegroundEnd(250) = %v %v", ts, ok)
	}
	// While foreground: clamps to query time.
	ts, ok = tr.LastForegroundEnd(1, 350*us)
	if !ok || ts != 350*us {
		t.Errorf("LastForegroundEnd(350) = %v %v", ts, ok)
	}
	// Before any foreground.
	if _, ok := tr.LastForegroundEnd(2, 500*us); ok {
		t.Error("app 2 never foregrounded")
	}
	if _, ok := tr.LastForegroundEnd(1, 5*us); ok {
		t.Error("before first observation")
	}
}

func TestOutOfOrderObservations(t *testing.T) {
	tr := NewTracker()
	tr.Observe(1, 100*us, trace.StateBackground)
	tr.Observe(1, 10*us, trace.StateForeground) // late arrival
	if got := tr.StateAt(1, 50*us); got != trace.StateForeground {
		t.Errorf("StateAt after out-of-order = %v", got)
	}
	if got := tr.StateAt(1, 150*us); got != trace.StateBackground {
		t.Errorf("StateAt(150) = %v", got)
	}
}

// TestObserveOrderIsStableSort: events observed in any order are served as
// a stable sort of the arrival order would leave them — equal timestamps
// keep their arrival order, so the later observation decides the state.
func TestObserveOrderIsStableSort(t *testing.T) {
	src := rng.New(7)
	for trial := 0; trial < 50; trial++ {
		tr := NewTracker()
		var want []event
		for i, n := 0, 1+src.Intn(60); i < n; i++ {
			e := event{trace.Timestamp(src.Intn(20)) * us, trace.ProcState(1 + src.Intn(5))}
			tr.Observe(1, e.ts, e.state)
			want = append(want, e)
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].ts < want[j].ts })
		if !reflect.DeepEqual(tr.events[1], want) {
			t.Fatalf("trial %d: events %v, a stable sort gives %v", trial, tr.events[1], want)
		}
	}
}

// TestConcurrentReadsAfterOutOfOrder: once fed, a Tracker is read-only —
// every query may run from several goroutines at once (run under -race),
// late observations included.
func TestConcurrentReadsAfterOutOfOrder(t *testing.T) {
	tr := NewTracker()
	for s := 19; s >= 0; s-- { // latest session first
		t0 := trace.Timestamp(s*100) * us
		tr.Observe(1, t0+50*us, trace.StateBackground)
		tr.Observe(1, t0+10*us, trace.StateForeground)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := tr.StateAt(1, 1030*us); got != trace.StateForeground {
				t.Errorf("StateAt = %v", got)
			}
			if got := len(tr.BackgroundTransitions(1)); got != 20 {
				t.Errorf("%d background transitions, want 20", got)
			}
			if end, ok := tr.LastForegroundEnd(1, 1070*us); !ok || end != 1050*us {
				t.Errorf("LastForegroundEnd = %v, %v", end, ok)
			}
			if got := len(tr.Timeline(1, 2000*us)); got != 40 {
				t.Errorf("%d timeline intervals, want 40", got)
			}
		}()
	}
	wg.Wait()
}

func TestApps(t *testing.T) {
	tr := buildTracker()
	apps := tr.Apps()
	if len(apps) != 2 || apps[0] != 1 || apps[1] != 2 {
		t.Errorf("Apps = %v", apps)
	}
}

func TestFromTrace(t *testing.T) {
	dt := &trace.DeviceTrace{Device: "d", Start: 0, Apps: trace.NewAppTable()}
	dt.Records = []trace.Record{
		{Type: trace.RecProcState, TS: 10 * us, App: 1, State: trace.StateForeground},
		{Type: trace.RecPacket, TS: 20 * us, App: 1, State: trace.StateForeground},
		{Type: trace.RecProcState, TS: 30 * us, App: 1, State: trace.StateBackground},
	}
	tr := FromTrace(dt)
	if tr.StateAt(1, 25*us) != trace.StateForeground {
		t.Error("FromTrace missed an event")
	}
	if got := len(tr.BackgroundTransitions(1)); got != 1 {
		t.Errorf("transitions = %d", got)
	}
}

func TestTimelineTilesAndMatchesStateAt(t *testing.T) {
	// Property: timeline intervals are contiguous, non-overlapping, cover
	// [firstEvent, end), and agree with StateAt at every probe point.
	src := rng.New(33)
	for trial := 0; trial < 30; trial++ {
		tr := NewTracker()
		n := 2 + src.Intn(40)
		ts := trace.Timestamp(0)
		var first trace.Timestamp = -1
		for i := 0; i < n; i++ {
			ts += trace.Timestamp(1+src.Intn(1000)) * us
			if first < 0 {
				first = ts
			}
			tr.Observe(1, ts, trace.ProcState(1+src.Intn(5)))
		}
		end := ts + 1000*us
		tl := tr.Timeline(1, end)
		if len(tl) == 0 {
			t.Fatal("empty timeline")
		}
		if tl[0].Start != first || tl[len(tl)-1].End != end {
			t.Fatalf("timeline bounds [%d,%d) want [%d,%d)", tl[0].Start, tl[len(tl)-1].End, first, end)
		}
		for i := 1; i < len(tl); i++ {
			if tl[i].Start != tl[i-1].End {
				t.Fatalf("gap/overlap between %v and %v", tl[i-1], tl[i])
			}
			if tl[i].State == tl[i-1].State {
				t.Fatalf("unmerged equal states at %d", i)
			}
		}
		for probe := 0; probe < 50; probe++ {
			p := first + trace.Timestamp(src.Intn(int(end-first)))
			want := tr.StateAt(1, p)
			var got trace.ProcState
			for _, iv := range tl {
				if iv.Start <= p && p < iv.End {
					got = iv.State
					break
				}
			}
			if got != want {
				t.Fatalf("probe %d: timeline %v vs StateAt %v", p, got, want)
			}
		}
	}
}
