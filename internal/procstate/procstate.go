// Package procstate reconstructs per-app Android process-state timelines
// from the collector's RecProcState events, and answers the queries the
// study analyses need: "what state was app X in at time T", "when did it
// last leave the foreground", and "list every foreground→background
// transition".
//
// The five states and their grouping into foreground (foreground, visible)
// and background (perceptible, service, background) follow the paper's §4
// definition exactly.
package procstate

import (
	"sort"

	"netenergy/internal/trace"
)

// event is one observed state change.
type event struct {
	ts    trace.Timestamp
	state trace.ProcState
}

// Tracker accumulates process-state events for all apps on one device and
// serves point-in-time and transition queries. Observe keeps each app's
// events in timestamp order as they arrive (the trace format delivers them
// in order; a late observation is inserted where it belongs), so every
// query is a pure read and any number of goroutines may query a Tracker
// that is no longer being fed.
type Tracker struct {
	events map[uint32][]event
}

// NewTracker returns an empty Tracker.
func NewTracker() *Tracker {
	return &Tracker{events: make(map[uint32][]event)}
}

// Observe records that app was in state s from ts onward. An observation
// older than the app's latest goes after every event at or before ts, which
// is where a stable sort of the arrival order would put it.
func (t *Tracker) Observe(app uint32, ts trace.Timestamp, s trace.ProcState) {
	evs := append(t.events[app], event{ts, s})
	if n := len(evs) - 1; n > 0 && evs[n-1].ts > ts {
		i := sort.Search(n, func(i int) bool { return evs[i].ts > ts })
		copy(evs[i+1:], evs[i:n])
		evs[i] = event{ts, s}
	}
	t.events[app] = evs
}

// FromTrace builds a Tracker from all RecProcState records in dt.
func FromTrace(dt *trace.DeviceTrace) *Tracker {
	t := NewTracker()
	for i := range dt.Records {
		r := &dt.Records[i]
		if r.Type == trace.RecProcState {
			t.Observe(r.App, r.TS, r.State)
		}
	}
	return t
}

// Apps returns the IDs of all apps with at least one observation.
func (t *Tracker) Apps() []uint32 {
	out := make([]uint32, 0, len(t.events))
	for app := range t.events {
		out = append(out, app)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// StateAt returns the app's state at ts: the state set by the latest event
// at or before ts. Before the first observation it returns StateUnknown.
func (t *Tracker) StateAt(app uint32, ts trace.Timestamp) trace.ProcState {
	evs := t.events[app]
	// Index of first event strictly after ts.
	i := sort.Search(len(evs), func(i int) bool { return evs[i].ts > ts })
	if i == 0 {
		return trace.StateUnknown
	}
	return evs[i-1].state
}

// Interval is a half-open [Start, End) span during which an app held State.
type Interval struct {
	Start, End trace.Timestamp
	State      trace.ProcState
}

// Timeline returns the app's state intervals. The final interval is closed
// at end (pass the trace's end timestamp). Consecutive events with the same
// state are merged.
func (t *Tracker) Timeline(app uint32, end trace.Timestamp) []Interval {
	evs := t.events[app]
	if len(evs) == 0 {
		return nil
	}
	var out []Interval
	cur := Interval{Start: evs[0].ts, State: evs[0].state}
	for _, e := range evs[1:] {
		if e.state == cur.State {
			continue
		}
		cur.End = e.ts
		if cur.End > cur.Start {
			out = append(out, cur)
		}
		cur = Interval{Start: e.ts, State: e.state}
	}
	cur.End = end
	if cur.End > cur.Start {
		out = append(out, cur)
	}
	return out
}

// Transition is one foreground→background transition of an app.
type Transition struct {
	App uint32
	TS  trace.Timestamp // moment the app left the foreground group
}

// BackgroundTransitions returns every time the app moved from a foreground
// state (foreground/visible) to a background state, in time order. These
// are the §4.1 "app sent to the background" instants Figures 5 and 6 are
// built from.
func (t *Tracker) BackgroundTransitions(app uint32) []Transition {
	evs := t.events[app]
	var out []Transition
	for i := 1; i < len(evs); i++ {
		if evs[i-1].state.IsForeground() && evs[i].state.IsBackground() {
			out = append(out, Transition{App: app, TS: evs[i].ts})
		}
	}
	return out
}

// LastForegroundEnd returns the most recent time at or before ts when the
// app was last in a foreground state (i.e. the end of its latest foreground
// interval). ok is false if the app has not been in the foreground by ts.
// It searches the app's events on every call; a walk over time-ordered
// packets asks a Cursor instead, which this is the reference for.
func (t *Tracker) LastForegroundEnd(app uint32, ts trace.Timestamp) (trace.Timestamp, bool) {
	evs := t.events[app]
	i := sort.Search(len(evs), func(i int) bool { return evs[i].ts > ts })
	// Walk backwards to the latest fg->non-fg boundary.
	for j := i - 1; j >= 0; j-- {
		if evs[j].state.IsForeground() {
			if j+1 < len(evs) {
				// Foreground ended when the next event fired (clamped to ts).
				end := evs[j+1].ts
				if end > ts {
					end = ts
				}
				return end, true
			}
			return ts, true // still foreground at ts
		}
	}
	return 0, false
}

// Cursor answers LastForegroundEnd for one app as a forward merge over its
// events: at non-decreasing query times each event is passed once, so a
// walk over a device's time-ordered packets costs amortised O(1) per packet.
// A query earlier than the one before it starts the walk over, so every
// answer equals LastForegroundEnd's whatever the order.
type Cursor struct {
	evs  []event
	next int             // evs[:next] are the events at or before last
	fg   int             // the latest foreground event in evs[:next], or -1
	last trace.Timestamp // the previous query time
}

// Cursor returns a cursor over app's events, before the first of them. The
// Tracker must not be fed while the cursor is in use.
func (t *Tracker) Cursor(app uint32) Cursor {
	return Cursor{evs: t.events[app], fg: -1}
}

// LastForegroundEnd is Tracker.LastForegroundEnd for the cursor's app.
func (c *Cursor) LastForegroundEnd(ts trace.Timestamp) (trace.Timestamp, bool) {
	if ts < c.last {
		c.next, c.fg = 0, -1
	}
	c.last = ts
	for c.next < len(c.evs) && c.evs[c.next].ts <= ts {
		if c.evs[c.next].state.IsForeground() {
			c.fg = c.next
		}
		c.next++
	}
	switch {
	case c.fg < 0:
		return 0, false
	case c.fg+1 < len(c.evs):
		// Foreground ended when the next event fired (clamped to ts).
		return min(c.evs[c.fg+1].ts, ts), true
	}
	return ts, true // still foreground at ts
}
