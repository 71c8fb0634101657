package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netenergy/internal/ingest"
	"netenergy/internal/obs"
)

// fakeNode is an admin endpoint whose health can be toggled, standing in
// for an ingestd that hangs up (503) without releasing its port. While up
// it answers what this build's ingestd answers, or the body it was built
// with (newFakeNodeServing).
type fakeNode struct {
	srv *httptest.Server
	up  atomic.Bool
}

func newFakeNode(t *testing.T) *fakeNode {
	return newFakeNodeServing(t, "ok placement="+ingest.PlacementID+"\n")
}

func newFakeNodeServing(t *testing.T, body string) *fakeNode {
	t.Helper()
	n := &fakeNode{}
	n.up.Store(true)
	n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !n.up.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(body)) //nolint:errcheck
	}))
	t.Cleanup(n.srv.Close)
	return n
}

func (n *fakeNode) admin() string { return n.srv.Listener.Addr().String() }

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestProberLifecycle drives the full membership state machine: everyone
// starts presumed alive, a failing node is declared dead only after
// FailThreshold consecutive misses, each transition bumps the epoch, and a
// dead node that recovers rejoins without operator action (sticky
// membership via the capped re-probe schedule).
func TestProberLifecycle(t *testing.T) {
	a, b := newFakeNode(t), newFakeNode(t)
	p := NewProber(ProberConfig{
		Members: []Member{
			{ID: "n1", Stream: "s1", Admin: a.admin()},
			{ID: "n2", Stream: "s2", Admin: b.admin()},
		},
		Interval:      5 * time.Millisecond,
		MaxInterval:   40 * time.Millisecond,
		FailThreshold: 2,
		Timeout:       250 * time.Millisecond,
	})
	if got := len(p.Live()); got != 2 {
		t.Fatalf("boot live set = %d members, want 2 (presumed alive)", got)
	}
	if got := p.Epoch(); got != 1 {
		t.Fatalf("boot epoch = %d, want 1", got)
	}

	p.Start()
	defer p.Stop()

	// Healthy steady state: probes succeed, nothing flips.
	time.Sleep(40 * time.Millisecond)
	if got := p.Epoch(); got != 1 {
		t.Fatalf("healthy cluster epoch moved to %d", got)
	}

	b.up.Store(false)
	waitFor(t, 5*time.Second, "n2 declared dead", func() bool {
		live := p.Live()
		return len(live) == 1 && live[0].ID == "n1"
	})
	if got := p.Epoch(); got != 2 {
		t.Errorf("epoch after death = %d, want 2", got)
	}
	var n2 NodeStatus
	for _, st := range p.Status() {
		if st.ID == "n2" {
			n2 = st
		}
	}
	if n2.Alive || n2.Failures < 2 || n2.LastErr == "" {
		t.Errorf("dead member status = %+v", n2)
	}

	// The dead member keeps being probed: recovery rejoins it.
	b.up.Store(true)
	waitFor(t, 5*time.Second, "n2 rejoined", func() bool {
		return len(p.Live()) == 2
	})
	if got := p.Epoch(); got != 3 {
		t.Errorf("epoch after rejoin = %d, want 3", got)
	}
}

// TestProberBelowThreshold: fewer consecutive failures than FailThreshold
// must not flip a member — one lost heartbeat is not a death.
func TestProberBelowThreshold(t *testing.T) {
	p := NewProber(ProberConfig{
		Members:       []Member{{ID: "n1", Stream: "s1", Admin: "a1"}},
		Interval:      10 * time.Millisecond,
		FailThreshold: 3,
	})
	st := p.st[0]
	now := time.Now()
	p.apply(st, errProbe, now)
	p.apply(st, errProbe, now)
	if !st.alive || p.Epoch() != 1 {
		t.Fatalf("member flipped after %d failures (threshold 3)", st.failures)
	}
	p.apply(st, errProbe, now)
	if st.alive || p.Epoch() != 2 {
		t.Fatalf("member not dead after 3 failures: alive=%v epoch=%d", st.alive, p.Epoch())
	}
	// A single success resurrects regardless of the failure streak.
	p.apply(st, nil, now)
	if !st.alive || st.failures != 0 || p.Epoch() != 3 {
		t.Fatalf("recovery: alive=%v failures=%d epoch=%d", st.alive, st.failures, p.Epoch())
	}
}

// TestProberRefusesOtherPlacement: a member that answers /healthz but names
// another placement id, or none (a build from before placement ids), would
// bounce devices against every member that places them differently. From
// its first answer on it is never counted live — however high the failure
// threshold, and however long it keeps answering — its death is logged
// once, and the aggregator's /nodes says why, naming both ids. A real
// ingestd of this build passes the same probe.
func TestProberRefusesOtherPlacement(t *testing.T) {
	good := newFakeNode(t)
	other := newFakeNodeServing(t, "ok placement=0123456789abcdef\n")
	old := newFakeNodeServing(t, "ok\n")
	events := obs.NewEventLog(64)
	p := NewProber(ProberConfig{
		Members: []Member{
			{ID: "n1", Stream: "s1", Admin: good.admin()},
			{ID: "n2", Stream: "s2", Admin: other.admin()},
			{ID: "n3", Stream: "s3", Admin: old.admin()},
		},
		Interval:      2 * time.Millisecond,
		MaxInterval:   4 * time.Millisecond,
		FailThreshold: 1000,
		Timeout:       250 * time.Millisecond,
		Events:        events,
	})
	// answered counts the members that have answered a probe wrongly, and
	// fails the test if any of them is live: apply kills under the lock that
	// counts the failure, so there is no moment in between.
	answered := func() int {
		n := 0
		for _, st := range p.Status() {
			if st.Failures > 0 {
				if n++; st.Alive {
					t.Fatalf("%s answered %q and is counted live", st.ID, st.LastErr)
				}
			}
		}
		return n
	}
	p.Start()
	defer p.Stop()
	waitFor(t, 5*time.Second, "both refused members answered", func() bool { return answered() == 2 })
	for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if live := p.Live(); len(live) != 1 || live[0].ID != "n1" || answered() != 2 {
			t.Fatalf("live set %v, want only n1", live)
		}
	}
	if got := p.Epoch(); got != 3 {
		t.Errorf("epoch = %d, want 3 (one death each, no flapping)", got)
	}
	if got := events.Total(); got != 2 {
		t.Errorf("%d events logged, want one death per refused member: %v", got, events.Recent(0, obs.LevelDebug))
	}

	rec := httptest.NewRecorder()
	NewAggregator(AggregatorConfig{Prober: p}).Mux().ServeHTTP(rec, httptest.NewRequest("GET", "/nodes", nil))
	var doc struct {
		Nodes []NodeStatus `json:"nodes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	why := map[string]string{}
	for _, n := range doc.Nodes {
		why[n.ID] = n.LastErr
	}
	if why["n1"] != "" {
		t.Errorf("n1 last_err = %q, want none", why["n1"])
	}
	for id, want := range map[string][]string{
		"n2": {"0123456789abcdef", ingest.PlacementID},
		"n3": {"places by none", ingest.PlacementID},
	} {
		for _, w := range want {
			if !strings.Contains(why[id], w) {
				t.Errorf("/nodes %s last_err = %q, want it to name %q", id, why[id], w)
			}
		}
	}

	srv := startIngest(t, ingest.Config{})
	if err := p.probe(Member{Admin: srv.AdminAddr().String()}); err != nil {
		t.Errorf("probe of this build's ingestd: %v", err)
	}
}

// TestProberFlapEpochMonotonic pins the epoch contract under rapid
// die/resurrect/die flapping: the epoch moves by exactly one on every
// alive<->dead transition, never moves otherwise, and never goes
// backwards — so a consumer that cached state at epoch E can trust that
// equal epochs mean an identical live set, even through a flap storm. A
// flapping member must also never perturb a stable peer's state.
func TestProberFlapEpochMonotonic(t *testing.T) {
	p := NewProber(ProberConfig{
		Members: []Member{
			{ID: "n1", Stream: "s1", Admin: "a1"},
			{ID: "n2", Stream: "s2", Admin: "a2"},
		},
		Interval:      10 * time.Millisecond,
		FailThreshold: 2,
	})
	flap, stable := p.st[0], p.st[1]
	now := time.Now()
	last := p.Epoch()
	if last != 1 {
		t.Fatalf("boot epoch = %d, want 1", last)
	}
	const cycles = 25
	for i := 0; i < cycles; i++ {
		// One failure below threshold: no transition, no bump.
		p.apply(flap, errProbe, now)
		if e := p.Epoch(); e != last {
			t.Fatalf("cycle %d: epoch %d after sub-threshold failure, want %d", i, e, last)
		}
		// Threshold reached: dead, exactly one bump.
		p.apply(flap, errProbe, now)
		if e := p.Epoch(); e != last+1 || flap.alive {
			t.Fatalf("cycle %d: death epoch %d (alive=%v), want %d", i, e, flap.alive, last+1)
		}
		last++
		// Further failures while dead: no bump (dead is idempotent).
		p.apply(flap, errProbe, now)
		p.apply(flap, errProbe, now)
		if e := p.Epoch(); e != last {
			t.Fatalf("cycle %d: epoch %d after post-death failures, want %d", i, e, last)
		}
		// Resurrect: exactly one bump, failure streak cleared.
		p.apply(flap, nil, now)
		if e := p.Epoch(); e != last+1 || !flap.alive || flap.failures != 0 {
			t.Fatalf("cycle %d: rejoin epoch %d (alive=%v failures=%d), want %d",
				i, e, flap.alive, flap.failures, last+1)
		}
		last++
		// Repeated success: no bump (alive is idempotent).
		p.apply(flap, nil, now)
		if e := p.Epoch(); e != last {
			t.Fatalf("cycle %d: epoch %d after post-rejoin success, want %d", i, e, last)
		}
	}
	if got, want := p.Epoch(), uint64(1+2*cycles); got != want {
		t.Errorf("final epoch = %d, want %d (two transitions per cycle)", got, want)
	}
	if !stable.alive || stable.failures != 0 {
		t.Errorf("stable peer perturbed by flapping: alive=%v failures=%d", stable.alive, stable.failures)
	}
	if live := p.Live(); len(live) != 2 {
		t.Errorf("live set after settling = %d members, want 2", len(live))
	}
}

// TestReprobeEscalation: consecutive failures double the re-probe interval,
// capped at MaxInterval — cheap vigilance on the living, cheap patience
// with the dead.
func TestReprobeEscalation(t *testing.T) {
	p := NewProber(ProberConfig{
		Members:     []Member{{ID: "n1", Stream: "s1", Admin: "a1"}},
		Interval:    10 * time.Millisecond,
		MaxInterval: 60 * time.Millisecond,
	})
	want := []time.Duration{
		10 * time.Millisecond, // 1 failure
		20 * time.Millisecond,
		40 * time.Millisecond,
		60 * time.Millisecond, // capped (80 would exceed MaxInterval)
		60 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.reprobeDelay(i + 1); got != w {
			t.Errorf("reprobeDelay(%d) = %v, want %v", i+1, got, w)
		}
	}
}

var errProbe = &probeErr{}

type probeErr struct{}

func (*probeErr) Error() string { return "connection refused" }
