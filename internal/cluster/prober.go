package cluster

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"netenergy/internal/ingest"
	"netenergy/internal/obs"
)

// ProberConfig tunes the liveness loop. Zero values select defaults.
type ProberConfig struct {
	// Members is the static cluster roster. Every member starts presumed
	// alive (the cluster boots with its full ring) and is probed from the
	// first tick.
	Members []Member

	// Interval is the heartbeat cadence for healthy members (default 1s).
	Interval time.Duration
	// MaxInterval caps the escalated re-probe interval for failing and
	// dead members (default 10×Interval). Dead members keep being probed
	// at this decaying cadence — membership is sticky, not final, so a
	// restarted node rejoins without operator action.
	MaxInterval time.Duration
	// FailThreshold is how many consecutive probe failures declare a
	// member dead (default 3). One lost heartbeat must not trigger a
	// handoff: transferring ownership is expensive and churns clients.
	FailThreshold int
	// Timeout bounds one probe HTTP round-trip (default min(Interval, 2s)).
	Timeout time.Duration

	// Transport overrides the probe HTTP transport — the chaos-injection
	// seam (nil: http.DefaultTransport).
	Transport http.RoundTripper

	// Events receives membership transitions (optional).
	Events *obs.EventLog
}

func (c ProberConfig) withDefaults() ProberConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.MaxInterval <= 0 {
		c.MaxInterval = 10 * c.Interval
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.Timeout <= 0 {
		c.Timeout = c.Interval
		if c.Timeout > 2*time.Second {
			c.Timeout = 2 * time.Second
		}
	}
	if c.Events == nil {
		c.Events = obs.NewEventLog(64)
	}
	return c
}

// NodeStatus is one member's liveness as the prober sees it (the
// aggregator's /nodes document).
type NodeStatus struct {
	Member
	Alive    bool   `json:"alive"`
	Failures int    `json:"failures"`
	LastErr  string `json:"last_err,omitempty"`
}

// memberState is the prober's per-member bookkeeping, guarded by Prober.mu.
type memberState struct {
	m        Member
	alive    bool
	failures int // consecutive probe failures
	lastErr  string
	next     time.Time // when the next probe is due
}

// Prober is the liveness loop: one goroutine probing every member's admin
// /healthz. A healthy member is probed every Interval; a failing one on an
// escalating (doubling) schedule capped at MaxInterval — cheap vigilance on
// the living, cheap patience with the dead. FailThreshold consecutive
// failures flip a member to dead, and so does one answer naming another
// placement id than this build's; any success flips it back. Every flip
// increments the epoch, the version number consumers (View, Aggregator)
// use to notice membership changed without re-reading the whole list.
type Prober struct {
	cfg    ProberConfig
	client *http.Client

	mu    sync.Mutex
	st    []*memberState
	epoch uint64

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewProber builds a prober over the configured members.
func NewProber(cfg ProberConfig) *Prober {
	cfg = cfg.withDefaults()
	p := &Prober{
		cfg:    cfg,
		client: &http.Client{Timeout: cfg.Timeout, Transport: cfg.Transport},
		epoch:  1,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	now := time.Now()
	for _, m := range cfg.Members {
		p.st = append(p.st, &memberState{m: m, alive: true, next: now})
	}
	return p
}

// Start launches the probe loop.
func (p *Prober) Start() { go p.run() }

// Stop halts the probe loop and waits for it to exit. Idempotent.
func (p *Prober) Stop() {
	p.once.Do(func() { close(p.stop) })
	<-p.done
}

// Epoch returns the membership version: it increments on every alive/dead
// transition, so equal epochs guarantee an identical live set.
func (p *Prober) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// Live returns the currently-alive members, sorted by ID.
func (p *Prober) Live() []Member {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Member
	for _, st := range p.st {
		if st.alive {
			out = append(out, st.m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Members returns the full static roster, sorted by ID.
func (p *Prober) Members() []Member {
	out := append([]Member(nil), p.cfg.Members...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Status reports every member's liveness, sorted by ID.
func (p *Prober) Status() []NodeStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]NodeStatus, 0, len(p.st))
	for _, st := range p.st {
		out = append(out, NodeStatus{
			Member: st.m, Alive: st.alive, Failures: st.failures, LastErr: st.lastErr,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (p *Prober) run() {
	defer close(p.done)
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-timer.C:
		}
		now := time.Now()
		for _, st := range p.due(now) {
			err := p.probe(st.m)
			p.apply(st, err, time.Now())
		}
		timer.Reset(p.untilNext(time.Now()))
	}
}

// due returns the members whose next probe time has arrived.
func (p *Prober) due(now time.Time) []*memberState {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*memberState
	for _, st := range p.st {
		if !st.next.After(now) {
			out = append(out, st)
		}
	}
	return out
}

// untilNext returns how long until the earliest pending probe.
func (p *Prober) untilNext(now time.Time) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	d := p.cfg.Interval
	for _, st := range p.st {
		if left := st.next.Sub(now); left < d {
			d = left
		}
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// errPlacement marks a member that answers but places devices by another
// function than this build (ingest.PlacementID): not a lost heartbeat that
// may heal, so it is dead from the first such answer.
var errPlacement = errors.New("placement mismatch")

// probe performs one liveness check against a member's admin endpoint:
// a 200 whose body names this build's placement id.
func (p *Prober) probe(m Member) error {
	resp, err := p.client.Get("http://" + m.Admin + "/healthz")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 256))
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	if err != nil {
		return fmt.Errorf("healthz body: %w", err)
	}
	theirs := "none (an older build)"
	for _, f := range strings.Fields(string(body)) {
		if id, ok := strings.CutPrefix(f, "placement="); ok {
			theirs = id
		}
	}
	if theirs != ingest.PlacementID {
		return fmt.Errorf("%w: member places by %s, this build by %s", errPlacement, theirs, ingest.PlacementID)
	}
	return nil
}

// apply folds one probe result into the member's state, escalating the
// re-probe interval on failure and bumping the epoch on transitions. A
// placement mismatch kills at once; anything else after FailThreshold
// consecutive failures.
func (p *Prober) apply(st *memberState, err error, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err == nil {
		st.failures = 0
		st.lastErr = ""
		st.next = now.Add(p.cfg.Interval)
		if !st.alive {
			st.alive = true
			p.epoch++
			p.cfg.Events.Logf(obs.LevelInfo, "member %s rejoined (epoch %d)", st.m.ID, p.epoch)
		}
		return
	}
	st.failures++
	st.lastErr = err.Error()
	if st.alive && (st.failures >= p.cfg.FailThreshold || errors.Is(err, errPlacement)) {
		st.alive = false
		p.epoch++
		p.cfg.Events.Logf(obs.LevelWarn, "member %s declared dead after %d failures (epoch %d): %v",
			st.m.ID, st.failures, p.epoch, err)
	}
	st.next = now.Add(p.reprobeDelay(st.failures))
}

// reprobeDelay escalates with consecutive failures: Interval, 2×, 4×, ...
// capped at MaxInterval.
func (p *Prober) reprobeDelay(failures int) time.Duration {
	d := p.cfg.Interval
	for i := 1; i < failures && d < p.cfg.MaxInterval; i++ {
		d *= 2
	}
	if d > p.cfg.MaxInterval {
		d = p.cfg.MaxInterval
	}
	return d
}
