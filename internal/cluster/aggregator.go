package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"netenergy/internal/analysis"
	"netenergy/internal/ingest"
	"netenergy/internal/ingest/checkpoint"
	"netenergy/internal/obs"
	"netenergy/internal/tsq"
)

// AggregatorConfig tunes the fleet aggregator. Zero values select defaults.
type AggregatorConfig struct {
	// Prober supplies the live set and epoch (required).
	Prober *Prober
	// Interval is the pull-and-merge cadence (default 2s).
	Interval time.Duration
	// Timeout bounds one node's snapshot pull (default 10s).
	Timeout time.Duration
	// HandoffDirs maps member IDs to their checkpoint directories. When a
	// member transitions alive→dead, the aggregator reads that node's
	// latest valid checkpoint file and ships it to every survivor — the
	// ownership-handoff trigger. Members without an entry rely purely on
	// client retransmission after a death (records since their last ack
	// are replayed to the new owners; finalized history is lost).
	HandoffDirs map[string]string
	// PullAttempts bounds tries per node per cycle (default 2): one retry
	// covers a transient admin-plane fault without letting a dead node
	// stall the cycle — the next cycle retries anyway.
	PullAttempts int
	// HandoffAttempts bounds transfer tries per survivor (default 3).
	// Handoffs are one-shot per death, so they retry harder than pulls.
	HandoffAttempts int
	// Transport overrides the admin-plane HTTP transport — the
	// chaos-injection seam (nil: http.DefaultTransport).
	Transport http.RoundTripper
}

func (c AggregatorConfig) withDefaults() AggregatorConfig {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.PullAttempts <= 0 {
		c.PullAttempts = 2
	}
	if c.HandoffAttempts <= 0 {
		c.HandoffAttempts = 3
	}
	return c
}

// NodeContribution is one node's share of a merged fleet headline.
type NodeContribution struct {
	NodeID  string `json:"node_id"`
	Devices int    `json:"devices"`
	Records int64  `json:"records"`
}

// FleetHeadline is the aggregator's /headline document: the single-node
// LiveHeadline evaluated over the merge of every live node's snapshot,
// stamped with the membership epoch and the per-node contributions that
// make double-count bugs attributable.
type FleetHeadline struct {
	ingest.LiveHeadline
	Epoch     uint64             `json:"epoch"`
	NodesLive int                `json:"nodes_live"`
	Nodes     []NodeContribution `json:"nodes"`
}

// Aggregator periodically pulls each live node's binary StreamResult
// snapshot over the admin surface, CRC-checks it, and merges the set into
// one fleet-wide headline. Each cycle is a fresh pull-and-merge — no
// incremental state — so a cycle observed after the fleet settles is exact
// regardless of what churn happened before it. The aggregator also owns
// the handoff trigger: when the prober declares a member dead, its last
// checkpoint file is shipped to the survivors (see ShipDir).
type Aggregator struct {
	cfg    AggregatorConfig
	client *http.Client
	reg    *obs.Registry
	events *obs.EventLog

	mergeSeconds   *obs.Histogram
	pulls          *obs.Counter
	pullErrors     *obs.Counter
	pullRetries    *obs.Counter
	handoffs       *obs.Counter
	handoffErrors  *obs.Counter
	handoffRetries *obs.Counter
	fencePosts     *obs.Counter
	fencedSkips    *obs.Counter
	fleetQueries   *obs.Counter
	queryNodeErrs  *obs.Counter
	gRecords       *obs.Gauge
	gDevices       *obs.Gauge
	gNodesLive     *obs.Gauge
	gEpoch         *obs.Gauge
	nodeRecords    map[string]*obs.Gauge

	mu       sync.RWMutex
	headline FleetHeadline
	have     bool
	prevLive map[string]bool

	// pendingHandoffs tracks dead members whose checkpoint has not reached
	// every survivor yet: a handoff that fails (unreadable dir, a survivor
	// that never answered) is retried each cycle while the member stays
	// dead, instead of being lost with the one-shot death transition. Only
	// touched from the pull cycle goroutine.
	pendingHandoffs map[string]bool

	// tombstones remembers the fence owed to each handed-off member: after
	// its checkpoint is shipped, that incarnation must never contribute a
	// snapshot again. Only touched from the pull cycle goroutine.
	tombstones map[string]checkpoint.Tombstone

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// nodePull is one node's decoded snapshot contribution. fenced marks a
// node that answered but advertised X-Fenced — alive, but its state is
// already owned by the survivors.
type nodePull struct {
	id      string
	devices int
	records int64
	fenced  bool
	res     *analysis.StreamResult
}

// NewAggregator builds an aggregator over the prober's membership.
func NewAggregator(cfg AggregatorConfig) *Aggregator {
	cfg = cfg.withDefaults()
	reg := obs.New()
	a := &Aggregator{
		cfg:    cfg,
		client: &http.Client{Timeout: cfg.Timeout, Transport: cfg.Transport},
		reg:    reg,
		events: obs.NewEventLog(256),

		mergeSeconds:   reg.Histogram("aggregator_merge_seconds", "one pull-and-merge cycle duration", obs.DurationBuckets()),
		pulls:          reg.Counter("aggregator_pulls_total", "successful node snapshot pulls"),
		pullErrors:     reg.Counter("aggregator_pull_errors_total", "failed node snapshot pulls"),
		pullRetries:    reg.Counter("aggregator_pull_retries_total", "snapshot pull attempts beyond the first"),
		handoffs:       reg.Counter("aggregator_handoffs_total", "checkpoint handoffs shipped for dead members"),
		handoffErrors:  reg.Counter("aggregator_handoff_errors_total", "checkpoint handoffs that failed"),
		handoffRetries: reg.Counter("aggregator_handoff_retries_total", "handoff transfer attempts beyond the first"),
		fencePosts:     reg.Counter("aggregator_fence_posts_total", "fence requests posted to resurrected members"),
		fencedSkips:    reg.Counter("aggregator_fenced_skips_total", "pull cycles that excluded a fenced member"),
		fleetQueries:   reg.Counter("aggregator_queries_total", "fleet query fan-outs served"),
		queryNodeErrs:  reg.Counter("aggregator_query_node_errors_total", "member /query fetches dropped from a fleet query"),
		gRecords:       reg.Gauge("aggregator_records", "fleet records at the last merge"),
		gDevices:       reg.Gauge("aggregator_devices", "fleet devices at the last merge"),
		gNodesLive:     reg.Gauge("aggregator_nodes_live", "live members at the last merge"),
		gEpoch:         reg.Gauge("aggregator_epoch", "membership epoch at the last merge"),
		nodeRecords:    map[string]*obs.Gauge{},

		pendingHandoffs: map[string]bool{},
		tombstones:      map[string]checkpoint.Tombstone{},

		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	reg.GaugeFunc("aggregator_cluster_epoch", "live membership epoch from the prober",
		func() float64 { return float64(cfg.Prober.Epoch()) })
	for _, m := range cfg.Prober.Members() {
		a.nodeRecords[m.ID] = reg.Gauge(
			fmt.Sprintf("aggregator_node_records{node=%q}", m.ID),
			"records contributed by one node at the last merge")
		id := m.ID
		reg.GaugeFunc(
			fmt.Sprintf("aggregator_member_failures{node=%q}", id),
			"consecutive probe failures for one member",
			func() float64 {
				for _, st := range cfg.Prober.Status() {
					if st.ID == id {
						return float64(st.Failures)
					}
				}
				return 0
			})
	}
	a.events.RegisterEventMetrics(reg, "aggregator_events_total", "events logged by level")
	return a
}

// Start launches the periodic pull loop.
func (a *Aggregator) Start() { go a.run() }

// Stop halts the pull loop and waits for it to exit. Idempotent.
func (a *Aggregator) Stop() {
	a.once.Do(func() { close(a.stop) })
	<-a.done
}

func (a *Aggregator) run() {
	defer close(a.done)
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	a.PullOnce()
	for {
		select {
		case <-a.stop:
			return
		case <-t.C:
			a.PullOnce()
		}
	}
}

// PullOnce runs one pull-and-merge cycle (and the handoff check) and
// returns the resulting fleet headline. Nodes that fail to deliver a
// valid, CRC-clean snapshot are dropped from this cycle and counted — a
// corrupt snapshot must never blend into the merge.
func (a *Aggregator) PullOnce() FleetHeadline {
	t0 := time.Now()
	live := a.enforceFences(a.cfg.Prober.Live())
	epoch := a.cfg.Prober.Epoch()
	merged := analysis.NewStreamResult("fleet")
	contribs := make([]NodeContribution, 0, len(live))
	var devices int
	var records int64
	for _, m := range live {
		np, err := a.pullNode(m)
		var bo ingest.Backoff
		for attempt := 2; err != nil && attempt <= a.cfg.PullAttempts; attempt++ {
			a.pullRetries.Inc()
			time.Sleep(bo.Next())
			np, err = a.pullNode(m)
		}
		if err != nil {
			a.pullErrors.Inc()
			a.events.Logf(obs.LevelWarn, "pull %s: %v", m.ID, err)
			continue
		}
		if np.fenced {
			// A fenced process may still hold shipped state in memory; its
			// snapshot must never blend into the merge again.
			a.fencedSkips.Inc()
			a.events.Logf(obs.LevelWarn, "pull %s: node is fenced, excluded from merge", m.ID)
			continue
		}
		a.pulls.Inc()
		merged.Merge(np.res)
		devices += np.devices
		records += np.records
		contribs = append(contribs, NodeContribution{NodeID: np.id, Devices: np.devices, Records: np.records})
		if g := a.nodeRecords[m.ID]; g != nil {
			g.Set(np.records)
		}
	}
	a.mergeSeconds.Observe(time.Since(t0).Seconds())

	h := FleetHeadline{
		LiveHeadline: ingest.HeadlineOf(merged, devices, records),
		Epoch:        epoch,
		NodesLive:    len(live),
		Nodes:        contribs,
	}
	h.NodeID = "fleet"
	a.gRecords.Set(records)
	a.gDevices.Set(int64(devices))
	a.gNodesLive.Set(int64(len(live)))
	a.gEpoch.Set(int64(epoch))

	a.mu.Lock()
	a.headline = h
	a.have = true
	a.mu.Unlock()

	a.checkHandoff(live)
	return h
}

// pullNode fetches and verifies one node's snapshot.
func (a *Aggregator) pullNode(m Member) (nodePull, error) {
	resp, err := a.client.Get("http://" + m.Admin + "/snapshot")
	if err != nil {
		return nodePull{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nodePull{}, fmt.Errorf("snapshot status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Fenced") != "" {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
		return nodePull{id: m.ID, fenced: true}, nil
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nodePull{}, err
	}
	wantCRC, err := strconv.ParseUint(resp.Header.Get("X-Snapshot-CRC32"), 10, 32)
	if err != nil {
		return nodePull{}, fmt.Errorf("snapshot crc header: %w", err)
	}
	if crc32.ChecksumIEEE(body) != uint32(wantCRC) {
		return nodePull{}, fmt.Errorf("snapshot crc mismatch (%d bytes)", len(body))
	}
	res, err := analysis.DecodeStreamResult(body)
	if err != nil {
		return nodePull{}, err
	}
	devices, err := strconv.Atoi(resp.Header.Get("X-Devices"))
	if err != nil {
		return nodePull{}, fmt.Errorf("snapshot devices header: %w", err)
	}
	records, err := strconv.ParseInt(resp.Header.Get("X-Records"), 10, 64)
	if err != nil {
		return nodePull{}, fmt.Errorf("snapshot records header: %w", err)
	}
	id := resp.Header.Get("X-Node-ID")
	if id == "" {
		id = m.ID
	}
	return nodePull{id: id, devices: devices, records: records, res: res}, nil
}

// enforceFences handles resurrected members whose state was handed off: a
// node that comes back alive after its checkpoint was shipped must be
// fenced before its snapshot can re-enter the merge, or every record the
// survivors adopted would count twice. For each live member owing a fence,
// the remembered tombstone is posted to its /fence endpoint: the shipped
// incarnation acknowledges the fence and is excluded from this cycle; a
// fresh incarnation (the node genuinely restarted, its own startup check
// consumed the on-disk tombstone) clears the debt and rejoins; an
// unreachable member is conservatively excluded until it answers.
func (a *Aggregator) enforceFences(live []Member) []Member {
	if len(a.tombstones) == 0 {
		return live
	}
	out := live[:0]
	for _, m := range live {
		tomb, owed := a.tombstones[m.ID]
		if !owed {
			out = append(out, m)
			continue
		}
		a.fencePosts.Inc()
		fr, err := postFence(a.client, m, ingest.FenceRequest{
			Incarnation: tomb.Incarnation, Generation: tomb.Generation,
		})
		switch {
		case err != nil:
			a.events.Logf(obs.LevelWarn, "fence %s: %v (excluded this cycle)", m.ID, err)
		case fr.Fenced:
			a.fencedSkips.Inc()
			a.events.Logf(obs.LevelWarn, "member %s resurrected with shipped state; fenced (incarnation %s)",
				m.ID, fr.Incarnation)
		default:
			delete(a.tombstones, m.ID)
			a.events.Logf(obs.LevelInfo, "member %s rejoined with fresh incarnation %s; fence cleared",
				m.ID, fr.Incarnation)
			out = append(out, m)
		}
	}
	return out
}

// postFence posts one fence request to a member's admin plane.
func postFence(client *http.Client, m Member, req ingest.FenceRequest) (ingest.FenceResponse, error) {
	var fr ingest.FenceResponse
	body, err := json.Marshal(req)
	if err != nil {
		return fr, err
	}
	resp, err := client.Post("http://"+m.Admin+"/fence", "application/json", bytes.NewReader(body))
	if err != nil {
		return fr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fr, fmt.Errorf("fence status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		return fr, err
	}
	return fr, nil
}

// checkHandoff diffs the live set against the previous cycle, queues every
// newly-dead member, and ships the checkpoint of every queued member to
// the survivors — a member stays queued, and is shipped again to all of
// them next cycle, until every survivor has answered. Only called from the
// pull cycle (single goroutine); prevLive and the queues need no lock.
func (a *Aggregator) checkHandoff(live []Member) {
	cur := make(map[string]bool, len(live))
	for _, m := range live {
		cur[m.ID] = true
	}
	prev := a.prevLive
	a.prevLive = cur
	if prev == nil {
		return // first cycle: baseline only
	}
	for id := range prev {
		if !cur[id] {
			a.pendingHandoffs[id] = true
		}
	}
	for id := range a.pendingHandoffs {
		if cur[id] {
			// Back alive and unfenced: either nothing was shipped, so no
			// handoff is owed, or it restarted past its tombstone and the
			// state left to ship is in its archive, out of reach from here.
			delete(a.pendingHandoffs, id)
			a.events.Logf(obs.LevelInfo, "member %s rejoined before its handoff completed; dropped", id)
			continue
		}
		if a.handoff(id, live) {
			delete(a.pendingHandoffs, id)
		}
	}
}

// handoff ships a dead member's latest checkpoint to the survivors. It
// returns false while some survivor has not answered: finished sessions
// have no client left to retransmit them, so a survivor that sat out every
// attempt would otherwise never get the devices it now owns. Shipping again
// next cycle is safe because a receiver installs positionally — those that
// answered before report the devices stale and change nothing. The fence is
// owed from the first partial success, not the last.
func (a *Aggregator) handoff(deadID string, survivors []Member) bool {
	dir := a.cfg.HandoffDirs[deadID]
	if dir == "" {
		a.events.Logf(obs.LevelWarn,
			"member %s died with no checkpoint dir configured; relying on client retransmission", deadID)
		return true // nothing will ever ship: don't retry
	}
	if len(survivors) == 0 {
		a.handoffErrors.Inc()
		a.events.Logf(obs.LevelError, "member %s died with no survivors to hand off to", deadID)
		return false
	}
	h, err := ShipDir(a.client, deadID, dir, survivors, ShipPolicy{
		Attempts: a.cfg.HandoffAttempts,
		OnAttempt: func(member string, attempt int, err error) {
			a.handoffRetries.Inc()
			a.events.Logf(obs.LevelWarn, "handoff %s -> %s attempt %d: %v", deadID, member, attempt, err)
		},
	})
	if err != nil {
		a.handoffErrors.Inc()
		a.events.Logf(obs.LevelError, "handoff %s gen %d: %v", deadID, h.Generation, err)
	}
	if h.Tombstone == nil {
		return false // nothing entered the fleet: no fence is owed yet
	}
	a.handoffs.Inc()
	a.events.Logf(obs.LevelInfo, "handoff %s gen %d: %d of %d survivors adopted %d devices",
		deadID, h.Generation, h.Answered, len(survivors), h.Adopted)
	// Beside the tombstone on disk, which makes the dead process archive
	// itself at restart, remember the fence in memory, so a live zombie of
	// the shipped incarnation is fenced before it can re-enter a merge.
	a.tombstones[deadID] = *h.Tombstone
	return h.Answered == len(survivors)
}

// FleetQueryResult is the aggregator's /query document: the merged
// per-node tsq results, stamped with the membership epoch and the IDs of
// the members that actually contributed — a partial answer (some member
// unreachable or running without a segment store) is visible, never
// silent.
type FleetQueryResult struct {
	tsq.Result
	Epoch     uint64   `json:"epoch"`
	NodesLive int      `json:"nodes_live"`
	Nodes     []string `json:"nodes"`
}

// QueryFleet fans q out to every live member's admin /query endpoint and
// merges the per-node results into one fleet document. Top-N truncation
// is deliberately NOT pushed down (Values(false)): a per-node top-N could
// drop an app that ranks fleet-wide, so every node returns its full app
// table and the cut happens once, after the merge. A member that cannot
// answer — unreachable, no segment store, or a malformed response — is
// dropped from this query and counted in
// aggregator_query_node_errors_total.
//
// Queries read each node's local segment store, so unlike /headline the
// answer covers only records that survived on disk where they were first
// ingested: checkpoint handoff moves accumulator state, not segment
// files (see DESIGN.md §11 for the exact guarantee).
func (a *Aggregator) QueryFleet(q tsq.Query) (FleetQueryResult, error) {
	live := a.cfg.Prober.Live()
	out := FleetQueryResult{Epoch: a.cfg.Prober.Epoch(), NodesLive: len(live), Nodes: []string{}}
	vals := q.Values(false)
	first := true
	for _, m := range live {
		res, err := a.queryNode(m, vals.Encode())
		if err != nil {
			a.queryNodeErrs.Inc()
			a.events.Logf(obs.LevelWarn, "query %s: %v", m.ID, err)
			continue
		}
		if first {
			out.Result = res
			first = false
		} else {
			out.Result.Merge(&res)
		}
		out.Nodes = append(out.Nodes, m.ID)
	}
	if first {
		return out, fmt.Errorf("no live member answered the query (%d live)", len(live))
	}
	out.Result.Node = "fleet"
	out.Result.Finalize(q.TopN)
	a.fleetQueries.Inc()
	return out, nil
}

// queryNode fetches one member's /query answer.
func (a *Aggregator) queryNode(m Member, rawQuery string) (tsq.Result, error) {
	var res tsq.Result
	resp, err := a.client.Get("http://" + m.Admin + "/query?" + rawQuery)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
		return res, fmt.Errorf("query status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&res); err != nil {
		return res, fmt.Errorf("query body: %w", err)
	}
	return res, nil
}

// Headline returns the last merged fleet headline; ok is false before the
// first completed cycle.
func (a *Aggregator) Headline() (FleetHeadline, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.headline, a.have
}

// Mux serves the aggregator's HTTP surface:
//
//	GET /healthz  -> 200 "ok"
//	GET /metrics  -> Prometheus text exposition (aggregator_* families)
//	GET /headline -> FleetHeadline JSON (503 before the first merge)
//	GET /query    -> FleetQueryResult JSON: the tsq query fanned out to
//	                 every live member and merged (same parameters as the
//	                 ingest /query endpoint; defaults to the last hour;
//	                 400 on a bad query, 503 when no member answers)
//	GET /nodes    -> membership status JSON ({epoch, nodes: [...]})
func (a *Aggregator) Mux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n")) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		a.reg.WriteText(w) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/headline", func(w http.ResponseWriter, r *http.Request) {
		h, ok := a.Headline()
		if !ok {
			http.Error(w, "no merge cycle completed yet", http.StatusServiceUnavailable)
			return
		}
		ingest.WriteJSON(w, h)
	})
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		q, err := tsq.ParseQuery(r.URL.Query(), time.Now())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := a.QueryFleet(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		ingest.WriteJSON(w, res)
	})
	mux.HandleFunc("/nodes", func(w http.ResponseWriter, r *http.Request) {
		ingest.WriteJSON(w, struct {
			Epoch uint64       `json:"epoch"`
			Nodes []NodeStatus `json:"nodes"`
		}{a.cfg.Prober.Epoch(), a.cfg.Prober.Status()})
	})
	return mux
}
