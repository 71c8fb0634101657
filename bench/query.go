package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"netenergy/internal/analysis"
	"netenergy/internal/energy"
	"netenergy/internal/trace"
	"netenergy/internal/tsq"
)

const (
	hourUS        = trace.Timestamp(3600 * 1e6)
	narrowPerWide = 5  // the analyst's mix: five drill-downs per dashboard refresh
	verifyNarrow  = 20 // narrow answers held to the batch reference per run
)

// queryMix is the seeded stream of queries one analyst issues: a wide query
// (whole span, hourly windows, top 10 apps) then narrowPerWide narrow ones
// (a random hour, three apps, no windows), repeated.
type queryMix struct {
	rng    *rand.Rand
	span   [2]trace.Timestamp // first and last record of the pool
	common trace.Timestamp    // end of the stretch every device of the pool covers
	apps   int
	i      int
}

func newQueryMix(seed uint64, pool []*trace.DeviceTrace) *queryMix {
	m := &queryMix{rng: rand.New(rand.NewSource(int64(seed)))}
	m.span[0] = pool[0].Start
	m.common = pool[0].Records[len(pool[0].Records)-1].TS
	for _, dt := range pool {
		last := dt.Records[len(dt.Records)-1].TS
		if dt.Start < m.span[0] {
			m.span[0] = dt.Start
		}
		if last > m.span[1] {
			m.span[1] = last
		}
		if last < m.common {
			m.common = last
		}
		if n := dt.Apps.Len(); n > m.apps {
			m.apps = n
		}
	}
	return m
}

func (m *queryMix) wide() tsq.Query {
	return tsq.Query{From: m.span[0], To: m.span[1] + 1, Window: hourUS, TopN: 10}
}

// next returns the next query of the mix and its latency class.
func (m *queryMix) next() (tsq.Query, string) {
	defer func() { m.i++ }()
	if m.i%(narrowPerWide+1) == 0 {
		return m.wide(), "query_wide"
	}
	// Devices are cut to equal record counts, so busy ones end early; the
	// hour is drawn from the stretch all of them cover, so that a narrow
	// query has every device to look at whatever the seed.
	from := m.span[0] + trace.Timestamp(m.rng.Int63n(int64(m.common-m.span[0]-hourUS)))
	q := tsq.Query{From: from, To: from + hourUS}
	for _, a := range m.rng.Perm(m.apps)[:3] {
		q.Apps = append(q.Apps, uint32(a))
	}
	return q, "query_narrow"
}

// answer is one query with the server's reply, kept for the reference check.
type answer struct {
	q   tsq.Query
	res *tsq.Result
}

// analyst is one closed-loop HTTP client on a keep-alive connection.
type analyst struct {
	hc   *http.Client
	base string
	mix  *queryMix

	kept []answer // first wide answer and the first verifyNarrow narrow ones
	wide *tsq.Result
}

func newAnalyst(base string, mix *queryMix) *analyst {
	return &analyst{hc: &http.Client{Timeout: 30 * time.Second}, base: base, mix: mix}
}

// get times one query from request sent to body fully read; the JSON is
// decoded after the clock stops. A 5xx answer is retried once, on the same
// clock, and reported as retried: at the seed commit a query that scans an
// unsealed segment tail while its shard is mid-write fails about once in
// three thousand with "trace: truncated record" (README.md "Known defect").
func (a *analyst) get(q tsq.Query, tr *tracer, parent int) (res *tsq.Result, took time.Duration, retried bool, err error) {
	url := a.base + "/query?" + q.Values(true).Encode()
	id, end := tr.start("query.http", parent)
	defer end()
	t0 := time.Now()
	var body []byte
	for attempt := 0; ; attempt++ {
		resp, err := a.hc.Get(url)
		if err != nil {
			return nil, time.Since(t0), retried, err
		}
		_, endBody := tr.start("query.read_body", id)
		body, err = io.ReadAll(resp.Body)
		took = time.Since(t0)
		endBody()
		resp.Body.Close()
		if err != nil {
			return nil, took, retried, err
		}
		if resp.StatusCode == http.StatusOK {
			break
		}
		if resp.StatusCode < 500 || attempt > 0 {
			return nil, took, retried, fmt.Errorf("GET /query: %s: %.200s", resp.Status, body)
		}
		fmt.Fprintf(os.Stderr, "bench: retrying query after %s: %.200s\n", resp.Status, body)
		retried = true
	}
	res = new(tsq.Result)
	if err := json.Unmarshal(body, res); err != nil {
		return nil, took, retried, err
	}
	if res.FromUS != int64(q.From) || res.ToUS != int64(q.To) {
		return nil, took, retried, fmt.Errorf("answer is for [%d,%d), asked [%d,%d)", res.FromUS, res.ToUS, q.From, q.To)
	}
	return res, took, retried, nil
}

// run issues the mix until d has passed. stable says the data under the
// queries is not changing, so every wide answer must equal the first.
func (a *analyst) run(d time.Duration, p *phase, mu *sync.Mutex, stable bool, tr *tracer, parent int) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		q, class := a.mix.next()
		res, took, retried, err := a.get(q, tr, parent)
		if err == nil && class == "query_wide" {
			if a.wide == nil {
				a.wide = res
				a.kept = append(a.kept, answer{q, res})
			} else if stable && (res.Records != a.wide.Records || res.TotalEnergyJ != a.wide.TotalEnergyJ) {
				err = fmt.Errorf("wide answer changed over sealed data: %d records %.6f J, first was %d records %.6f J",
					res.Records, res.TotalEnergyJ, a.wide.Records, a.wide.TotalEnergyJ)
			}
		}
		if err == nil && class == "query_narrow" && stable && len(a.kept) <= verifyNarrow {
			a.kept = append(a.kept, answer{q, res})
		}
		mu.Lock()
		p.op(class, took, queryLimit, err)
		if retried {
			p.retries++
		}
		if err == nil && stable {
			p.records += res.Records
		}
		mu.Unlock()
	}
}

// reference computes what q must answer over the given traces, each counted
// mult times: per device and per query window, only the records inside the
// window (and passing the app filter) go through a fresh accumulator on the
// one-record-at-a-time path — the batch run restricted to the range.
func reference(q tsq.Query, mult map[*trace.DeviceTrace]int64) (records int64, energyJ float64) {
	opts := energy.DefaultOptions()
	keep := map[uint32]bool{}
	for _, a := range q.Apps {
		keep[a] = true
	}
	for dt, k := range mult {
		var acc *analysis.StreamAccumulator
		var window trace.Timestamp = -1
		var devRecords int64
		var devEnergy float64
		flush := func() {
			if acc != nil {
				devEnergy += acc.Finish().Ledger.Total
				acc = nil
			}
		}
		for i := range dt.Records {
			rec := &dt.Records[i]
			if rec.TS < q.From || rec.TS >= q.To {
				continue
			}
			if len(keep) > 0 && rec.Type != trace.RecScreen && !keep[rec.App] {
				continue
			}
			if q.Window > 0 {
				if w := rec.TS / q.Window; w != window {
					flush()
					window = w
				}
			}
			if acc == nil {
				acc = analysis.NewStreamAccumulator(dt.Device, opts)
			}
			acc.Feed(rec)
			devRecords++
		}
		flush()
		records += k * devRecords
		energyJ += float64(k) * devEnergy
	}
	return records, energyJ
}

// verifyAnswers holds kept answers to the reference: records exactly,
// energy to 1e-6.
func verifyAnswers(r *run, kept []answer, mult map[*trace.DeviceTrace]int64) {
	r.check(len(kept) > 0, "no query answer was kept for verification")
	for _, a := range kept {
		records, energyJ := reference(a.q, mult)
		r.check(a.res.Records == records && relClose(a.res.TotalEnergyJ, energyJ, 1e-6),
			"query [%d,%d) apps=%v window=%d answered %d records %.6f J, restricted batch run says %d records %.6f J",
			a.q.From, a.q.To, a.q.Apps, a.q.Window, a.res.Records, a.res.TotalEnergyJ, records, energyJ)
	}
}

// querySealed: closed loop, one analyst against an idle ingestd whose
// segment directory holds the sealed stream pool.
type querySealed struct {
	r    *run
	n    *node
	pool []*trace.DeviceTrace
	a    *analyst
}

func (w *querySealed) setup() (err error) {
	w.pool = w.r.genPool("st-", w.r.cfg.streams)
	if w.n, err = startNode(w.r, false, false); err != nil {
		return err
	}
	w.a = newAnalyst(w.n.c.admin, newQueryMix(w.r.cfg.seed, w.pool))
	return w.n.populate(w.pool)
}

func (w *querySealed) load(d time.Duration, tr *tracer, parent int) (*phase, error) {
	p := newPhase("query_wide", "query_narrow")
	var mu sync.Mutex
	start := time.Now()
	w.a.run(d, p, &mu, true, tr, parent)
	p.elapsed = time.Since(start)
	return p, nil
}

func (w *querySealed) verify() error {
	verifyAnswers(w.r, w.a.kept, w.n.mult)
	return w.n.reconcile()
}
func (w *querySealed) teardown() (int64, int64, error) { return w.n.stop() }
func (w *querySealed) server() *child                  { return w.n.c }

// mixedLive: one connection delivering device-day sessions on a fixed
// schedule, beside the querySealed analyst reading the same node. The
// sessions are the timed operation: the query classes under ingest moved
// by up to 44% between seeds, so they are reported per layer, ungated.
type mixedLive struct {
	r        *run
	n        *node
	streams  []*trace.DeviceTrace
	sessions []*trace.DeviceTrace
	a        *analyst
}

func (w *mixedLive) setup() (err error) {
	cfg := w.r.cfg
	w.streams = w.r.genPool("st-", cfg.streams)
	w.sessions = w.r.genPool("se-", cfg.sessions)
	if w.n, err = startNode(w.r, false, false); err != nil {
		return err
	}
	w.a = newAnalyst(w.n.c.admin, newQueryMix(cfg.seed, w.streams))
	return w.n.populate(w.streams)
}

func (w *mixedLive) load(d time.Duration, tr *tracer, parent int) (*phase, error) {
	p := newPhase("session")
	pq := newPhase()
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.a.run(d, pq, &mu, false, tr, parent)
	}()
	sessionLoad(w.r, w.n, w.sessions, p, liveRate/float64(w.r.cfg.sessions.records), 1, d, tr, parent)
	wg.Wait()
	p.lat["query_wide"], p.lat["query_narrow"] = pq.lat["query_wide"], pq.lat["query_narrow"]
	p.attempted += pq.attempted
	p.failed += pq.failed
	p.retries = pq.retries
	p.records = p.sent
	return p, nil
}

// verify runs on the quiescent node: every session has been acknowledged,
// so a fresh wide and narrow answer over sealed history plus everything
// delivered live has an exact reference.
func (w *mixedLive) verify() error {
	mix := newQueryMix(w.r.cfg.seed+1, w.streams)
	var kept []answer
	for i := 0; i < 1+narrowPerWide; i++ {
		q, _ := mix.next()
		res, _, _, err := w.a.get(q, nil, 0)
		if err != nil {
			return err
		}
		kept = append(kept, answer{q, res})
	}
	verifyAnswers(w.r, kept, w.n.mult)
	return w.n.reconcile()
}
func (w *mixedLive) teardown() (int64, int64, error) { return w.n.stop() }
func (w *mixedLive) server() *child                  { return w.n.c }
