package main

import (
	"math"
	"sync"
	"time"

	"netenergy/internal/trace"
)

// sessionRate is the ingest_sessions arrival rate, sessions per second, and
// liveRate the mixed_live ingest rate, records per second.
// Closed-loop, the seed commit on 2 cores completes about 93 durable-FIN
// device-day sessions per second while the node grows to 770 devices (83/s
// to 1200: every group commit rewrites a checkpoint that grows with the
// devices seen). The schedule runs at under half of that, so the queue does
// not grow within a run (README.md "Sizes and rates").
const (
	sessionRate = 40
	liveRate    = 50_000
)

// ingestBulk: closed loop, one connection per core, each streaming 4-day
// devices back to back, unpaced.
type ingestBulk struct {
	r    *run
	n    *node
	pool []*trace.DeviceTrace
}

func (w *ingestBulk) setup() (err error) {
	w.pool = w.r.genPool("st-", w.r.cfg.streams)
	w.n, err = startNode(w.r, false, false)
	return err
}

func (w *ingestBulk) load(d time.Duration, tr *tracer, parent int) (*phase, error) {
	return bulkLoad(w.r, w.n, w.pool, d, tr, parent), nil
}

// bulkLoad streams pool replicas over one connection per core until d has
// passed. The ledger probe reuses it against its own children.
func bulkLoad(r *run, n *node, pool []*trace.DeviceTrace, d time.Duration, tr *tracer, parent int) *phase {
	p := newPhase("stream")
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < r.cfg.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := n.nextReplica()
				dt := pool[int(k)%len(pool)]
				_, end := tr.start("ingest.stream", parent)
				t0 := time.Now()
				err := n.deliver(dt, k)
				took := time.Since(t0)
				end()
				mu.Lock()
				p.op("stream", took, streamLimit, err)
				if err == nil {
					p.records += int64(len(dt.Records))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.sent = p.records
	return p
}

func (w *ingestBulk) verify() error                   { return w.n.reconcile() }
func (w *ingestBulk) teardown() (int64, int64, error) { return w.n.stop() }
func (w *ingestBulk) server() *child                  { return w.n.c }

// ingestSessions: open loop, one-device-day sessions arriving on a fixed
// schedule, durable FIN on, served by one connection per core.
type ingestSessions struct {
	r    *run
	n    *node
	pool []*trace.DeviceTrace
}

func (w *ingestSessions) setup() (err error) {
	w.pool = w.r.genPool("se-", w.r.cfg.sessions)
	w.n, err = startNode(w.r, true, false)
	return err
}

func (w *ingestSessions) load(d time.Duration, tr *tracer, parent int) (*phase, error) {
	p := newPhase("session")
	sessionLoad(w.r, w.n, w.pool, p, sessionRate, w.r.cfg.nproc, d, tr, parent)
	p.records = p.sent
	return p, nil
}

// sessionLoad delivers device-day sessions on a fixed schedule of rate per
// second for d, over a pool of conns connections, timing each from the
// instant it was due to its FIN acknowledgement.
func sessionLoad(r *run, n *node, pool []*trace.DeviceTrace, p *phase, rate float64, conns int, d time.Duration, tr *tracer, parent int) {
	count := int(rate * d.Seconds())
	if count < 1 {
		count = 1
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var mu sync.Mutex
	var sent int64
	// Past the hard stop nothing more is sent; what is left fails. It is
	// far enough out that only a stalled server reaches it.
	giveUp := start.Add(d + 20*time.Second)
	arrivals := openLoop(wallClock{}, start, interval, count, conns, giveUp, func(int) error {
		k := n.nextReplica()
		dt := pool[int(k)%len(pool)]
		_, end := tr.start("ingest.session", parent)
		defer end()
		if err := n.deliver(dt, k); err != nil {
			return err
		}
		mu.Lock()
		sent += int64(len(dt.Records))
		mu.Unlock()
		return nil
	})
	last := start
	for _, a := range arrivals {
		p.op("session", a.latency(), sessionLimit, a.err)
		p.late = append(p.late, ms(a.late))
		if a.end.After(last) {
			last = a.end
		}
	}
	mu.Lock()
	p.sent += sent
	mu.Unlock()
	if took := last.Sub(start); took > p.elapsed {
		p.elapsed = took
	}
	// The schedule's length over the time the stretch really took: 1 when
	// the generator and server kept up, less when either fell behind.
	p.rateShare = math.Min(1, float64(count)*interval.Seconds()/last.Sub(start).Seconds())
}

func (w *ingestSessions) verify() error                   { return w.n.reconcile() }
func (w *ingestSessions) teardown() (int64, int64, error) { return w.n.stop() }
func (w *ingestSessions) server() *child                  { return w.n.c }
