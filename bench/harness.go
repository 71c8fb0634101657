package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"netenergy/internal/energy"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

// config is one invocation's settings. The sizes and rates are fields, not
// constants, only so the smoke test can shrink them; the command line sets
// none of them.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	ingestd  string // path of the ingestd binary under test
	work     string // scratch root; every file the run writes lives below it
	out      string // where the traced run writes trace.json
	buildS   float64
	nproc    int

	setupReps   int      // set-ups per run; setup_s is their median
	streams     poolSize // long streams: about four device-days each
	sessions    poolSize // sessions: about one device-day each
	fleet       poolSize // the batch_study fleet
	probeBudget float64  // scale of the per-layer probe loops (1 = full)
}

// Sizes and rates of the real benchmark, with the seed-commit measurements
// they were chosen from (2 cores, see README.md "Sizes and rates").
func defaultConfig() config {
	return config{
		seconds:     15,
		setupReps:   5,
		streams:     poolSize{8, 32768},
		sessions:    poolSize{32, 8192},
		fleet:       poolSize{16, 16384},
		probeBudget: 1,
	}
}

// opTailCap is the highest percentile op_tail_ms may report on a workload;
// tailOf steps down from it until ten samples lie beyond. The cap is what
// repeats on a shared two-core host (README.md "Sizes and rates"). The two
// closed loops keep p90: on query_sealed, with one wide query per five
// narrow, it falls in the wide class, and on ingest_bulk it moves with the
// median. The open loops stop at p75: one 300 ms stall of the host backs up
// twenty sessions, three stalls are a tenth of a run, and p90 of the same
// code then read 20 ms on one run and 27 ms on the next. batch_study's
// eighty studies support p75 and nothing higher. The higher percentiles of
// every class are per-layer rows (session_tail_ms and the like).
func opTailCap(workload string) float64 {
	switch workload {
	case "query_sealed", "ingest_bulk":
		return 90
	}
	return 75
}

const (
	segmentMaxBytes = 256 << 10
	sessionLimit    = time.Second     // a session slower than this has failed
	queryLimit      = 2 * time.Second // likewise a query
	streamLimit     = 5 * time.Second // and a bulk stream
)

// run is the state of one workload run: scratch space, the tracer, and the
// count of operations and checks attempted and failed.
type run struct {
	cfg config
	dir string
	tr  *tracer

	mu        sync.Mutex
	attempted int
	failed    int
}

func newRun(cfg config) (*run, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	return &run{cfg: cfg, dir: dir}, nil
}

// check counts one correctness check; a failed one is logged and counted
// as a failed operation.
func (r *run) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 20 {
			fmt.Fprintf(os.Stderr, "bench: FAILED: "+format+"\n", args...)
		}
	}
}

// count adds a phase's operations to the run totals.
func (r *run) count(attempted, failed int) {
	r.mu.Lock()
	r.attempted += attempted
	r.failed += failed
	r.mu.Unlock()
}

// subdir makes a fresh directory under the run's scratch space.
func (r *run) subdir(name string) (string, error) {
	return os.MkdirTemp(r.dir, name+"-")
}

// batchEnergy is the reference the live headline is held to: the batch
// pipeline's attributed energy for one base trace.
func batchEnergy(dt *trace.DeviceTrace) (float64, error) {
	res, err := energy.Process(dt, energy.DefaultOptions())
	if err != nil {
		return 0, err
	}
	return res.Ledger.Total, nil
}

// poolSize is a set of generated devices, each cut to the same length.
type poolSize struct{ users, records int }

// fixedDevice generates user i's trace from seed and cuts it to exactly n
// records. Synthetic users differ tenfold in how much they log per day
// (3.5k to 30k records), so "four days of user 3" is a different amount of
// work on every seed; a fixed record count makes an operation the same
// size whatever the seed, and leaves the seed to vary what is in it. The
// day count starts from the median user's 7.7k records a day and grows
// until the trace is long enough.
func fixedDevice(seed uint64, i, n int) *trace.DeviceTrace {
	cfg := synthgen.Small(i+1, 1+n/7700)
	cfg.Seed = seed
	for {
		dt := synthgen.GenerateDevice(cfg, i)
		if len(dt.Records) >= n {
			dt.Records = dt.Records[:n]
			return dt
		}
		cfg.Days = cfg.Days*n/(len(dt.Records)+1)*5/4 + 1
	}
}

// eachDevice generates the devices of a pool on one worker per core and
// hands each to fn.
func (r *run) eachDevice(size poolSize, fn func(i int, dt *trace.DeviceTrace)) {
	sem := make(chan struct{}, r.cfg.nproc)
	var wg sync.WaitGroup
	for i := 0; i < size.users; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			fn(i, fixedDevice(r.cfg.seed, i, size.records))
			<-sem
		}(i)
	}
	wg.Wait()
}

// genPool generates a base pool from the run's seed. Devices are renamed
// with a pool prefix so the pools of one run never collide on the server.
func (r *run) genPool(prefix string, size poolSize) []*trace.DeviceTrace {
	pool := make([]*trace.DeviceTrace, size.users)
	r.eachDevice(size, func(i int, dt *trace.DeviceTrace) {
		dt.Device = prefix + dt.Device
		pool[i] = dt
	})
	return pool
}

// replica names the k-th replay of a base device. The server shares nothing
// between devices, so a replica costs what a real device costs; replaying a
// small pool is how a run gets long without long generation.
func replica(dt *trace.DeviceTrace, k int64) string {
	if k == 0 {
		return dt.Device
	}
	return fmt.Sprintf("%s-r%d", dt.Device, k)
}

// phase is what one stretch of load produced.
type phase struct {
	elapsed   time.Duration
	lat       map[string][]float64 // latency class -> ms of each successful op
	primary   []string             // classes that make up op_p50_ms / op_tail_ms
	attempted int
	failed    int
	records   int64     // base of records_per_s and cpu_us_per_record
	sent      int64     // records the generator put on the wire
	retries   int       // queries answered only on their second attempt
	late      []float64 // open loop: generator lateness per op, ms
	rateShare float64   // achieved / scheduled op rate; 1 for a closed loop

	// Filled in by measure.
	sutCPU   time.Duration // CPU of the system under test
	genCPU   time.Duration // CPU of the bench process
	depthMax float64       // highest sampled shard queue depth (traced only)
	before   map[string]float64
	after    map[string]float64
}

func newPhase(primary ...string) *phase {
	return &phase{lat: map[string][]float64{}, primary: primary, rateShare: 1}
}

// op records one operation's outcome. A failed or over-limit operation has
// no latency: it counts against the workload as failed instead.
func (p *phase) op(class string, d time.Duration, limit time.Duration, err error) {
	p.attempted++
	if err != nil || d > limit {
		p.failed++
		if p.failed <= 5 {
			fmt.Fprintf(os.Stderr, "bench: FAILED: %s op took %v (limit %v): %v\n", class, d, limit, err)
		}
		return
	}
	p.lat[class] = append(p.lat[class], ms(d))
}

// opLatencies is every primary-class latency of the phase.
func (p *phase) opLatencies() []float64 {
	var out []float64
	for _, c := range p.primary {
		out = append(out, p.lat[c]...)
	}
	return out
}

// workload is one traffic mix. setup may run several times per run (each
// after a teardown); load is called for the warm-up and then for each timed
// stretch and must continue, not restart, the workload's state.
type workload interface {
	setup() error
	load(d time.Duration, tr *tracer, parent int) (*phase, error)
	// verify is the correctness gate; it runs on a quiescent system after
	// the last load and reports through run.check.
	verify() error
	// teardown stops what setup started and reports the bytes on disk and
	// the records they hold.
	teardown() (diskBytes, diskRecords int64, err error)
	// server is the workload's ingestd, nil when it has none.
	server() *child
}

// measure runs one stretch of load and brackets it with the CPU clocks of
// both processes. In the traced run it also scrapes the child's /metrics
// at both ends and samples its queue depth — work the untraced run must not
// pay for, and whose cost bench.trace_overhead_pct reports.
func (r *run) measure(w workload, name string, d time.Duration, traced bool) (*phase, error) {
	var tr *tracer
	if traced {
		tr = r.tr
	}
	c := w.server()
	var before map[string]float64
	var stopSampler func() float64
	if traced && c != nil {
		var err error
		if before, err = c.scrape(); err != nil {
			return nil, err
		}
		stopSampler = sampleQueueDepth(c)
	}
	id, end := tr.start(name, 0)
	var cpu0 time.Duration
	if c != nil {
		var err error
		if cpu0, err = c.cpu(); err != nil {
			return nil, err
		}
	}
	self0 := selfCPU()
	p, err := w.load(d, tr, id)
	end()
	if err != nil {
		return nil, err
	}
	p.genCPU = selfCPU() - self0
	p.sutCPU = p.genCPU // no child: the work ran in this process
	if c != nil {
		cpu1, err := c.cpu()
		if err != nil {
			return nil, err
		}
		p.sutCPU = cpu1 - cpu0
	}
	if stopSampler != nil {
		p.depthMax = stopSampler()
		p.before = before
		if p.after, err = c.scrape(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// sampleQueueDepth polls the child's shard queue gauges every 50 ms until
// the returned function is called, which reports the highest depth seen.
func sampleQueueDepth(c *child) func() float64 {
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		var max float64
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- max
				return
			case <-t.C:
				m, err := c.scrape()
				if err != nil {
					continue
				}
				for k, v := range m {
					if strings.HasPrefix(k, "ingest_shard_queue_depth") && v > max {
						max = v
					}
				}
			}
		}
	}()
	return func() float64 { close(stop); return <-done }
}

// writeFleet generates a METR-3 fleet into dir one device at a time, so the
// whole fleet is never in memory.
func (r *run) writeFleet(size poolSize, dir string) error {
	var mu sync.Mutex
	var first error
	r.eachDevice(size, func(_ int, dt *trace.DeviceTrace) {
		if err := writeTrace(filepath.Join(dir, dt.Device+".metr"), dt); err != nil {
			mu.Lock()
			if first == nil {
				first = err
			}
			mu.Unlock()
		}
	})
	return first
}

func writeTrace(path string, dt *trace.DeviceTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dt.SerializeColumnar(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
