// Package obs is the repo's dependency-free observability layer: a metrics
// registry of atomic counters, gauges and fixed-bucket histograms, plus a
// bounded structured event log. The ingest daemon, the batch analyzer and
// the fleet load generator all publish through it; the admin server renders
// a registry as Prometheus text ("GET /metrics") and the CLIs dump it as
// JSON (-stats-json).
//
// The design constraint, stated once here and enforced by tests: observing
// a metric on a hot path (a per-record counter add, a per-batch histogram
// observation) must not allocate and must not take a lock. Every metric is
// a fixed set of atomics allocated at registration time; registration may
// lock and allocate, observation never does. The paper's contribution is
// careful measurement — the instrumentation of our own pipeline must not
// perturb what it measures.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically-increasing metric. The zero value is unusable;
// obtain counters from a Registry so they are exported.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the counter to stay monotonic; this is not
// enforced so restore paths can seed recovered totals in one call).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current total.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous integer value (queue depth, active conns,
// generation numbers, unix timestamps).
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// atomicF64 is a float64 updated via CAS on its bit pattern.
type atomicF64 struct {
	bits atomic.Uint64
}

func (a *atomicF64) Add(v float64) {
	for {
		old := a.bits.Load()
		nxt := math.Float64bits(math.Float64frombits(old) + v)
		if a.bits.CompareAndSwap(old, nxt) {
			return
		}
	}
}

func (a *atomicF64) Load() float64 { return math.Float64frombits(a.bits.Load()) }

// Histogram is a fixed-bucket distribution. Bounds are inclusive upper
// limits in ascending order; one extra implicit +Inf bucket catches the
// rest. Observe is lock-free and allocation-free: one atomic add on the
// bucket, one CAS loop on the sum.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomicF64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	// Linear scan: bucket counts are small (<= ~20) and the branch
	// predictor beats binary search at this size.
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Snapshot returns a consistent-enough copy for export. (Individual bucket
// reads are atomic; the set is not a single linearization point, which is
// the standard and acceptable trade for lock-free observation.)
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable after registration; safe to share
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is the exportable form of a Histogram.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // len(Bounds)+1; last is +Inf
	Sum    float64   `json:"sum"`
}

// ExpBuckets returns n bounds starting at start, multiplying by factor:
// the standard latency/size bucket generator.
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// DurationBuckets covers 10µs .. ~80s — wide enough for a frame decode and
// a checkpoint fsync on the same scale.
func DurationBuckets() []float64 { return ExpBuckets(10e-6, 4, 12) }

// SizeBuckets covers 1 .. ~1M (records, bytes, batch sizes).
func SizeBuckets() []float64 { return ExpBuckets(1, 4, 11) }

// metricKind tags what a registered name points at.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindCounterFunc
	kindGauge
	kindGaugeFunc
	kindHistogram
)

type metric struct {
	name string // full name, possibly with a {label="x"} suffix
	help string
	kind metricKind

	counter   *Counter
	counterFn func() int64
	gauge     *Gauge
	gaugeFn   func() float64
	hist      *Histogram
}

// Registry is a named collection of metrics. Registration is idempotent:
// asking for an existing name of the same kind returns the same metric
// (differing kinds panic — that is a programming error, not input).
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*metric
	order  []*metric
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: map[string]*metric{}}
}

func (r *Registry) register(name, help string, kind metricKind) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.byName[name]; m != nil {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different kind", name))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	r.byName[name] = m
	r.order = append(r.order, m)
	return m
}

// Counter registers (or returns the existing) counter under name. The name
// may carry a fixed label set: `ingest_errors_total{kind="crc"}`.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(name, help, kindCounter)
	if m.counter == nil {
		m.counter = &Counter{}
	}
	return m.counter
}

// Gauge registers (or returns the existing) gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(name, help, kindGauge)
	if m.gauge == nil {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// CounterFunc registers a counter whose value is read at scrape time from
// a monotonic count that already lives elsewhere.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	m := r.register(name, help, kindCounterFunc)
	m.counterFn = fn
}

// GaugeFunc registers a gauge whose value is computed at scrape time — for
// values that already live elsewhere (queue depths, map sizes, uptime).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	m := r.register(name, help, kindGaugeFunc)
	m.gaugeFn = fn
}

// Histogram registers (or returns the existing) histogram under name with
// the given ascending bucket bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	m := r.register(name, help, kindHistogram)
	if m.hist == nil {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %q: bounds not ascending", name))
			}
		}
		m.hist = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
	}
	return m.hist
}

// snapshotMetrics returns a stable-ordered copy of the metric list.
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.RLock()
	ms := append([]*metric(nil), r.order...)
	r.mu.RUnlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	return ms
}

// Snapshot is the JSON-friendly dump of a whole registry (-stats-json).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for _, m := range r.snapshotMetrics() {
		switch m.kind {
		case kindCounter:
			s.Counters[m.name] = m.counter.Load()
		case kindCounterFunc:
			s.Counters[m.name] = m.counterFn()
		case kindGauge:
			s.Gauges[m.name] = float64(m.gauge.Load())
		case kindGaugeFunc:
			s.Gauges[m.name] = m.gaugeFn()
		case kindHistogram:
			s.Histograms[m.name] = m.hist.Snapshot()
		}
	}
	return s
}

// splitName separates a metric name into its family and an optional label
// body: `a_total{kind="crc"}` -> ("a_total", `kind="crc"`).
func splitName(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// formatFloat renders a float the way Prometheus text expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return fmt.Sprintf("%g", v)
	}
}

// WriteText renders the registry in Prometheus text exposition format
// (version 0.0.4), metrics sorted by name, HELP/TYPE emitted once per
// family.
func (r *Registry) WriteText(w io.Writer) error {
	seen := map[string]bool{}
	for _, m := range r.snapshotMetrics() {
		family, labels := splitName(m.name)
		if !seen[family] {
			seen[family] = true
			typ := "counter"
			switch m.kind {
			case kindGauge, kindGaugeFunc:
				typ = "gauge"
			case kindHistogram:
				typ = "histogram"
			}
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", family, m.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, typ); err != nil {
				return err
			}
		}
		var err error
		switch m.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.counter.Load())
		case kindCounterFunc:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.counterFn())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.gauge.Load())
		case kindGaugeFunc:
			_, err = fmt.Fprintf(w, "%s %s\n", m.name, formatFloat(m.gaugeFn()))
		case kindHistogram:
			err = writeHistogramText(w, family, labels, m.hist.Snapshot())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHistogramText(w io.Writer, family, labels string, s HistogramSnapshot) error {
	withLe := func(le string) string {
		if labels == "" {
			return fmt.Sprintf(`{le="%s"}`, le)
		}
		return fmt.Sprintf(`{%s,le="%s"}`, labels, le)
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		le := "+Inf"
		if i < len(s.Bounds) {
			le = formatFloat(s.Bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", family, withLe(le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", family, suffix, formatFloat(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", family, suffix, cum)
	return err
}
