package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	asc := make([]float64, 1000)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	if v, err := percentile(asc, 99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with 10 samples beyond it", v, err)
	}
	if _, err := percentile(asc[:999], 99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(asc, 99.9); err == nil {
		t.Fatal("p99.9 of 1000 samples has 1 beyond it and must be refused")
	}
	if _, err := percentile(asc, 100); err == nil {
		t.Fatal("p100 is not a percentile")
	}
}

func TestTailOfWalksTheLadder(t *testing.T) {
	xs := make([]float64, 250)
	for i := range xs {
		xs[i] = float64(250 - i) // descending: tailOf must sort
	}
	if v, p := tailOf(xs, 99); p != 95 || v != 238 {
		t.Fatalf("250 samples: tail p%g = %v, want p95 = 238 (p99 has 2 beyond)", p, v)
	}
	if _, p := tailOf(xs, 90); p != 90 {
		t.Fatalf("limit 90: used p%g", p)
	}
	if v, p := tailOf(xs[:12], 99); p != 100 || v != 250 {
		t.Fatalf("12 samples support no percentile: got p%g = %v, want the maximum as p100", p, v)
	}
	if v, p := tailOf(nil, 99); v != 0 || p != 100 {
		t.Fatalf("empty sample: %v p%g", v, p)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
	for _, w := range workloads {
		onLadder := false
		for _, step := range tailLadder {
			onLadder = onLadder || step == opTailCap(w)
		}
		if !onLadder {
			t.Errorf("%s: op_tail_ms is capped at p%g, which is not a step of the ladder", w, opTailCap(w))
		}
	}
}

// fakeClock is virtual time for one goroutine: Sleep advances it (plus an
// optional oversleep), and the operation under test advances it by its
// service time.
type fakeClock struct {
	t         time.Time
	oversleep time.Duration
}

func (f *fakeClock) Now() time.Time        { return f.t }
func (f *fakeClock) Sleep(d time.Duration) { f.t = f.t.Add(d + f.oversleep) }

// A server that stalls must lengthen the latency of the operations queued
// behind the stall; it must not reduce how many are sent.
func TestOpenLoopStallLengthensLatencyNotLoad(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	start := clk.t
	const n = 20
	interval := 100 * time.Millisecond
	ran := 0
	arr := openLoop(clk, start, interval, n, 1, start.Add(time.Hour), func(i int) error {
		ran++
		service := 10 * time.Millisecond
		if i == 5 {
			service = time.Second // the stall
		}
		clk.t = clk.t.Add(service)
		return nil
	})
	if ran != n {
		t.Fatalf("%d of %d operations ran: the stall thinned the load", ran, n)
	}
	for i, a := range arr {
		if want := start.Add(time.Duration(i) * interval); !a.due.Equal(want) {
			t.Fatalf("op %d due %v, want %v: the schedule moved", i, a.due, want)
		}
		if a.late != 0 {
			t.Fatalf("op %d: generator late by %v on a perfect clock", i, a.late)
		}
	}
	if got := arr[4].latency(); got != 10*time.Millisecond {
		t.Fatalf("op before the stall: latency %v", got)
	}
	// Op 6 was due at 600 ms but the connection was busy until 1500 ms.
	if got := arr[6].latency(); got != 910*time.Millisecond {
		t.Fatalf("op queued behind the stall: latency %v, want 910ms measured from its due time", got)
	}
	if got := arr[6].end.Sub(arr[6].start); got != 10*time.Millisecond {
		t.Fatalf("op 6 service time %v", got)
	}
	// The backlog drains at 10 ms per op against 100 ms arrivals.
	if got := arr[n-1].latency(); got != 10*time.Millisecond {
		t.Fatalf("last op latency %v: backlog never drained", got)
	}
}

func TestOpenLoopAccountsForGeneratorLateness(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0), oversleep: 3 * time.Millisecond}
	start := clk.t
	arr := openLoop(clk, start, 50*time.Millisecond, 5, 1, start.Add(time.Hour), func(int) error {
		clk.t = clk.t.Add(time.Millisecond)
		return nil
	})
	if arr[0].late != 0 {
		t.Fatalf("op 0 was due immediately, late %v", arr[0].late)
	}
	for i, a := range arr[1:] {
		if a.late != 3*time.Millisecond {
			t.Fatalf("op %d late %v, want the 3ms oversleep", i+1, a.late)
		}
		if a.latency() != 4*time.Millisecond {
			t.Fatalf("op %d latency %v: lateness is part of what the user waits", i+1, a.latency())
		}
	}
}

func TestOpenLoopGivesUpLoudly(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	start := clk.t
	arr := openLoop(clk, start, time.Second, 4, 1, start.Add(1500*time.Millisecond), func(int) error {
		clk.t = clk.t.Add(time.Millisecond)
		return nil
	})
	for i, a := range arr {
		if gaveUp := errors.Is(a.err, errGaveUp); gaveUp != (i >= 2) {
			t.Fatalf("op %d (due %v): err %v", i, a.due.Sub(start), a.err)
		}
	}
}

func TestOpenLoopRealClockManyWorkers(t *testing.T) {
	start := time.Now()
	arr := openLoop(wallClock{}, start, time.Millisecond, 50, 4, start.Add(time.Minute), func(int) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	for i, a := range arr {
		if a.err != nil || a.start.Before(a.due) || a.end.Before(a.start) {
			t.Fatalf("op %d: %+v", i, a)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	before := map[string]float64{
		`h_bucket{le="1"}`: 10, `h_bucket{le="4"}`: 10, `h_bucket{le="+Inf"}`: 10,
	}
	after := map[string]float64{
		`h_bucket{le="1"}`: 10, `h_bucket{le="4"}`: 110, `h_bucket{le="+Inf"}`: 110,
	}
	// 100 new observations, all in (1, 4]: the median interpolates to 2.5.
	if got := histQuantile(before, after, "h", 0.5); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("p50 = %v, want 2.5", got)
	}
	if got := histQuantile(after, after, "h", 0.5); got != 0 {
		t.Fatalf("no observations between scrapes: %v", got)
	}
	if got := histQuantile(before, after, "absent", 0.5); got != 0 {
		t.Fatalf("absent histogram: %v", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{t0: time.Now(), workload: "w"}
	tr.spans = []span{
		{ID: 1, Name: "op", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "child", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "child", StartNS: 50, EndNS: 70},
	}
	got := map[string]layerTime{}
	for _, l := range tr.selfTimes() {
		got[l.Name] = l
	}
	if l := got["op"]; l.Total != 100 || l.Self != 50 || l.Count != 1 {
		t.Fatalf("op: %+v, want total 100 self 50", l)
	}
	if l := got["child"]; l.Total != 50 || l.Self != 50 || l.Count != 2 || l.Parent != "op" {
		t.Fatalf("child: %+v", l)
	}
	var off *tracer
	id, end := off.start("x", 0)
	end()
	if id != 0 || off.selfTimes() != nil || off.write(t.TempDir()) != nil {
		t.Fatal("a nil tracer must record nothing")
	}
}

// benchmarkSpec is BENCHMARK.json as the driver reads it.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecMatchesProgram(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), program has %q", i, w.Name, len(w.Why), workloads[i])
		}
	}
	if float64(spec.RunSeconds) != defaultConfig().seconds {
		t.Errorf("run_seconds %d, program default %v", spec.RunSeconds, defaultConfig().seconds)
	}
	same := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s: bound %v", m.Name, m.Bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}

// TestSmoke runs every workload, untraced and traced, at about 1/100 of
// full scale against a freshly built ingestd, and checks that each prints
// exactly the metrics BENCHMARK.json lists, with their units, and passes
// its own correctness gate.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs ingestd")
	}
	tmp := t.TempDir()
	ingestd := filepath.Join(tmp, "ingestd")
	build := exec.Command("go", "build", "-o", ingestd, "./cmd/ingestd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ingestd: %v\n%s", err, out)
	}
	spec := loadSpec(t)
	for _, name := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := defaultConfig()
			cfg.workload, cfg.seed, cfg.trace = name, 7, traced
			cfg.ingestd, cfg.work, cfg.out = ingestd, filepath.Join(tmp, "work"), filepath.Join(tmp, "out")
			cfg.nproc = runtime.NumCPU()
			cfg.seconds, cfg.setupReps, cfg.probeBudget = 0.3, 2, 0.02
			cfg.streams, cfg.sessions, cfg.fleet = poolSize{2, 16384}, poolSize{3, 8192}, poolSize{2, 16384}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json lists %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: metric %s [%s]: printed %+v (present: %v)", name, traced, m.Name, m.Unit, got, ok)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, m.Name, got.Value)
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "work", "*")); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
	children.Lock()
	n := len(children.live)
	children.Unlock()
	if n != 0 {
		t.Errorf("%d ingestd children left running", n)
	}
	if _, err := os.Stat(filepath.Join(tmp, "out", "trace.json")); err != nil {
		t.Errorf("traced run wrote no trace.json: %v", err)
	}
}
