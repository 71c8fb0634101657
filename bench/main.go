// Command netenergy-bench is the repository's benchmark: five workloads
// over the three ways the system serves the paper's method — ingestd's
// socket-to-checkpointed-accumulator path, its /query path, and the batch
// study — each reporting the end-to-end metrics of BENCHMARK.json and, in a
// separate traced run, the per-layer ledger. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// metricDef names a metric and its unit; the two tables below are the
// program's side of BENCHMARK.json, and the smoke test holds them equal.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"records_per_s", "records/s"},
	{"cpu_us_per_record", "us"},
	{"disk_bytes_per_record", "bytes"},
}

// workloads, in the order of BENCHMARK.json: lightest writer first, so that
// ingest_bulk, which writes and deletes half a GB a run, has nothing
// following it.
var workloads = []string{"batch_study", "query_sealed", "mixed_live", "ingest_sessions", "ingest_bulk"}

func newWorkload(r *run) (workload, error) {
	switch r.cfg.workload {
	case "ingest_bulk":
		return &ingestBulk{r: r}, nil
	case "ingest_sessions":
		return &ingestSessions{r: r}, nil
	case "query_sealed":
		return &querySealed{r: r}, nil
	case "mixed_live":
		return &mixedLive{r: r}, nil
	case "batch_study":
		return &batchStudy{r: r}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", r.cfg.workload, strings.Join(workloads, ", "))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints last on standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload runs one workload once: set-ups, warm-up, the timed stretch
// (split into an untraced and a traced half when tracing), the correctness
// gate, teardown, and — traced only — the per-layer probes.
func runWorkload(cfg config) (res result, err error) {
	r, err := newRun(cfg)
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(r.dir)
	defer killAllChildren()
	if cfg.trace {
		r.tr = newTracer(cfg.workload)
	}
	w, err := newWorkload(r)
	if err != nil {
		return res, err
	}

	// Set-up, several times over: setup_s is the median, so that one slow
	// fsync or a cold page cache does not decide it.
	var setups []float64
	for i := 0; i < cfg.setupReps; i++ {
		if i > 0 {
			if _, _, err := w.teardown(); err != nil {
				return res, err
			}
		}
		runtime.GC() // each set-up starts from a collected heap, like the first
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return res, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	seconds := time.Duration(cfg.seconds * float64(time.Second))
	if _, err := r.measure(w, "warmup", seconds/10, false); err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}
	// Untraced, the timed stretch is one piece. Traced, it is a traced half
	// between two untraced quarters, so that a workload whose latency
	// drifts through the run (a growing checkpoint, growing history) has
	// the same mean drift on both sides of the overhead comparison.
	var plain, traced, plainEnd *phase
	if !cfg.trace {
		if plain, err = r.measure(w, "timed", seconds, false); err != nil {
			return res, err
		}
		r.count(plain.attempted, plain.failed)
	} else {
		if plain, err = r.measure(w, "untraced", seconds/4, false); err != nil {
			return res, err
		}
		if traced, err = r.measure(w, "traced", seconds/2, true); err != nil {
			return res, err
		}
		if plainEnd, err = r.measure(w, "untraced", seconds/4, false); err != nil {
			return res, err
		}
		r.count(plain.attempted+traced.attempted+plainEnd.attempted, plain.failed+traced.failed+plainEnd.failed)
	}
	c := w.server()
	if err := w.verify(); err != nil {
		if c != nil {
			err = fmt.Errorf("%w; ingestd log: %s", err, c.logTail())
		}
		return res, fmt.Errorf("verify: %w", err)
	}
	diskBytes, diskRecords, err := w.teardown()
	if err != nil {
		return res, fmt.Errorf("teardown: %w", err)
	}

	res.Metrics = map[string]metricValue{}
	if !cfg.trace {
		lat := plain.opLatencies()
		tail, tailP := tailOf(lat, opTailCap(cfg.workload))
		values := map[string]float64{
			"setup_s":               median(setups),
			"op_p50_ms":             median(lat),
			"op_tail_ms":            tail,
			"records_per_s":         float64(plain.records) / plain.elapsed.Seconds(),
			"cpu_us_per_record":     us(plain.sutCPU) / float64(plain.records),
			"disk_bytes_per_record": float64(diskBytes) / float64(diskRecords),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{values[m.name], m.unit}
		}
		fmt.Fprintf(os.Stderr, "bench: %s: %d ops in %.2fs (tail is p%g); set-ups took %.3fs\n",
			cfg.workload, len(lat), plain.elapsed.Seconds(), tailP, setups)
		for class, xs := range plain.lat {
			t, p := tailOf(xs, 99)
			fmt.Fprintf(os.Stderr, "bench: %s: %s: %d samples, p50 %.3f ms, p%g %.3f ms\n", cfg.workload, class, len(xs), median(xs), p, t)
		}
	} else {
		untraced := (median(plain.opLatencies()) + median(plainEnd.opLatencies())) / 2
		layers, err := perLayerMetrics(r, w, c, traced, untraced)
		if err != nil {
			return res, fmt.Errorf("per-layer probes: %w", err)
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{layers[m.name], m.unit}
		}
		if err := r.tr.write(cfg.out); err != nil {
			return res, err
		}
		printLayerTimes(r.tr.selfTimes())
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = res.Failed == 0
	printMetrics(cfg.workload, res)
	return res, nil
}

func printMetrics(workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tvalue\tunit\n")
	for _, n := range names {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\n", workload, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(tw, "%s\tfailed_share\t%d/%d\t\n", workload, res.Failed, res.Attempted)
	tw.Flush()
}

func printLayerTimes(layers []layerTime) {
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "span\tparent\tcount\ttotal_ms\tself_ms\n")
	for _, l := range layers {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.3f\t%.3f\n", l.Name, l.Parent, l.Count,
			float64(l.Total)/1e6, float64(l.Self)/1e6)
	}
	tw.Flush()
}

// environment is recorded with every result set: a number means little
// without the machine it came from.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	TempFS     string `json:"temp_dir_filesystem"`
}

func describeEnvironment(cfg config) environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Seed: cfg.seed, TempFS: "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	var fs syscall.Statfs_t
	if os.MkdirAll(cfg.work, 0o755) == nil && syscall.Statfs(cfg.work, &fs) == nil {
		env.TempFS = fmt.Sprintf("0x%x", fs.Type)
	}
	return env
}

// bounds are the regression bounds of BENCHMARK.json, which -check applies
// to this commit against itself.
func loadBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, err
	}
	bound := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bound[m.Name] = m.Bound
	}
	return bound, nil
}

func main() {
	cfg := defaultConfig()
	var traceFlag, repeat int
	var check bool
	var spec string
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: all, or one of "+strings.Join(workloads, ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "length of the timed stretch")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run, printing the per-layer metrics instead of the end-to-end ones")
	flag.IntVar(&repeat, "repeat", 1, "with -workload all: run this many full sets")
	flag.BoolVar(&check, "check", false, "with -repeat K: fail if an end-to-end metric differs between sets by more than its bound")
	flag.StringVar(&spec, "spec", "BENCHMARK.json", "benchmark definition, read for -check")
	flag.StringVar(&cfg.ingestd, "ingestd", "", "path of the ingestd binary under test (run.sh builds and passes it)")
	flag.StringVar(&cfg.work, "work", "", "scratch directory (run.sh passes .bench_build/work)")
	flag.StringVar(&cfg.out, "out", "bench/out", "directory the traced run writes trace.json to")
	flag.Float64Var(&cfg.buildS, "build-s", 0, "seconds run.sh spent in go build, reported as bench.build_s")
	flag.Parse()
	cfg.trace = traceFlag != 0
	cfg.nproc = runtime.NumCPU()
	if cfg.ingestd == "" || cfg.work == "" || flag.NArg() > 0 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-repeat K -check]")
		os.Exit(2)
	}

	// Children, ports and scratch files are cleaned up on every exit path:
	// runWorkload's defers cover returns, this covers signals.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAllChildren()
		os.RemoveAll(cfg.work)
		os.Exit(130)
	}()

	env := describeEnvironment(cfg)
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(os.Stderr, "bench: environment %s\n", envJSON)

	if cfg.workload != "all" {
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		out, err := json.Marshal(res)
		if err != nil { // a NaN: some stretch completed no operation at all
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}
	os.Exit(runSets(cfg, env, repeat, check, spec))
}

// runSets runs every workload, repeat times over, and with check compares
// each end-to-end metric between sets against its own bound.
func runSets(cfg config, env environment, repeat int, check bool, spec string) int {
	sets := make([]map[string]result, repeat)
	code := 0
	for s := range sets {
		sets[s] = map[string]result{}
		for _, name := range workloads {
			c := cfg
			c.workload = name
			res, err := runWorkload(c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
			sets[s][name] = res
		}
	}
	out, _ := json.Marshal(struct {
		Environment environment         `json:"environment"`
		Sets        []map[string]result `json:"sets"`
	}{env, sets})
	fmt.Println(string(out))
	if !check || repeat < 2 || cfg.trace {
		return code
	}
	bound, err := loadBounds(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -check:", err)
		return 1
	}
	for _, name := range workloads {
		for _, m := range endToEnd {
			first := sets[0][name].Metrics[m.name].Value
			for s := 1; s < repeat; s++ {
				v := sets[s][name].Metrics[m.name].Value
				apart := math.Abs(v-first) / math.Min(v, first)
				status := "ok"
				if apart > bound[m.name] {
					status, code = "OUT OF BOUND", 1
				}
				fmt.Fprintf(os.Stderr, "check: %-16s %-22s set 1 %.6g, set %d %.6g, apart %.1f%% (bound %.0f%%) %s\n",
					name, m.name, first, s+1, v, 100*apart, 100*bound[m.name], status)
			}
		}
	}
	return code
}
