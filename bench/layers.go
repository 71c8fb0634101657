package main

import (
	"encoding/json"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"netenergy/internal/analysis"
	"netenergy/internal/core"
	"netenergy/internal/energy"
	"netenergy/internal/ingest/checkpoint"
	"netenergy/internal/lz"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
	"netenergy/internal/tsq"
)

// perLayer is the ledger: one row per layer boundary, named after the
// module that owns the layer. README.md says which end-to-end metric each
// row should move, on which workload.
//
// Every row is measured in every traced run. Rows timed by calling public
// functions (the probes below) do not depend on the workload. Rows observed
// on a running server or generator — the ingest.* /metrics rows, peak RSS,
// the gen.* rows, the per-class latencies — come from the workload's own
// when it has one and from the ledger probe's small stand-in otherwise.
var perLayer = []metricDef{
	// set-up
	{"synthgen.generate_ns_per_record", "ns"},
	{"bench.build_s", "s"},
	// generator cost
	{"trace.encode_ns_per_record", "ns"},
	{"bench.client_cpu_us_per_record", "us"},
	// ingest: decode, apply, segment append, checkpoint
	{"trace.decode_ns_per_record", "ns"},
	{"analysis.feedbatch_ns_per_record", "ns"},
	{"analysis.feed_ns_per_record", "ns"},
	{"trace.segment_append_ns_per_record", "ns"},
	{"trace.segment_bytes_per_record", "bytes"},
	{"lz.compress_mbps", "MB/s"},
	{"lz.decompress_mbps", "MB/s"},
	{"analysis.appendstate_us_per_device", "us"},
	{"analysis.appendstate_bytes_per_device", "bytes"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.bytes", "bytes"},
	// ingest, as the server's own /metrics see it
	{"ingest.frame_decode_busy_share", "share"},
	{"ingest.apply_wait_p50_ms", "ms"},
	{"ingest.apply_wait_p99_ms", "ms"},
	{"ingest.batch_records_mean", "count"},
	{"ingest.queue_depth_max", "count"},
	{"ingest.checkpoint_save_p50_ms", "ms"},
	{"ingest.checkpoint_saves", "count"},
	{"ingest.fin_batch_sessions_mean", "count"},
	{"ingest.segments_sealed", "count"},
	{"ingest.segment_records_dropped", "count"},
	{"ingest.duplicates", "count"},
	{"ingest.severs", "count"},
	{"ingest.peak_rss_mb", "MB"},
	// the ingest CPU ledger
	{"ingest.full_cpu_us_per_record", "us"},
	{"ingest.bare_cpu_us_per_record", "us"},
	{"ingest.wire_cpu_us_per_record", "us"},
	{"ingest.checkpoint_cpu_us_per_record", "us"},
	{"ingest.ledger_unattributed_share", "share"},
	// open-loop validity
	{"gen.late_p99_ms", "ms"},
	{"gen.achieved_rate_share", "share"},
	// query: index read, block decode, window accumulate, merge, encode
	{"trace.index_read_us_per_file", "us"},
	{"trace.scan_narrow_ms", "ms"},
	{"trace.scan_blocks_skipped_share", "share"},
	{"trace.scan_rows_matched_share", "share"},
	{"trace.scan_wide_ms", "ms"},
	{"analysis.window_accumulate_ms", "ms"},
	{"tsq.windows_per_query", "count"},
	{"tsq.queryfiles_wide_ms", "ms"},
	{"tsq.querydir_wide_ms", "ms"},
	{"tsq.querydir_narrow_ms", "ms"},
	{"tsq.finalize_ms", "ms"},
	{"tsq.encode_ms", "ms"},
	{"tsq.result_bytes", "bytes"},
	{"tsq.mallocs_per_query_wide", "count"},
	{"ingest.query_http_overhead_ms", "ms"},
	{"ingest.query_retries", "count"},
	{"cluster.merge_ms", "ms"},
	// batch study
	{"trace.readfile_parallel_mbps", "MB/s"},
	{"energy.process_ns_per_record", "ns"},
	{"analysis.load_s", "s"},
	{"core.open_s", "s"},
	{"core.open_1worker_s", "s"},
	{"report.write_s", "s"},
	{"analysis.streamfleet_s", "s"},
	// latency by class, where the end-to-end op_* metrics pool them
	{"session_p50_ms", "ms"},
	{"session_tail_ms", "ms"},
	{"query_wide_p50_ms", "ms"},
	{"query_wide_tail_ms", "ms"},
	{"query_narrow_p50_ms", "ms"},
	{"query_narrow_tail_ms", "ms"},
	{"study_s", "s"},
	// the cost of looking
	{"bench.trace_overhead_pct", "%"},
}

// probe times calls into the layers' public functions over inputs generated
// from the run's seed, single-threaded, one span per call.
type probe struct {
	r      *run
	m      map[string]float64
	parent int
	pool   []*trace.DeviceTrace
	dir    string
}

// timeIt calls fn at least min times and until budget (scaled by the
// config's probeBudget) is spent, and returns the median call.
func (pr *probe) timeIt(name string, min int, budget time.Duration, fn func()) time.Duration {
	deadline := time.Now().Add(time.Duration(float64(budget) * pr.r.cfg.probeBudget))
	var ds []float64
	for i := 0; i < 500 && (i < min || time.Now().Before(deadline)); i++ {
		_, end := pr.r.tr.start(name, pr.parent)
		t0 := time.Now()
		fn()
		ds = append(ds, float64(time.Since(t0)))
		end()
	}
	return time.Duration(median(ds))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func mbps(bytes int, d time.Duration) float64 {
	return float64(bytes) / 1e6 / d.Seconds()
}

// perLayerMetrics fills the whole ledger for one traced run; untracedP50 is the median operation of the untraced stretches around the
// traced one.
func perLayerMetrics(r *run, w workload, c *child, traced *phase, untracedP50 float64) (map[string]float64, error) {
	dir, err := r.subdir("probe")
	if err != nil {
		return nil, err
	}
	pr := &probe{r: r, m: map[string]float64{"bench.build_s": r.cfg.buildS}, dir: dir}
	var end func()
	pr.parent, end = r.tr.start("probes", 0)
	defer end()

	cfg := synthgen.Small(1, 2)
	cfg.Seed = r.cfg.seed
	var dev0 *trace.DeviceTrace
	d := pr.timeIt("synthgen.generate", 1, 0, func() { dev0 = synthgen.GenerateDevice(cfg, 0) })
	pr.m["synthgen.generate_ns_per_record"] = float64(d) / float64(len(dev0.Records))
	pr.pool = r.genPool("pr-", r.cfg.streams)

	fleetDir := ""
	if bs, ok := w.(*batchStudy); ok {
		fleetDir = bs.dir
	}
	for _, step := range []func() error{
		pr.codec, pr.accumulate, pr.compress, pr.checkpoints, pr.segmentsAndQueries,
		func() error { return pr.study(fleetDir) }, pr.ledger,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	m := pr.m

	// Overlay what this workload's own server and generator showed.
	if c != nil {
		for k, v := range observed(traced.before, traced.after, traced.sutCPU) {
			m[k] = v
		}
		m["ingest.queue_depth_max"] = traced.depthMax
		m["ingest.peak_rss_mb"] = c.peakRSSMB()
	}
	classLatencies(m, traced.lat)
	if len(traced.lat["query_narrow"]) > 0 {
		m["ingest.query_retries"] = float64(traced.retries)
	}
	if len(traced.late) > 0 {
		m["gen.late_p99_ms"], _ = tailOf(traced.late, 99)
		m["gen.achieved_rate_share"] = traced.rateShare
	}
	if traced.sent > 0 {
		m["bench.client_cpu_us_per_record"] = us(traced.genCPU) / float64(traced.sent)
	}
	m["ingest.query_http_overhead_ms"] = m["query_narrow_p50_ms"] - m["tsq.querydir_narrow_ms"] - m["tsq.encode_narrow_ms"]
	m["bench.trace_overhead_pct"] = 100 * (median(traced.opLatencies())/untracedP50 - 1)
	return m, nil
}

// classLatencies writes the median and supported tail of each latency class
// present. A bulk stream is a (long) session.
func classLatencies(m map[string]float64, lat map[string][]float64) {
	for class, xs := range lat {
		if len(xs) == 0 {
			continue
		}
		switch class {
		case "stream":
			class = "session"
		case "study":
			m["study_s"] = median(xs) / 1000
			continue
		}
		m[class+"_p50_ms"] = median(xs)
		m[class+"_tail_ms"], _ = tailOf(xs, 99)
	}
}

// codec: RecordEncoder.Encode is what the generator pays per record,
// RecordDecoder.Decode what the server's connection handler pays.
func (pr *probe) codec() error {
	dt := pr.pool[0]
	n := float64(len(dt.Records))
	var bodies [][]byte
	d := pr.timeIt("trace.encode", 3, 100*time.Millisecond, func() {
		enc := trace.NewRecordEncoder(dt.Start)
		for i := range dt.Records {
			enc.Encode(&dt.Records[i]) //nolint:errcheck // generated records encode
		}
	})
	pr.m["trace.encode_ns_per_record"] = float64(d) / n
	enc := trace.NewRecordEncoder(dt.Start)
	for i := range dt.Records {
		b, err := enc.Encode(&dt.Records[i])
		if err != nil {
			return err
		}
		bodies = append(bodies, append([]byte(nil), b...))
	}
	var derr error
	d = pr.timeIt("trace.decode", 3, 100*time.Millisecond, func() {
		dec := trace.NewRecordDecoder(dt.Start)
		for _, b := range bodies {
			if _, err := dec.Decode(b); err != nil {
				derr = err
			}
		}
	})
	pr.m["trace.decode_ns_per_record"] = float64(d) / n
	return derr
}

// accumulate: the apply step, on the columnar path the shards use
// (FeedBatch over 128-record batches) and on the one-record path, and the
// cost of serializing a device's accumulator for a checkpoint.
func (pr *probe) accumulate() error {
	dt := pr.pool[0]
	n := float64(len(dt.Records))
	opts := energy.DefaultOptions()
	var batches []*trace.RecordBatch
	for lo := 0; lo < len(dt.Records); lo += 128 {
		b := &trace.RecordBatch{}
		for i := lo; i < lo+128 && i < len(dt.Records); i++ {
			b.Append(&dt.Records[i])
		}
		batches = append(batches, b)
	}
	d := pr.timeIt("analysis.feedbatch", 3, 100*time.Millisecond, func() {
		acc := analysis.NewStreamAccumulator(dt.Device, opts)
		for _, b := range batches {
			acc.FeedBatch(b)
		}
	})
	pr.m["analysis.feedbatch_ns_per_record"] = float64(d) / n
	var acc *analysis.StreamAccumulator
	d = pr.timeIt("analysis.feed", 3, 100*time.Millisecond, func() {
		acc = analysis.NewStreamAccumulator(dt.Device, opts)
		for i := range dt.Records {
			acc.Feed(&dt.Records[i])
		}
	})
	pr.m["analysis.feed_ns_per_record"] = float64(d) / n
	var state []byte
	d = pr.timeIt("analysis.appendstate", 10, 20*time.Millisecond, func() { state = acc.AppendState(state[:0]) })
	pr.m["analysis.appendstate_us_per_device"] = us(d)
	pr.m["analysis.appendstate_bytes_per_device"] = float64(len(state))
	return nil
}

// compress: the LZ codec under every METR-3 block, over the flat-encoded
// trace in block-sized pieces.
func (pr *probe) compress() error {
	flat, err := pr.pool[0].Encode()
	if err != nil {
		return err
	}
	const block = 64 << 10
	var comp [][]byte
	app := new(lz.Appender)
	d := pr.timeIt("lz.compress", 3, 100*time.Millisecond, func() {
		comp = comp[:0]
		for lo := 0; lo < len(flat); lo += block {
			hi := lo + block
			if hi > len(flat) {
				hi = len(flat)
			}
			comp = append(comp, app.Compress(nil, flat[lo:hi]))
		}
	})
	pr.m["lz.compress_mbps"] = mbps(len(flat), d)
	dst := make([]byte, block)
	var derr error
	d = pr.timeIt("lz.decompress", 3, 100*time.Millisecond, func() {
		for i, c := range comp {
			n := block
			if i == len(comp)-1 {
				n = len(flat) - i*block
			}
			if err := lz.Decompress(dst[:n], c); err != nil {
				derr = err
			}
		}
	})
	pr.m["lz.decompress_mbps"] = mbps(len(flat), d)
	return derr
}

// checkpointDevices is the retired-device count checkpoint.save_ms is
// measured at: about what ingest_sessions reaches halfway through its run.
const checkpointDevices = 512

// checkpoints: AppendState -> checkpoint.Encode -> Store.Save (fsync and
// rename included) of a node holding the pool live and checkpointDevices
// retired.
func (pr *probe) checkpoints() error {
	opts := energy.DefaultOptions()
	var snap checkpoint.Snapshot
	for i, dt := range pr.pool {
		acc := analysis.NewStreamAccumulator(dt.Device, opts)
		for j := range dt.Records[:len(dt.Records)/2] {
			acc.Feed(&dt.Records[j])
		}
		snap.Devices = append(snap.Devices, checkpoint.DeviceState{Device: dt.Device, Seq: int64(len(dt.Records) / 2), Acc: acc.AppendState(nil)})
		day := acc.Finish().AppendBinary(nil)
		for k := i; k < checkpointDevices; k += len(pr.pool) {
			snap.Ledger = append(snap.Ledger, checkpoint.RetiredRecord{
				Device: replica(dt, int64(k+1)), Seq: int64(len(dt.Records)), CRC: crc32.ChecksumIEEE(day), Blob: day})
		}
	}
	store, err := checkpoint.Open(filepath.Join(pr.dir, "ck"))
	if err != nil {
		return err
	}
	var path string
	var serr error
	d := pr.timeIt("checkpoint.save", 5, 100*time.Millisecond, func() {
		if path, _, serr = store.Save(&snap); serr != nil {
			return
		}
	})
	if serr != nil {
		return serr
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	pr.m["checkpoint.save_ms"] = ms(d)
	pr.m["checkpoint.bytes"] = float64(st.Size())
	return nil
}

// segmentsAndQueries writes the pool as sealed METR-3 segments the way the
// segment store lays them out (rolled at segmentMaxBytes), then walks the
// query path bottom-up over them: index read, pushdown scan, window
// accumulate, QueryDir, finalize, merge, encode.
func (pr *probe) segmentsAndQueries() error {
	var seg string
	var records, bytes int64
	var paths []string
	var passes []float64
	for pass := 0; pass < 2; pass++ {
		seg = filepath.Join(pr.dir, "seg"+strconv.Itoa(pass))
		if err := os.MkdirAll(seg, 0o755); err != nil {
			return err
		}
		records, bytes, paths = 0, 0, nil
		_, end := pr.r.tr.start("trace.segment_append", pr.parent)
		t0 := time.Now()
		for _, dt := range pr.pool {
			ps, b, err := writeSegments(seg, dt)
			if err != nil {
				return err
			}
			paths = append(paths, ps...)
			bytes += b
			records += int64(len(dt.Records))
		}
		passes = append(passes, float64(time.Since(t0)))
		end()
	}
	d := time.Duration(median(passes))
	pr.m["trace.segment_append_ns_per_record"] = float64(d) / float64(records)
	pr.m["trace.segment_bytes_per_record"] = float64(bytes) / float64(records)

	var ierr error
	d = pr.timeIt("trace.index_read", 3, 50*time.Millisecond, func() {
		for _, p := range paths {
			if err := readIndex(p); err != nil {
				ierr = err
			}
		}
	})
	if ierr != nil {
		return ierr
	}
	pr.m["trace.index_read_us_per_file"] = us(d) / float64(len(paths))

	// One wide query, and a handful of narrow ones to cycle through: a
	// single random hour is not the median hour.
	mix := newQueryMix(pr.r.cfg.seed, pr.pool)
	wide, _ := mix.next()
	var narrows []tsq.Query
	for len(narrows) < 16 {
		if q, class := mix.next(); class == "query_narrow" {
			narrows = append(narrows, q)
		}
	}
	turn := 0
	narrow := func() tsq.Query { turn++; return narrows[turn%len(narrows)] }
	scan := func(q tsq.Query) (trace.ScanStats, error) {
		var st trace.ScanStats
		opt := trace.ScanOptions{Range: q.Range(), Apps: q.Apps}
		for _, p := range paths {
			if _, err := trace.ScanFile(p, opt, &st, func(*trace.RecordBatch) error { return nil }); err != nil {
				return st, err
			}
		}
		return st, nil
	}
	var st trace.ScanStats
	var serr error
	d = pr.timeIt("trace.scan_narrow", 16, 50*time.Millisecond, func() {
		one, err := scan(narrow())
		st.Add(one)
		if err != nil {
			serr = err
		}
	})
	pr.m["trace.scan_narrow_ms"] = ms(d)
	pr.m["trace.scan_blocks_skipped_share"] = float64(st.BlocksSkipped) / float64(st.BlocksTotal)
	pr.m["trace.scan_rows_matched_share"] = float64(st.RecordsMatched) / math.Max(1, float64(st.RecordsScanned))
	dScanWide := pr.timeIt("trace.scan_wide", 3, 150*time.Millisecond, func() {
		if _, err := scan(wide); err != nil {
			serr = err
		}
	})
	if serr != nil {
		return serr
	}
	pr.m["trace.scan_wide_ms"] = ms(dScanWide)

	eng := tsq.Engine{Opts: energy.DefaultOptions()}
	var res, resNarrow *tsq.Result
	var qerr error
	sort.Strings(paths)
	dFiles := pr.timeIt("tsq.queryfiles_wide", 3, 200*time.Millisecond, func() {
		if res, qerr = eng.QueryFiles(paths, wide); qerr != nil {
			return
		}
	})
	if qerr != nil {
		return qerr
	}
	pr.m["tsq.queryfiles_wide_ms"] = ms(dFiles)
	// What QueryFiles does beyond the scan it wraps: WindowedAccumulator
	// FeedBatch + Finish, and folding the windows into rows.
	pr.m["analysis.window_accumulate_ms"] = ms(dFiles - dScanWide)
	pr.m["tsq.windows_per_query"] = float64(len(res.Windows))

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if res, qerr = eng.QueryDir(seg, wide); qerr != nil {
		return qerr
	}
	runtime.ReadMemStats(&ms1)
	pr.m["tsq.mallocs_per_query_wide"] = float64(ms1.Mallocs - ms0.Mallocs)
	d = pr.timeIt("tsq.querydir_wide", 3, 200*time.Millisecond, func() { _, qerr = eng.QueryDir(seg, wide) })
	pr.m["tsq.querydir_wide_ms"] = ms(d)
	d = pr.timeIt("tsq.querydir_narrow", 16, 50*time.Millisecond, func() {
		var err error
		if resNarrow, err = eng.QueryDir(seg, narrow()); err != nil {
			qerr = err
		}
	})
	if qerr != nil {
		return qerr
	}
	pr.m["tsq.querydir_narrow_ms"] = ms(d)

	var body []byte
	d = pr.timeIt("tsq.encode", 5, 50*time.Millisecond, func() { body, _ = json.Marshal(res) })
	pr.m["tsq.encode_ms"] = ms(d)
	pr.m["tsq.result_bytes"] = float64(len(body))
	d = pr.timeIt("tsq.encode_narrow", 5, 20*time.Millisecond, func() { json.Marshal(resNarrow) }) //nolint:errcheck // plain struct
	pr.m["tsq.encode_narrow_ms"] = ms(d)

	// Merge + Finalize of two nodes' results, as the fleet fan-out would
	// do; Finalize alone is every single-node query's last step. Both
	// mutate, so each call works on a fresh decode of the wide result.
	clone := func() *tsq.Result {
		var c tsq.Result
		json.Unmarshal(body, &c) //nolint:errcheck // round trip of our own Marshal
		return &c
	}
	var a, b *tsq.Result
	reps := int(math.Max(3, 10*pr.r.cfg.probeBudget))
	var merges, finals []float64
	for i := 0; i < reps; i++ {
		a, b = clone(), clone()
		_, end := pr.r.tr.start("cluster.merge", pr.parent)
		t0 := time.Now()
		a.Merge(b)
		t1 := time.Now()
		a.Finalize(wide.TopN)
		t2 := time.Now()
		end()
		merges = append(merges, float64(t2.Sub(t0)))
		finals = append(finals, float64(t2.Sub(t1)))
	}
	pr.m["cluster.merge_ms"] = ms(time.Duration(median(merges)))
	pr.m["tsq.finalize_ms"] = ms(time.Duration(median(finals)))
	return nil
}

// writeSegments writes one device's records as sealed METR-3 files rolled
// at segmentMaxBytes and returns their paths and total size.
func writeSegments(dir string, dt *trace.DeviceTrace) (paths []string, bytes int64, err error) {
	var f *os.File
	var w *trace.ColumnWriter
	seal := func() error {
		if w == nil {
			return nil
		}
		if err := w.Flush(); err != nil {
			return err
		}
		st, err := f.Stat()
		if err != nil {
			return err
		}
		bytes += st.Size()
		w = nil
		return f.Close()
	}
	for i := range dt.Records {
		if w != nil && i%512 == 0 {
			if st, err := f.Stat(); err == nil && st.Size() >= segmentMaxBytes {
				if err := seal(); err != nil {
					return nil, 0, err
				}
			}
		}
		if w == nil {
			path := filepath.Join(dir, dt.Device+"-"+strconv.Itoa(len(paths))+".metr3")
			if f, err = os.Create(path); err != nil {
				return nil, 0, err
			}
			if w, err = trace.NewColumnWriter(f, dt.Device, dt.Records[i].TS); err != nil {
				return nil, 0, err
			}
			paths = append(paths, path)
		}
		if err := w.Write(&dt.Records[i]); err != nil {
			return nil, 0, err
		}
	}
	return paths, bytes, seal()
}

func readIndex(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	_, _, _, _, err = trace.ReadBlockIndex(f, st.Size())
	return err
}

// study walks the batch path bottom-up over a METR-3 fleet: the workload's
// own when it is batch_study, a small one generated here otherwise.
func (pr *probe) study(dir string) error {
	r := pr.r
	if dir == "" {
		dir = filepath.Join(pr.dir, "fleet")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if err := r.writeFleet(poolSize{4, 16384}, dir); err != nil {
			return err
		}
	}
	fleet, err := trace.OpenFleet(dir)
	if err != nil {
		return err
	}
	st, err := os.Stat(fleet.Paths[0])
	if err != nil {
		return err
	}
	var dt *trace.DeviceTrace
	d := pr.timeIt("trace.readfile_parallel", 1, 50*time.Millisecond, func() { dt, err = trace.ReadFileParallel(fleet.Paths[0], r.cfg.nproc) })
	if err != nil {
		return err
	}
	pr.m["trace.readfile_parallel_mbps"] = mbps(int(st.Size()), d)
	d = pr.timeIt("energy.process", 1, 50*time.Millisecond, func() { _, err = energy.Process(dt, energy.DefaultOptions()) })
	if err != nil {
		return err
	}
	pr.m["energy.process_ns_per_record"] = float64(d) / float64(len(dt.Records))

	d = pr.timeIt("analysis.load", 1, 0, func() { _, err = analysis.LoadFleet(fleet, energy.DefaultOptions()) })
	if err != nil {
		return err
	}
	pr.m["analysis.load_s"] = d.Seconds()
	d = pr.timeIt("analysis.streamfleet", 1, 0, func() { _, err = analysis.StreamFleet(fleet, energy.DefaultOptions()) })
	if err != nil {
		return err
	}
	pr.m["analysis.streamfleet_s"] = d.Seconds()
	d = pr.timeIt("core.open_1worker", 1, 0, func() { _, err = core.OpenParallel(dir, 1) })
	if err != nil {
		return err
	}
	pr.m["core.open_1worker_s"] = d.Seconds()
	var s *core.Study
	dOpen := pr.timeIt("core.open", 1, 0, func() { s, err = core.OpenParallel(dir, r.cfg.nproc) })
	if err != nil {
		return err
	}
	pr.m["core.open_s"] = dOpen.Seconds()
	dReport := pr.timeIt("report.write", 1, 0, func() { err = s.WriteReport(io.Discard) })
	if err != nil {
		return err
	}
	pr.m["report.write_s"] = dReport.Seconds()
	pr.m["study_s"] = (dOpen + dReport).Seconds()
	return nil
}

// ledger attributes the server's CPU per accepted record. The same bulk
// stream goes into a full node (checkpoints and segments on) and a bare one
// (neither); what the bare node spends beyond decode and apply is the wire
// (socket read, framing, enqueue), and what the full node spends beyond
// the bare one, segment append and the amortised checkpoint is unattributed
// — the gap ROADMAP.md asks to have named. The full node then stands in
// for the server-side rows of workloads that have no server of their own.
func (pr *probe) ledger() error {
	r, m := pr.r, pr.m
	stretch := time.Duration(float64(time.Second) * r.cfg.probeBudget)
	cpuPerRecord := func(n *node) (*phase, time.Duration, error) {
		cpu0, err := n.c.cpu()
		if err != nil {
			return nil, 0, err
		}
		self0 := selfCPU()
		p := bulkLoad(r, n, pr.pool, stretch, r.tr, pr.parent)
		p.genCPU = selfCPU() - self0
		cpu1, err := n.c.cpu()
		r.count(p.attempted, p.failed)
		return p, cpu1 - cpu0, err
	}

	full, err := startNode(r, false, false)
	if err != nil {
		return err
	}
	// Stand-in sessions and queries for workloads that have none, over the
	// sealed pool and before the bulk stretch buries it under replicas.
	if err := full.populate(pr.pool); err != nil {
		return err
	}
	pq := newPhase()
	var mu sync.Mutex
	newAnalyst(full.c.admin, newQueryMix(r.cfg.seed, pr.pool)).run(stretch/2, pq, &mu, false, r.tr, pr.parent)
	r.count(pq.attempted, pq.failed)
	m["ingest.query_retries"] = float64(pq.retries)
	ps := newPhase()
	sessionLoad(r, full, pr.pool, ps, 10, r.cfg.nproc, stretch/2, r.tr, pr.parent)
	r.count(ps.attempted, ps.failed)
	m["gen.late_p99_ms"], _ = tailOf(ps.late, 99)
	m["gen.achieved_rate_share"] = ps.rateShare
	classLatencies(m, map[string][]float64{"session": ps.lat["session"],
		"query_wide": pq.lat["query_wide"], "query_narrow": pq.lat["query_narrow"]})

	before, err := full.c.scrape()
	if err != nil {
		return err
	}
	stopSampler := sampleQueueDepth(full.c)
	p, cpu, err := cpuPerRecord(full)
	m["ingest.queue_depth_max"] = stopSampler()
	if err != nil {
		return err
	}
	after, err := full.c.scrape()
	if err != nil {
		return err
	}
	for k, v := range observed(before, after, cpu) {
		m[k] = v
	}
	fullCPU := us(cpu) / float64(p.records)
	m["ingest.full_cpu_us_per_record"] = fullCPU
	m["ingest.checkpoint_cpu_us_per_record"] = 1e6 * (after["ingest_checkpoint_save_seconds_sum"] - before["ingest_checkpoint_save_seconds_sum"]) / float64(p.records)
	m["bench.client_cpu_us_per_record"] = us(p.genCPU) / float64(p.sent)
	if err := full.reconcile(); err != nil {
		return err
	}
	if _, _, err := full.stop(); err != nil {
		return err
	}
	m["ingest.peak_rss_mb"] = full.c.peakRSSMB()

	bare, err := startNode(r, false, true)
	if err != nil {
		return err
	}
	p, cpu, err = cpuPerRecord(bare)
	if err != nil {
		return err
	}
	if err := bare.reconcile(); err != nil {
		return err
	}
	if _, _, err := bare.stop(); err != nil {
		return err
	}
	bareCPU := us(cpu) / float64(p.records)
	m["ingest.bare_cpu_us_per_record"] = bareCPU
	inProcess := (m["trace.decode_ns_per_record"] + m["analysis.feedbatch_ns_per_record"]) / 1000
	m["ingest.wire_cpu_us_per_record"] = bareCPU - inProcess
	m["ingest.ledger_unattributed_share"] = (fullCPU - bareCPU - m["trace.segment_append_ns_per_record"]/1000 -
		m["ingest.checkpoint_cpu_us_per_record"]) / fullCPU
	return nil
}

// observed turns two scrapes of a child's /metrics, and its CPU time
// between them, into the server-side ledger rows.
func observed(before, after map[string]float64, cpu time.Duration) map[string]float64 {
	delta := func(name string) float64 { return after[name] - before[name] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m := map[string]float64{
		"ingest.frame_decode_busy_share": ratio(delta("ingest_frame_decode_seconds_sum"), cpu.Seconds()),
		"ingest.apply_wait_p50_ms":       1000 * histQuantile(before, after, "ingest_apply_latency_seconds", 0.50),
		"ingest.apply_wait_p99_ms":       1000 * histQuantile(before, after, "ingest_apply_latency_seconds", 0.99),
		"ingest.batch_records_mean":      ratio(delta("ingest_batch_records_sum"), delta("ingest_batch_records_count")),
		"ingest.checkpoint_save_p50_ms":  1000 * histQuantile(before, after, "ingest_checkpoint_save_seconds", 0.50),
		"ingest.checkpoint_saves":        delta("ingest_checkpoint_save_seconds_count"),
		"ingest.fin_batch_sessions_mean": ratio(delta("ingest_fin_batch_sessions_sum"), delta("ingest_fin_batch_sessions_count")),
		"ingest.segments_sealed":         delta("ingest_segments_sealed_total"),
		"ingest.segment_records_dropped": delta("ingest_segment_records_dropped_total"),
		"ingest.duplicates":              delta("ingest_duplicates_total"),
		"ingest.severs":                  delta("ingest_severs_total"),
	}
	return m
}

// histQuantile estimates quantile q of the observations a Prometheus
// histogram took between two scrapes, interpolating linearly inside the
// bucket the quantile falls in (the exposition's buckets grow by 4x, so
// this is a coarse number: read it as an order of magnitude).
func histQuantile(before, after map[string]float64, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].n
	for i, b := range bs {
		if b.n < rank {
			continue
		}
		lo, below := 0.0, 0.0
		if i > 0 {
			lo, below = bs[i-1].le, bs[i-1].n
		}
		if math.IsInf(b.le, 1) {
			return lo
		}
		return lo + (b.le-lo)*(rank-below)/(b.n-below)
	}
	return 0
}
