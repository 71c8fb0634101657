// Command fleetsim is the fleet load generator: it synthesises N device
// traces (the same generator the batch study uses) and streams them to an
// ingestd through resumable sessions, optionally time-compressed and
// optionally through a fault injector (drops, corruption, latency, partial
// writes), then reports achieved throughput and recovery behaviour. With
// -admin it cross-checks the server's per-device counters against what was
// sent and exits non-zero on any discrepancy — the repo's end-to-end load
// and fault benchmark.
//
// Usage:
//
//	fleetsim -addr localhost:9009 -devices 200 -days 1
//	fleetsim -addr localhost:9009 -admin http://localhost:9010 -devices 200
//	fleetsim -devices 50 -speedup 86400   # one trace-day per wall-second
//	fleetsim -chaos-drop 0.05 -chaos-corrupt 0.01 -admin http://localhost:9010
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"netenergy/internal/chaos"
	"netenergy/internal/ingest"
	"netenergy/internal/obs"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

// counters is the client-side metric set. Everything the exit-time
// reconciliation reads goes through one obs.Registry — the same registry
// -stats-json dumps — so the numbers fleetsim reports, the numbers it
// checks against the server and the numbers it persists can never diverge.
type counters struct {
	reg *obs.Registry

	sentRecords *obs.Counter
	sentBytes   *obs.Counter
	conns       *obs.Counter
	resumed     *obs.Counter
	retrans     *obs.Counter
	throttled   *obs.Counter
	failed      *obs.Counter
}

func newCounters() *counters {
	reg := obs.New()
	return &counters{
		reg:         reg,
		sentRecords: reg.Counter("fleetsim_records_sent_total", "unique records acked by the server"),
		sentBytes:   reg.Counter("fleetsim_bytes_sent_total", "frame bytes written, retransmissions included"),
		conns:       reg.Counter("fleetsim_conns_total", "connections used across all sessions"),
		resumed:     reg.Counter("fleetsim_resumes_total", "reconnects that found prior progress"),
		retrans:     reg.Counter("fleetsim_retransmitted_total", "records sent more than once"),
		throttled:   reg.Counter("fleetsim_throttled_total", "handshakes the server refused for rate limiting"),
		failed:      reg.Counter("fleetsim_failed_devices_total", "device sessions that gave up"),
	}
}

func main() {
	var (
		addr    = flag.String("addr", "localhost:9009", "ingestd stream address")
		admin   = flag.String("admin", "", "ingestd admin base URL for the drop cross-check (e.g. http://localhost:9010)")
		headOut = flag.String("headline-json", "", "write the final headline JSON from -admin to this path")
		devices = flag.Int("devices", 20, "synthetic devices to stream concurrently")
		days    = flag.Int("days", 1, "trace days per device")
		seed    = flag.Uint64("seed", 20151028, "generator seed")
		speedup = flag.Float64("speedup", 0, "time-compression factor: trace-seconds per wall-second (0: unpaced, as fast as possible)")
		timeout = flag.Duration("connect-timeout", 10*time.Second, "per-attempt dial budget (sessions retry with backoff)")
		deadlin = flag.Duration("deadline", 2*time.Minute, "per-device session budget including retries (0: unlimited)")

		chaosDrop    = flag.Float64("chaos-drop", 0, "per-write probability of dropping the connection")
		chaosCorrupt = flag.Float64("chaos-corrupt", 0, "per-write probability of flipping one bit")
		chaosPartial = flag.Float64("chaos-partial", 0, "per-write probability of splitting the write")
		chaosLatency = flag.Duration("chaos-latency", 0, "max injected per-write latency")
		chaosSeed    = flag.Int64("chaos-seed", 1, "fault schedule seed")

		statsOut = flag.String("stats-json", "", "write end-of-run client metrics as JSON to this path, or - for stderr")
	)
	flag.Parse()

	cfg := synthgen.Default()
	cfg.Users = *devices
	cfg.Days = *days
	cfg.Seed = *seed

	chaosOn := *chaosDrop > 0 || *chaosCorrupt > 0 || *chaosPartial > 0 || *chaosLatency > 0
	var injector *chaos.Injector
	if chaosOn {
		injector = chaos.New(chaos.Config{
			DropRate:    *chaosDrop,
			CorruptRate: *chaosCorrupt,
			PartialRate: *chaosPartial,
			MaxLatency:  *chaosLatency,
			Seed:        *chaosSeed,
		})
	}

	c := newCounters()
	perDevice := make(map[string]int64, *devices)
	var perDeviceMu sync.Mutex
	gen := make(chan struct{}, runtime.GOMAXPROCS(0)) // bound concurrent generation
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gen <- struct{}{}
			dt := synthgen.GenerateDevice(cfg, i)
			<-gen
			st, err := streamDevice(*addr, dt, *speedup, *timeout, *deadlin, injector)
			c.conns.Add(int64(st.Conns))
			c.resumed.Add(int64(st.Resumed))
			c.retrans.Add(st.Retransmitted)
			c.throttled.Add(int64(st.Throttled))
			c.sentBytes.Add(st.Bytes)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fleetsim: %s: %v\n", dt.Device, err)
				c.failed.Add(1)
				return
			}
			c.sentRecords.Add(st.Records)
			perDeviceMu.Lock()
			perDevice[dt.Device] = st.Records
			perDeviceMu.Unlock()
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	c.reg.GaugeFunc("fleetsim_wall_seconds", "load-generation wall time",
		func() float64 { return wall.Seconds() })

	recs := c.sentRecords.Load()
	fmt.Printf("fleetsim: %d devices x %d days: %d records in %.2fs (%.0f records/s, %.2f MB on the wire)\n",
		*devices, *days, recs, wall.Seconds(), float64(recs)/wall.Seconds(),
		float64(c.sentBytes.Load())/1e6)
	if chaosOn {
		drops, corr, parts, delays := injector.Stats()
		fmt.Printf("fleetsim: chaos injected %d drops, %d corruptions, %d partial writes, %d delays; sessions used %d conns, %d resumes, %d retransmitted records\n",
			drops, corr, parts, delays, c.conns.Load(), c.resumed.Load(), c.retrans.Load())
	}
	if *statsOut != "" {
		dumpStats(c.reg, *statsOut)
	}
	if c.failed.Load() > 0 {
		fmt.Fprintf(os.Stderr, "fleetsim: %d device streams failed\n", c.failed.Load())
		os.Exit(1)
	}

	if *admin != "" {
		if err := crossCheck(*admin, c, perDevice, chaosOn); err != nil {
			fmt.Fprintln(os.Stderr, "fleetsim:", err)
			os.Exit(1)
		}
	}
	if *headOut != "" {
		if *admin == "" {
			fmt.Fprintln(os.Stderr, "fleetsim: -headline-json needs -admin")
			os.Exit(1)
		}
		if err := dumpHeadline(*admin+"/headline", *headOut); err != nil {
			fmt.Fprintln(os.Stderr, "fleetsim: headline-json:", err)
			os.Exit(1)
		}
	}
}

// dumpHeadline writes the raw /headline JSON body to path — the reference
// smoke.sh compares the headline after a kill and restart against.
func dumpHeadline(url, path string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// dumpStats writes the registry snapshot as indented JSON (to stderr when
// path is "-", keeping stdout clean for the run summary).
func dumpStats(reg *obs.Registry, path string) {
	out, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim: stats-json:", err)
		return
	}
	out = append(out, '\n')
	if path == "-" {
		os.Stderr.Write(out) //nolint:errcheck
		return
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim: stats-json:", err)
	}
}

// streamDevice delivers one device trace through a resumable session,
// pacing by the time-compression factor when one is set.
func streamDevice(addr string, dt *trace.DeviceTrace, speedup float64, timeout, deadline time.Duration, injector *chaos.Injector) (ingest.SessionStats, error) {
	cfg := ingest.SessionConfig{
		Addr:           addr,
		Device:         dt.Device,
		Start:          dt.Start,
		ConnectTimeout: timeout,
		Deadline:       deadline,
	}
	if injector != nil {
		cfg.WrapConn = injector.Wrap
	}
	if speedup > 0 {
		wallStart := time.Now()
		cfg.Pace = func(i int) time.Duration {
			due := wallStart.Add(time.Duration(dt.Records[i].TS.Sub(dt.Start) / speedup * float64(time.Second)))
			return time.Until(due)
		}
	}
	return ingest.StreamTrace(cfg, dt.Records)
}

// crossCheck fetches the server's counters and live headline and verifies
// every record every session believes was acked is accounted for — in
// aggregate, per device, and against the Prometheus /metrics exposition
// (two independent render paths over the server's registry must agree). The
// server may still be flushing shard queues when the last connection closes,
// so the record counter is polled until it settles. Under chaos,
// protocol-error counters are expected to be nonzero (that is the point);
// what must still hold is zero lost records.
func crossCheck(admin string, c *counters, perDevice map[string]int64, chaosOn bool) error {
	sent := c.sentRecords.Load()
	var st ingest.Stats
	deadline := time.Now().Add(15 * time.Second)
	for {
		if err := getJSON(admin+"/stats?devices=1", &st); err != nil {
			return err
		}
		if st.Records >= sent || time.Now().After(deadline) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	var h ingest.LiveHeadline
	if err := getJSON(admin+"/headline", &h); err != nil {
		return err
	}
	fmt.Printf("server: %d records accepted, %d duplicates dropped, %d resumes, %d severs, %d crc errors, %d decode errors, shard depths %v\n",
		st.Records, st.Duplicates, st.Resumes, st.Severs, st.CRCErrors, st.DecodeErrors, st.ShardDepths)
	if st.Checkpoint != nil {
		fmt.Printf("server: checkpoint generation %d (%.1fs old, %d bytes, %d errors)\n",
			st.Checkpoint.Generation, st.Checkpoint.AgeSec, st.Checkpoint.Bytes, st.Checkpoint.Errors)
	}
	fmt.Printf("live headline: %.0f J, background fraction %.3f, first-minute %.3f, screen-off bytes %.1f%%\n",
		h.TotalEnergyJ, h.BackgroundFraction, h.FirstMinuteFraction, 100*h.ScreenOffByteShare)

	// Per-device reconciliation: log every delta so a failure names the
	// device and the exact record count on each side.
	var mismatched []string
	for dev, want := range perDevice {
		got, ok := st.PerDevice[dev]
		switch {
		case !ok:
			mismatched = append(mismatched, dev)
			fmt.Fprintf(os.Stderr, "fleetsim: device %s: sent %d records, server has no trace of it\n", dev, want)
		case got.Records != want:
			mismatched = append(mismatched, dev)
			fmt.Fprintf(os.Stderr, "fleetsim: device %s: sent %d records, server accepted %d (delta %+d)\n",
				dev, want, got.Records, got.Records-want)
		}
	}
	sort.Strings(mismatched)
	if len(mismatched) > 0 {
		return fmt.Errorf("record cross-check failed for %d device(s): %v", len(mismatched), mismatched)
	}
	if dropped := sent - st.Records; dropped > 0 {
		return fmt.Errorf("dropped records: sent %d, server accepted %d (diff %d)", sent, st.Records, dropped)
	}
	if !chaosOn && (st.CRCErrors != 0 || st.DecodeErrors != 0 || st.FrameErrors != 0) {
		return fmt.Errorf("server rejected frames: %d crc, %d decode, %d frame errors",
			st.CRCErrors, st.DecodeErrors, st.FrameErrors)
	}

	// The scraped exposition must agree with the JSON stats document and
	// with what this side sent.
	m, err := scrapeMetrics(admin + "/metrics")
	if err != nil {
		return err
	}
	if got := int64(m["ingest_records_total"]); got != st.Records || got != sent {
		return fmt.Errorf("/metrics disagrees: ingest_records_total %d, /stats records %d, sent %d",
			got, st.Records, sent)
	}
	fmt.Printf("fleetsim: zero lost records (/metrics reconciled: %d records)\n", sent)
	return nil
}

// scrapeMetrics fetches and parses a Prometheus text exposition.
func scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return obs.ParseText(resp.Body)
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
