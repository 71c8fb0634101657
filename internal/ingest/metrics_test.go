package ingest

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"netenergy/internal/obs"
	"netenergy/internal/synthgen"
)

// scrapeMetrics fetches and parses the Prometheus exposition.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}
	m, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("parse exposition: %v", err)
	}
	return m
}

// TestMetricsEndpointReconciles streams a fleet concurrently, then checks the
// scraped Prometheus exposition against both the JSON /stats document and the
// ground truth of what was sent — the same totals through two independent
// render paths must agree exactly.
func TestMetricsEndpointReconciles(t *testing.T) {
	s := startServer(t, Config{AdminAddr: "127.0.0.1:0", Shards: 4, QueueDepth: 32, BatchSize: 16})
	base := fmt.Sprintf("http://%s", s.AdminAddr())

	fleet := synthgen.GenerateInMemory(synthgen.Small(6, 3))
	var want int64
	var wg sync.WaitGroup
	for _, dt := range fleet {
		want += int64(len(dt.Records))
		wg.Add(1)
		go func() {
			defer wg.Done()
			streamTrace(t, s.Addr().String(), dt)
		}()
	}
	// Scrape while the fleet streams: the exposition must stay well-formed
	// under concurrent observation (this is the -race half of the test).
	for i := 0; i < 5; i++ {
		scrapeMetrics(t, base)
	}
	wg.Wait()

	m := scrapeMetrics(t, base)
	st := s.Stats(false)
	if got := int64(m["ingest_records_total"]); got != want || got != st.Records {
		t.Errorf("records: exposition %d, stats %d, sent %d", got, st.Records, want)
	}
	if got := int64(m["ingest_conns_total"]); got != int64(len(fleet)) {
		t.Errorf("conns_total = %d, want %d", got, len(fleet))
	}
	if got := int64(m["ingest_devices"]); got != int64(len(fleet)) {
		t.Errorf("devices = %d, want %d", got, len(fleet))
	}
	if got := int64(m["ingest_bytes_total"]); got != st.Bytes {
		t.Errorf("bytes: exposition %d, stats %d", got, st.Bytes)
	}
	if m["ingest_uptime_seconds"] <= 0 {
		t.Error("uptime missing from exposition")
	}
	// Hot-path histograms must have fired.
	if got := m[`ingest_frame_decode_seconds_bucket{le="+Inf"}`]; int64(got) != st.Frames-int64(len(fleet)) {
		// Every frame except the FINs is decoded once.
		t.Errorf("frame decode count = %v, want %d", got, st.Frames-int64(len(fleet)))
	}
	if m[`ingest_apply_latency_seconds_bucket{le="+Inf"}`] <= 0 {
		t.Error("apply latency histogram never observed")
	}
	if sum := m["ingest_batch_records_sum"]; int64(sum) != want {
		t.Errorf("batch records sum = %v, want %d (every accepted record in one batch)", sum, want)
	}
	// Per-shard queue gauges exist for every shard.
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf(`ingest_shard_queue_depth{shard="%d"}`, i)
		if _, ok := m[key]; !ok {
			t.Errorf("missing %s", key)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestEventsEndpoint checks the /events JSON document: population, the
// ?level= filter, the ?n= trim, and rejection of a malformed n.
func TestEventsEndpoint(t *testing.T) {
	s := startServer(t, Config{AdminAddr: "127.0.0.1:0", Shards: 1})
	base := fmt.Sprintf("http://%s", s.AdminAddr())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	}()

	s.counters.events.Logf(obs.LevelInfo, "synthetic info")
	s.counters.events.Logf(obs.LevelWarn, "synthetic warn")
	s.counters.events.Logf(obs.LevelError, "synthetic error")

	var doc struct {
		Total  uint64      `json:"total"`
		Events []obs.Event `json:"events"`
	}
	if code := adminGet(t, base+"/events", &doc); code != http.StatusOK {
		t.Fatalf("GET /events: %d", code)
	}
	if doc.Total != 3 || len(doc.Events) != 3 {
		t.Fatalf("events doc = total %d, %d events; want 3/3", doc.Total, len(doc.Events))
	}
	if doc.Events[2].Msg != "synthetic error" || doc.Events[2].Level != obs.LevelError {
		t.Errorf("newest event = %+v", doc.Events[2])
	}

	doc.Events = nil
	if code := adminGet(t, base+"/events?level=warn&n=10", &doc); code != http.StatusOK {
		t.Fatalf("GET /events?level=warn: %d", code)
	}
	if len(doc.Events) != 2 {
		t.Errorf("warn+ events = %d, want 2", len(doc.Events))
	}
	for _, ev := range doc.Events {
		if ev.Level < obs.LevelWarn {
			t.Errorf("level filter leaked %+v", ev)
		}
	}

	doc.Events = nil
	if code := adminGet(t, base+"/events?n=1", &doc); code != http.StatusOK || len(doc.Events) != 1 {
		t.Errorf("GET /events?n=1: code %d, %d events", code, len(doc.Events))
	}
	if code := adminGet(t, base+"/events?n=bogus", nil); code != http.StatusBadRequest {
		t.Errorf("GET /events?n=bogus: %d, want 400", code)
	}

	// Level serializes as a string in the JSON document.
	raw, _ := json.Marshal(obs.Event{Level: obs.LevelWarn, Msg: "x"})
	if want := `"level":"warn"`; !jsonContains(string(raw), want) {
		t.Errorf("event JSON %s missing %s", raw, want)
	}
}

func jsonContains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestPprofGating: /debug/pprof/ must 404 by default and serve when enabled.
func TestPprofGating(t *testing.T) {
	off := startServer(t, Config{AdminAddr: "127.0.0.1:0", Shards: 1})
	if code := adminGet(t, fmt.Sprintf("http://%s/debug/pprof/", off.AdminAddr()), nil); code != http.StatusNotFound {
		t.Errorf("pprof without EnablePprof: %d, want 404", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	off.Shutdown(ctx) //nolint:errcheck

	on := startServer(t, Config{AdminAddr: "127.0.0.1:0", Shards: 1, EnablePprof: true})
	if code := adminGet(t, fmt.Sprintf("http://%s/debug/pprof/", on.AdminAddr()), nil); code != http.StatusOK {
		t.Errorf("pprof with EnablePprof: %d, want 200", code)
	}
	on.Shutdown(ctx) //nolint:errcheck
}
