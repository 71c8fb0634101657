package cluster

import (
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"netenergy/internal/ingest"
	"netenergy/internal/ingest/checkpoint"
	"netenergy/internal/synthgen"
)

// BenchmarkAggregateMerge measures one full aggregator cycle — pulling a
// binary snapshot from every live node over admin HTTP and merging them
// into the fleet headline — against three in-process nodes that have each
// ingested a third of a synthetic fleet. The reported aggregate_merge_ms
// is the end-to-end cycle latency bench.sh records in BENCH_*.json and
// gates on: it bounds how stale the fleet headline can be at a given pull
// interval, so a merge that quietly goes quadratic in devices fails the
// trajectory check instead of silently stretching the staleness window.
func BenchmarkAggregateMerge(b *testing.B) {
	const n = 3
	var srvs [n]*ingest.Server
	members := make([]Member, n)
	for i := 0; i < n; i++ {
		srvs[i] = startIngest(b, ingest.Config{
			NodeID: nodeID(i), Shards: 2, QueueDepth: 64, BatchSize: 32,
		})
		defer srvs[i].Kill()
		members[i] = Member{ID: nodeID(i), Stream: srvs[i].Addr().String(), Admin: srvs[i].AdminAddr().String()}
	}

	dts := synthgen.GenerateInMemory(synthgen.Small(12, 2))
	var sent int64
	for i, dt := range dts {
		sent += int64(len(dt.Records))
		streamAll(b, srvs[i%n].Addr().String(), dt)
	}

	// The prober is never started: all members stay presumed alive, so
	// every iteration pulls from all three nodes and nothing re-probes
	// mid-measurement.
	p := NewProber(ProberConfig{Members: members, Interval: time.Hour})
	agg := NewAggregator(AggregatorConfig{Prober: p, Timeout: 10 * time.Second})

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := agg.PullOnce()
		if h.Records != sent {
			b.Fatalf("merge lost records: %d, want %d", h.Records, sent)
		}
	}
	b.StopTimer()
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "aggregate_merge_ms")
}

// BenchmarkShipCheckpointRetry measures one dead-member checkpoint handoff
// through a flaky survivor admin plane: a front end 503s every other
// transfer POST, so every iteration pays exactly one retry (plus its
// backoff) before the survivor adopts. The reported handoff_retry_total is
// retries per shipped handoff — bench.sh records it in BENCH_*.json so the
// retry loop's existence (and its per-attempt cost) stays visible.
func BenchmarkShipCheckpointRetry(b *testing.B) {
	survivor := startIngest(b, ingest.Config{
		NodeID: "s1", Shards: 2, QueueDepth: 64, BatchSize: 32,
	})
	defer survivor.Kill()

	// Build a realistic checkpoint: a node ingests one device, persists,
	// and dies; its latest generation is what every iteration ships.
	dir := b.TempDir()
	dead := startIngest(b, ingest.Config{
		NodeID: "d1", Shards: 2, QueueDepth: 64, BatchSize: 32,
		CheckpointDir: dir, CheckpointInterval: time.Hour,
	})
	dt := synthgen.GenerateDevice(synthgen.Small(1, 2), 0)
	streamAll(b, dead.Addr().String(), dt)
	if err := dead.SaveCheckpoint(); err != nil {
		b.Fatal(err)
	}
	dead.Kill()
	st, err := checkpoint.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	ck, err := st.LoadLatest(nil)
	if err != nil || ck == nil {
		b.Fatalf("no checkpoint to ship: %v", err)
	}
	file := ck.File

	var calls atomic.Int64
	proxy := httputil.NewSingleHostReverseProxy(&url.URL{
		Scheme: "http", Host: survivor.AdminAddr().String(),
	})
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%2 == 1 {
			http.Error(w, "transient", http.StatusServiceUnavailable)
			return
		}
		proxy.ServeHTTP(w, r)
	}))
	defer front.Close()
	members := []Member{{ID: "s1", Stream: survivor.Addr().String(), Admin: front.Listener.Addr().String()}}

	var retries int64
	policy := ShipPolicy{
		Attempts:  3,
		Backoff:   ingest.Backoff{Base: 100 * time.Microsecond, Max: 100 * time.Microsecond},
		OnAttempt: func(string, int, error) { retries++ },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ShipCheckpointRetry(nil, file, members, policy); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(retries)/float64(b.N), "handoff_retry_total")
}
