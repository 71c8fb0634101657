package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"netenergy/internal/analysis"
	"netenergy/internal/energy"
	"netenergy/internal/ingest/checkpoint"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

// TestDurableFINKillAfterAck closes the FIN-ack durability window: with
// -durable-fin, a FIN acknowledgement means the session's finalized result
// is on disk, so a server killed the instant after the last ack (no drain,
// no timer checkpoint — the interval is an hour) must recover every record
// and every joule from the checkpoint directory alone — whether the commits
// behind the acks were the process's first base and what followed it, or, on
// a node that had checkpointed before, delta frames and nothing else.
func TestDurableFINKillAfterAck(t *testing.T) {
	t.Run("first commit is the base", func(t *testing.T) { durableFINKillAfterAck(t, false) })
	t.Run("acks backed by delta frames only", func(t *testing.T) { durableFINKillAfterAck(t, true) })
}

func durableFINKillAfterAck(t *testing.T, deltaOnly bool) {
	dir := t.TempDir()
	mk := func() *Server {
		return startServer(t, Config{
			Shards: 2, QueueDepth: 16, BatchSize: 8,
			CheckpointDir: dir, CheckpointInterval: time.Hour,
			DurableFIN: true,
		})
	}
	a := mk()
	if deltaOnly {
		// An empty base first: every FIN below is backed by a frame alone.
		if err := a.SaveCheckpoint(); err != nil {
			t.Fatal(err)
		}
	}
	dts := synthgen.GenerateInMemory(synthgen.Small(3, 1))
	var sent int64
	var wg sync.WaitGroup
	errs := make([]error, len(dts))
	for i, dt := range dts {
		sent += int64(len(dt.Records))
		wg.Add(1)
		go func(i int, dt *trace.DeviceTrace) {
			defer wg.Done()
			_, errs[i] = StreamTrace(SessionConfig{
				Nodes:    []string{a.Addr().String()},
				Device:   dt.Device,
				Start:    dt.Start,
				Deadline: time.Minute,
				Backoff:  Backoff{Base: 2 * time.Millisecond, Max: 40 * time.Millisecond},
			}, dt.Records)
		}(i, dt)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %s: %v", dts[i].Device, err)
		}
	}
	if got := a.counters.finDurable.Load(); got != int64(len(dts)) {
		t.Fatalf("durable FIN acks = %d, want %d", got, len(dts))
	}
	a.Kill() // fail-stop immediately after the last FIN ack
	if deltaOnly {
		b, err := os.ReadFile(filepath.Join(dir, "ck-00000001.ck"))
		if err != nil {
			t.Fatal(err)
		}
		if base, err := checkpoint.DecodeFile(b); err != nil || len(base.Devices)+len(base.Ledger) != 0 || newestLogBytes(t, dir) == 0 {
			t.Fatalf("the base holds %+v (%v) and its log %d bytes; want every FIN in the log", base, err, newestLogBytes(t, dir))
		}
	}

	b := mk()
	if got := b.counters.records.Load(); got != sent {
		t.Fatalf("recovered records = %d, sent = %d (FIN ack was not durable)", got, sent)
	}
	for _, dt := range dts {
		if got := b.DeviceRecords(dt.Device); got != int64(len(dt.Records)) {
			t.Errorf("device %s: recovered %d records, want %d", dt.Device, got, len(dt.Records))
		}
	}
	devs, err := analysis.LoadAll(dts, energy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := analysis.ComputeHeadline(devs)
	h := b.Headline()
	if d := math.Abs(h.TotalEnergyJ - want.TotalEnergyJ); d > 1e-9*(1+want.TotalEnergyJ) {
		t.Errorf("recovered energy %v, batch %v", h.TotalEnergyJ, want.TotalEnergyJ)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := b.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRejoinAutoFence closes the rejoin window: a node that crashed, had
// its checkpoint handed off to survivors (recorded by the tombstone), and
// then comes back on the same directory must NOT re-serve the shipped
// state — it archives the directory behind the tombstone and starts clean,
// with no operator wipe. A tombstone older than the newest local
// generation must not destroy the unshipped newer state.
func TestRejoinAutoFence(t *testing.T) {
	dir := t.TempDir()
	mkcfg := Config{Shards: 1, QueueDepth: 8, BatchSize: 4, CheckpointDir: dir, CheckpointInterval: time.Hour}
	a := startServer(t, mkcfg)
	dt := synthgen.GenerateInMemory(synthgen.Small(1, 1))[0]
	streamTrace(t, a.Addr().String(), dt)
	if err := a.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	inc := a.Incarnation()
	a.Kill()

	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	gen := store.Generation()
	if gen == 0 {
		t.Fatal("no checkpoint generation on disk")
	}

	// The aggregator handed generation `gen` off to survivors and left the
	// tombstone behind.
	if err := checkpoint.WriteTombstone(dir, checkpoint.Tombstone{
		Node: "n1", Incarnation: inc, Generation: gen, UnixNano: 1,
	}); err != nil {
		t.Fatal(err)
	}

	b := startServer(t, mkcfg)
	if got := b.counters.records.Load(); got != 0 {
		t.Fatalf("rejoined node restored %d shipped records, want clean start", got)
	}
	if got := b.counters.fenceArchives.Load(); got != 1 {
		t.Errorf("fence archives = %d, want 1", got)
	}
	shipped, err := filepath.Glob(filepath.Join(dir, "shipped-*"))
	if err != nil || len(shipped) != 1 {
		t.Fatalf("shipped archive dirs = %v (err %v), want exactly one", shipped, err)
	}
	if tomb, err := checkpoint.LoadTombstone(dir); err != nil || tomb != nil {
		t.Fatalf("tombstone still live in dir after archive: %v %v", tomb, err)
	}
	// The clean node serves the device from scratch and checkpoints into
	// generations strictly newer than the archived ones.
	streamTrace(t, b.Addr().String(), dt)
	if err := b.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	st2, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if g2 := st2.Generation(); g2 <= gen {
		t.Errorf("post-archive generation %d not beyond shipped %d", g2, gen)
	}
	b.Kill()

	// Stale tombstone: newer unshipped generations exist; they must survive.
	if err := checkpoint.WriteTombstone(dir, checkpoint.Tombstone{
		Node: "n1", Incarnation: inc, Generation: gen, UnixNano: 2,
	}); err != nil {
		t.Fatal(err)
	}
	c := startServer(t, mkcfg)
	defer c.Kill()
	if got := c.counters.records.Load(); got != int64(len(dt.Records)) {
		t.Fatalf("stale tombstone destroyed unshipped state: %d records, want %d", got, len(dt.Records))
	}
	if tomb, err := checkpoint.LoadTombstone(dir); err != nil || tomb != nil {
		t.Fatalf("stale tombstone not cleared: %v %v", tomb, err)
	}
}

// TestFenceEndpoint drives the runtime fence: POST /fence with a matching
// incarnation must stop stream service, archive the checkpoint directory
// behind a tombstone, and fire OnFenced; a mismatched incarnation (some
// other process's ghost) must be a no-op.
func TestFenceEndpoint(t *testing.T) {
	dir := t.TempDir()
	fenced := make(chan string, 1)
	s := startServer(t, Config{
		Shards: 1, AdminAddr: "127.0.0.1:0", NodeID: "n1",
		QueueDepth: 8, BatchSize: 4,
		CheckpointDir: dir, CheckpointInterval: time.Hour,
		OnFenced: func(reason string) { fenced <- reason },
	})
	defer s.Kill()
	dt := synthgen.GenerateInMemory(synthgen.Small(1, 1))[0]
	streamTrace(t, s.Addr().String(), dt)
	if err := s.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.AdminAddr().String()

	postFence := func(inc string) FenceResponse {
		t.Helper()
		body, _ := json.Marshal(FenceRequest{Incarnation: inc}) //nolint:errcheck
		resp, err := http.Post(base+"/fence", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var fr FenceResponse
		if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
			t.Fatal(err)
		}
		return fr
	}

	// Wrong incarnation: refused, still serving.
	if fr := postFence("ghost.1.1"); fr.Fenced {
		t.Fatalf("mismatched incarnation fenced the node: %+v", fr)
	}
	if s.Fenced() {
		t.Fatal("server fenced by a mismatched incarnation")
	}

	if fr := postFence(s.Incarnation()); !fr.Fenced || fr.NodeID != "n1" {
		t.Fatalf("matching fence response %+v", fr)
	}
	select {
	case <-fenced:
	case <-time.After(5 * time.Second):
		t.Fatal("OnFenced never fired")
	}
	if !s.Fenced() || !s.Stats(false).Fenced {
		t.Fatal("server not marked fenced")
	}
	// Stream plane refuses new sessions (the client walks to another node).
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(conn, "dev-x", 0, 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-fence handshake error = %v, want ErrDraining", err)
	}
	// The snapshot surface advertises the fence to the aggregator.
	resp, err := http.Get(base + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Fenced") != "1" {
		t.Error("fenced /snapshot missing X-Fenced header")
	}
	// Durable state is archived behind the tombstone; no fresh generations.
	shipped, err := filepath.Glob(filepath.Join(dir, "shipped-*"))
	if err != nil || len(shipped) != 1 {
		t.Fatalf("shipped archive dirs = %v (err %v), want exactly one", shipped, err)
	}
	if err := s.SaveCheckpoint(); err == nil {
		t.Fatal("SaveCheckpoint succeeded on a fenced node")
	}
	// Fencing is idempotent.
	if fr := postFence(s.Incarnation()); !fr.Fenced {
		t.Fatalf("repeat fence response %+v", fr)
	}
}
