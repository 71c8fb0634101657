package ingest

import (
	"context"
	"math"
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
				Addr:     a.Addr().String(),
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

// latestCheckpoint loads the newest generation in dir.
func latestCheckpoint(t *testing.T, dir string) *checkpoint.Loaded {
	t.Helper()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := store.LoadLatest(nil)
	if err != nil || ck == nil {
		t.Fatalf("no checkpoint in %s: %v", dir, err)
	}
	return ck
}
