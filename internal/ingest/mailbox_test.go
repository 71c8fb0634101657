package ingest

import (
	"context"
	"errors"
	"math"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"netenergy/internal/analysis"
	"netenergy/internal/ingest/checkpoint"
	"netenergy/internal/synthgen"
)

// TestIdleConnectionFlushesPartialBatch: records the server has read off an
// idle connection must reach the shard without waiting for the device to
// speak again — a handler that holds them for a fuller batch hides them
// from /headline, /stats and /query for up to ReadTimeout.
func TestIdleConnectionFlushesPartialBatch(t *testing.T) {
	s := startServer(t, Config{Shards: 1, BatchSize: 128})
	dt := synthgen.GenerateInMemory(synthgen.Small(1, 1))[0]
	c, err := Dial(s.Addr().String(), dt.Device, dt.Start, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.CloseAbort() //nolint:errcheck
	const sent = 10      // well short of BatchSize
	for i := 0; i < sent; i++ {
		if err := c.Send(&dt.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats(false).Records < sent && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.Stats(false).Records; got != sent {
		t.Fatalf("records visible with the connection idle = %d, want %d", got, sent)
	}
}

// hammerWhileStopping is the mailbox protocol under fire: every control-plane
// caller and a stream of fresh handshakes run flat out while the server is
// stopped by stop. Nothing may panic or send on a closed channel, every call
// must return — a result, the final result, or a refusal — and what the
// stopped server holds must be exactly what it acknowledged.
func hammerWhileStopping(t *testing.T, stop func(*Server)) *Server {
	t.Helper()
	donorDir := t.TempDir()
	donor := startServer(t, Config{Shards: 1, CheckpointDir: donorDir, CheckpointInterval: time.Hour})
	dts := synthgen.GenerateInMemory(synthgen.Small(4, 1))
	streamTrace(t, donor.Addr().String(), dts[0])
	if err := donor.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() // starts from the donor's state, on another shard count
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Save(latestCheckpoint(t, donorDir).Snap); err != nil {
		t.Fatal(err)
	}

	s := startServer(t, Config{
		Shards: 3, QueueDepth: 4, BatchSize: 8,
		CheckpointDir: dir, CheckpointInterval: time.Hour,
		SegmentDir: t.TempDir(),
	})
	want := analysis.NewStreamResult("fleet")
	var acked int64
	for i, dt := range dts {
		if i > 0 {
			streamTrace(t, s.Addr().String(), dt) // FIN acked: the server owns these
		}
		acc := analysis.NewStreamAccumulator(dt.Device, batchOpts())
		for j := range dt.Records {
			acc.Feed(&dt.Records[j])
		}
		want.Merge(acc.Finish())
		acked += int64(len(dt.Records))
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	hammer := func(call func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				call(i)
			}
		}()
	}
	hammer(func(int) { s.Snapshot() })
	hammer(func(int) { s.SyncSegments() })   //nolint:errcheck // must return, may refuse
	hammer(func(int) { s.SaveCheckpoint() }) //nolint:errcheck
	addr := s.Addr().String()
	hammer(func(i int) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return // listener closed
		}
		if c, err := NewClient(conn, "late-"+strconv.Itoa(i), 0, 0); err == nil {
			c.CloseAbort() //nolint:errcheck
		}
	})

	time.Sleep(20 * time.Millisecond)
	stop(s)
	time.Sleep(20 * time.Millisecond) // keep hammering the stopped server too
	cancel()
	returned := make(chan struct{})
	go func() { wg.Wait(); close(returned) }()
	select {
	case <-returned:
	case <-time.After(30 * time.Second):
		t.Fatal("a control-plane caller never returned")
	}

	if err := s.SaveCheckpoint(); err == nil {
		t.Error("SaveCheckpoint on a stopped server succeeded")
	}
	if got := s.Stats(false).Records; got != acked {
		t.Errorf("stopped server holds %d records, acknowledged %d", got, acked)
	}
	if got := s.Snapshot().Ledger.Total; math.Abs(got-want.Ledger.Total) > 1e-9*(1+want.Ledger.Total) {
		t.Errorf("stopped server holds %v J, acknowledged streams total %v J", got, want.Ledger.Total)
	}
	return s
}

func TestControlPlaneRacesShutdown(t *testing.T) {
	var final *analysis.StreamResult
	s := hammerWhileStopping(t, func(s *Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		var err error
		if final, err = s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	if final == nil {
		return
	}
	if got, want := s.Snapshot().Ledger.Total, final.Ledger.Total; got != want {
		t.Errorf("Snapshot after Shutdown = %v J, Shutdown returned %v J", got, want)
	}
	// The final checkpoint is the drained state, whatever saves raced it.
	// (Devices differ: the late handshakes registered names that never sent a
	// record, and a checkpoint has nothing to say about those.)
	b := startServer(t, Config{Shards: 2, CheckpointDir: s.cfg.CheckpointDir, CheckpointInterval: time.Hour})
	hb := b.Headline()
	hb.Devices = s.Headline().Devices
	sameHeadline(t, "restart from the final checkpoint", hb, s.Headline())
}

func TestControlPlaneRacesKill(t *testing.T) {
	hammerWhileStopping(t, (*Server).Kill)
}

// TestShutdownResumesAfterExpiredContext: a Shutdown that gives up when its
// context expires mid-drain must leave the drain resumable — the next call
// finishes it and returns the result, instead of "already in progress"
// forever.
func TestShutdownResumesAfterExpiredContext(t *testing.T) {
	s := startServer(t, Config{Shards: 2, CheckpointDir: t.TempDir(), CheckpointInterval: time.Hour})
	dt := synthgen.GenerateInMemory(synthgen.Small(1, 1))[0]
	streamTrace(t, s.Addr().String(), dt)

	// A shard busy past the deadline: the drain cannot finish.
	release := make(chan struct{})
	for _, sh := range s.shard {
		sh.post(func() { <-release })
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown against a busy shard: %v, want deadline exceeded", err)
	}
	close(release)

	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	final, err := s.Shutdown(ctx2)
	if err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	if got := s.Stats(false).Records; got != int64(len(dt.Records)) || final.Ledger.Total <= 0 {
		t.Fatalf("drained %d records / %v J, want %d records and energy", got, final.Ledger.Total, len(dt.Records))
	}
	b := startServer(t, Config{Shards: 1, CheckpointDir: s.cfg.CheckpointDir, CheckpointInterval: time.Hour})
	sameHeadline(t, "restart after the resumed drain", b.Headline(), s.Headline())
}
