package ingest

import (
	"bufio"
	"context"
	"errors"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netenergy/internal/analysis"
	"netenergy/internal/energy"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

// TestCrashRecovery is the tentpole integration test: a fleet streams
// through resumable sessions while the server checkpoints aggressively;
// mid-stream the server is killed (no drain, no finalize — the fail-stop
// model) and a NEW server with a DIFFERENT shard count recovers from the
// checkpoint directory on a different port. Sessions reconnect, resume and
// finish, and the recovered final headline must match the batch pipeline
// over the same dataset — crash, recovery and retransmission must be
// invisible in the result.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := synthgen.Small(4, 2)
	dts := synthgen.GenerateInMemory(cfg)
	var sent int64
	for _, dt := range dts {
		sent += int64(len(dt.Records))
	}

	mk := func(shards int) *Server {
		return startServer(t, Config{
			Shards: shards, QueueDepth: 16, BatchSize: 16,
			CheckpointDir: dir, CheckpointInterval: 25 * time.Millisecond,
		})
	}
	a := mk(2)
	var addr atomic.Value
	addr.Store(a.Addr().String())

	var wg sync.WaitGroup
	stats := make([]SessionStats, len(dts))
	errs := make([]error, len(dts))
	for i, dt := range dts {
		wg.Add(1)
		go func(i int, dt *trace.DeviceTrace) {
			defer wg.Done()
			stats[i], errs[i] = StreamTrace(SessionConfig{
				AddrFunc: func() string { return addr.Load().(string) },
				Device:   dt.Device,
				Start:    dt.Start,
				Deadline: 2 * time.Minute,
				Backoff:  Backoff{Base: 5 * time.Millisecond, Max: 80 * time.Millisecond},
				Pace: func(j int) time.Duration {
					if j%8 == 0 {
						return 400 * time.Microsecond
					}
					return 0
				},
			}, dt.Records)
		}(i, dt)
	}

	// Let the fleet get roughly a third of the way in, with at least one
	// checkpoint on disk, then pull the plug.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := a.Stats(false)
		if st.Records >= sent/3 && st.Checkpoint != nil && st.Checkpoint.Generation >= 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	a.Kill()

	b := mk(3) // different shard count: restore must re-place devices
	addr.Store(b.Addr().String())
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %s: %v", dts[i].Device, err)
		}
	}
	var conns, resumed int
	for _, st := range stats {
		conns += st.Conns
		resumed += st.Resumed
	}
	if resumed == 0 || conns <= len(dts) {
		t.Errorf("no session resumed (conns=%d, resumed=%d) — crash landed too early/late", conns, resumed)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := b.Shutdown(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Every record accounted for exactly once, per device and in total.
	if got := b.counters.records.Load(); got != sent {
		t.Fatalf("records accepted = %d, sent = %d", got, sent)
	}
	for _, dt := range dts {
		if got := b.DeviceRecords(dt.Device); got != int64(len(dt.Records)) {
			t.Errorf("device %s: accepted %d, sent %d", dt.Device, got, len(dt.Records))
		}
	}

	// Batch reference over the identical dataset.
	devs, err := analysis.LoadAll(dts, energy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := analysis.ComputeHeadline(devs)
	if d := math.Abs(final.Ledger.Total - want.TotalEnergyJ); d > 1e-6*(1+want.TotalEnergyJ) {
		t.Errorf("total energy: recovered %v vs batch %v", final.Ledger.Total, want.TotalEnergyJ)
	}
	if d := math.Abs(final.Ledger.BackgroundFraction() - want.BackgroundFraction); d > 0.01*want.BackgroundFraction {
		t.Errorf("background fraction: recovered %v vs batch %v", final.Ledger.BackgroundFraction(), want.BackgroundFraction)
	}
	if d := math.Abs(final.FirstMinuteFraction(0.8) - want.FirstMinute.Fraction); d > 1e-9 {
		t.Errorf("first minute: recovered %v vs batch %v", final.FirstMinuteFraction(0.8), want.FirstMinute.Fraction)
	}
}

// TestResumeAfterDisconnect: a client that drops mid-stream without FIN
// must be able to reconnect, learn the server's accepted count, and finish
// the stream with nothing lost and nothing double-counted.
func TestResumeAfterDisconnect(t *testing.T) {
	s := startServer(t, Config{Shards: 1, QueueDepth: 8, BatchSize: 4})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	}()
	dt := synthgen.GenerateInMemory(synthgen.Small(1, 1))[0]
	n := len(dt.Records)
	cut := n / 2

	c, err := Dial(s.Addr().String(), dt.Device, dt.Start, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if c.ResumeSeq != 0 {
		t.Fatalf("fresh stream resume seq = %d", c.ResumeSeq)
	}
	for i := 0; i < cut; i++ {
		if err := c.Send(&dt.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.CloseAbort() //nolint:errcheck

	// Wait for the handler to flush its partial batch into the shard.
	deadline := time.Now().Add(5 * time.Second)
	for s.DeviceRecords(dt.Device) < int64(cut) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := s.DeviceRecords(dt.Device); got != int64(cut) {
		t.Fatalf("accepted before resume = %d, want %d", got, cut)
	}

	// Reconnect claiming LESS progress than the server has (hint 0): the
	// server's ack must override and point at the real resume point.
	c2, err := Dial(s.Addr().String(), dt.Device, dt.Start, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if c2.ResumeSeq != int64(cut) {
		t.Fatalf("resume seq = %d, want %d", c2.ResumeSeq, cut)
	}
	for i := cut; i < n; i++ {
		if err := c2.Send(&dt.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.DeviceRecords(dt.Device); got != int64(n) {
		t.Fatalf("accepted after resume = %d, want %d", got, n)
	}
	if got := s.counters.resumes.Load(); got != 1 {
		t.Errorf("resumes = %d, want 1", got)
	}

	// The finalized stream must equal a continuous clean run.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := s.Shutdown(ctx)
	if err != nil {
		t.Fatal(err)
	}
	acc := analysis.NewStreamAccumulator(dt.Device, batchOpts())
	for i := range dt.Records {
		acc.Feed(&dt.Records[i])
	}
	want := acc.Finish()
	if d := math.Abs(final.Ledger.Total - want.Ledger.Total); d > 1e-9*(1+want.Ledger.Total) {
		t.Errorf("resumed total %v, continuous %v", final.Ledger.Total, want.Ledger.Total)
	}
}

// TestSessionSurvivesServerRestart drives the full client-side loop
// (StreamTrace) across a graceful-kill/restart with no checkpointing at
// all: everything retransmits from seq 0 and the dedup layer must make
// that harmless — the degenerate recovery path.
func TestSessionSurvivesServerRestart(t *testing.T) {
	a := startServer(t, Config{Shards: 1, QueueDepth: 8, BatchSize: 8})
	var addr atomic.Value
	addr.Store(a.Addr().String())
	dt := synthgen.GenerateInMemory(synthgen.Small(1, 1))[0]

	done := make(chan struct{})
	var st SessionStats
	var serr error
	go func() {
		defer close(done)
		st, serr = StreamTrace(SessionConfig{
			AddrFunc: func() string { return addr.Load().(string) },
			Device:   dt.Device,
			Start:    dt.Start,
			Deadline: time.Minute,
			Backoff:  Backoff{Base: 2 * time.Millisecond, Max: 40 * time.Millisecond},
			Pace: func(i int) time.Duration {
				return 200 * time.Microsecond
			},
		}, dt.Records)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for a.counters.records.Load() < int64(len(dt.Records))/4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	a.Kill() // no checkpoint dir: all server state is lost

	b := startServer(t, Config{Shards: 1, QueueDepth: 8, BatchSize: 8})
	addr.Store(b.Addr().String())
	<-done
	if serr != nil {
		t.Fatal(serr)
	}
	if st.Conns < 2 {
		t.Errorf("session used %d conns, want >= 2", st.Conns)
	}
	if got := b.DeviceRecords(dt.Device); got != int64(len(dt.Records)) {
		t.Fatalf("server B accepted %d, want %d", got, len(dt.Records))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := b.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRateLimitSheds: with a per-device admission budget, the second
// immediate connection must be refused with an explicit throttle ack and a
// usable retry-after, and honouring it must succeed.
func TestRateLimitSheds(t *testing.T) {
	s := startServer(t, Config{Shards: 1, RateLimit: 5, RateBurst: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	}()

	c, err := Dial(s.Addr().String(), "dev-r", 0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.CloseAbort() //nolint:errcheck

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewClient(conn, "dev-r", 0, 0)
	var thr *ErrThrottled
	if !errors.As(err, &thr) {
		t.Fatalf("second conn: want ErrThrottled, got %v", err)
	}
	if thr.RetryAfter <= 0 || thr.RetryAfter > time.Second {
		t.Fatalf("retry-after = %v", thr.RetryAfter)
	}
	if got := s.counters.throttled.Load(); got != 1 {
		t.Fatalf("throttled counter = %d", got)
	}
	// Another device is not affected by dev-r's bucket.
	if c2, err := Dial(s.Addr().String(), "dev-other", 0, 5*time.Second); err != nil {
		t.Fatalf("other device throttled: %v", err)
	} else {
		c2.CloseAbort() //nolint:errcheck
	}
	// Honouring the retry-after gets dev-r admitted.
	time.Sleep(thr.RetryAfter)
	conn2, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c3, err := NewClient(conn2, "dev-r", 0, 0)
	if err != nil {
		t.Fatalf("post-retry conn: %v", err)
	}
	c3.CloseAbort() //nolint:errcheck
}

// TestDedupNonCompliantClient replays an already-accepted frame on the same
// connection: the server must decode it (the timestamp chain must stay
// intact), drop it, and count it — never feed it twice.
func TestDedupNonCompliantClient(t *testing.T) {
	s := startServer(t, Config{Shards: 1, QueueDepth: 8, BatchSize: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	}()

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeHello(conn, "dev-d", 0, 0); err != nil {
		t.Fatal(err)
	}
	enc := trace.NewRecordEncoder(0)
	recs := sampleRecords()
	var frames [][]byte
	for i := range recs {
		body, err := enc.Encode(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, batchFrame(int64(i), body))
	}
	// 0, 1, 2, replay of 1, 3, FIN.
	for _, f := range [][]byte{frames[0], frames[1], frames[2], frames[1], frames[3]} {
		if _, err := conn.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(appendFrame(nil, int64(len(recs)), []byte{finByte})); err != nil {
		t.Fatal(err)
	}

	// Drain the two acks (hello, FIN); FIN ack arrival means processing done.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	br := bufio.NewReader(conn)
	if seq, err := readAck(br); err != nil || seq != 0 {
		t.Fatalf("hello ack: %d %v", seq, err)
	}
	if seq, err := readAck(br); err != nil || seq != int64(len(recs)) {
		t.Fatalf("fin ack: %d %v", seq, err)
	}

	if got := s.counters.records.Load(); got != int64(len(recs)) {
		t.Fatalf("records = %d, want %d (duplicate was fed)", got, len(recs))
	}
	if got := s.counters.duplicates.Load(); got != 1 {
		t.Fatalf("duplicates = %d, want 1", got)
	}
}

// TestStartRefusesAllDamaged: a checkpoint directory in which every
// generation is damaged is not a fresh directory. Start fails naming a
// damaged file instead of coming up empty beside the wreckage — the next
// commit would have pruned it — and leaves every file as it found it, so
// the operator can move the directory aside or repair it.
func TestStartRefusesAllDamaged(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 2, CheckpointDir: dir, CheckpointInterval: time.Hour}
	dt := synthgen.GenerateInMemory(synthgen.Small(1, 1))[0]
	// Two runs, two bases: the first commit after a restart is never an
	// append to the log it found.
	for run := 0; run < 2; run++ {
		s := startServer(t, cfg)
		if run == 0 {
			streamTrace(t, s.Addr().String(), dt)
		}
		if err := s.SaveCheckpoint(); err != nil {
			t.Fatal(err)
		}
		s.Kill()
	}
	bases, err := filepath.Glob(filepath.Join(dir, "ck-*.ck"))
	if err != nil || len(bases) != 2 {
		t.Fatalf("bases on disk: %v (%v), want 2", bases, err)
	}
	for _, p := range bases {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0xff
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	readDir := func() map[string]string {
		files := map[string]string{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(b)
		}
		return files
	}
	before := readDir()

	cfg.Addr = "127.0.0.1:0"
	s := NewServer(cfg)
	err = s.Start()
	if err == nil {
		s.Kill()
		t.Fatal("Start came up empty beside damaged generations")
	}
	for _, p := range bases {
		if !strings.Contains(err.Error(), p) {
			t.Errorf("Start error does not name %s: %v", p, err)
		}
	}
	if after := readDir(); !reflect.DeepEqual(before, after) {
		t.Errorf("refused Start changed the directory: %d files before, %d after", len(before), len(after))
	}
}
