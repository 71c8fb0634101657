package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"netenergy/internal/analysis"
	"netenergy/internal/energy"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s := NewServer(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill is idempotent and a no-op after Shutdown: a test that forgets (or
	// fails before) its own stop must not leave a checkpoint loop writing
	// into a t.TempDir that is being removed.
	t.Cleanup(s.Kill)
	return s
}

func streamTrace(t *testing.T, addr string, dt *trace.DeviceTrace) {
	t.Helper()
	c, err := Dial(addr, dt.Device, dt.Start, 5*time.Second)
	if err != nil {
		t.Errorf("dial %s: %v", dt.Device, err)
		return
	}
	for i := range dt.Records {
		if err := c.Send(&dt.Records[i]); err != nil {
			t.Errorf("send %s: %v", dt.Device, err)
			break
		}
	}
	if err := c.Close(); err != nil {
		t.Errorf("close %s: %v", dt.Device, err)
	}
}

func batchOpts() energy.Options {
	opts := energy.DefaultOptions()
	opts.KeepPackets = false
	return opts
}

// TestServeFleetMatchesBatch is the acceptance check: a fleet streamed
// concurrently over TCP must yield the same headline as the batch pipeline
// over the same generated dataset, at every shard count.
func TestServeFleetMatchesBatch(t *testing.T) {
	cfg := synthgen.Small(4, 3)
	dts := synthgen.GenerateInMemory(cfg)

	// Batch reference over the identical dataset (KeepPackets on: the
	// first-minute figure walks the per-packet slice in batch mode).
	devs, err := analysis.LoadAll(dts, energy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := analysis.ComputeHeadline(devs)

	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprint("shards=", shards), func(t *testing.T) {
			s := startServer(t, Config{AdminAddr: "127.0.0.1:0", Shards: shards, QueueDepth: 16, BatchSize: 32})
			addr := s.Addr().String()

			var wg sync.WaitGroup
			var sent int64
			var mu sync.Mutex
			for _, dt := range dts {
				wg.Add(1)
				go func(dt *trace.DeviceTrace) {
					defer wg.Done()
					streamTrace(t, addr, dt)
					mu.Lock()
					sent += int64(len(dt.Records))
					mu.Unlock()
				}(dt)
			}
			wg.Wait()

			// Wait for the shards to drain what the handlers enqueued.
			deadline := time.Now().Add(10 * time.Second)
			for s.counters.records.Load() < sent && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			// Query the live headline over HTTP before shutdown.
			var live LiveHeadline
			resp, err := http.Get(fmt.Sprintf("http://%s/headline", s.AdminAddr()))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.NewDecoder(resp.Body).Decode(&live); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			final, err := s.Shutdown(ctx)
			if err != nil {
				t.Fatal(err)
			}

			// No drops: every record sent was accepted.
			if got := s.counters.records.Load(); got != sent {
				t.Fatalf("records accepted = %d, sent = %d", got, sent)
			}
			if s.counters.crcErrors.Load() != 0 || s.counters.decodeErrors.Load() != 0 {
				t.Fatalf("unexpected errors: %+v", s.Stats(false))
			}

			if d := math.Abs(final.Ledger.BackgroundFraction() - want.BackgroundFraction); d > 0.01*want.BackgroundFraction {
				t.Errorf("background fraction: ingest %v vs batch %v", final.Ledger.BackgroundFraction(), want.BackgroundFraction)
			}
			if d := math.Abs(final.Ledger.Total - want.TotalEnergyJ); d > 1e-6*(1+want.TotalEnergyJ) {
				t.Errorf("total energy: ingest %v vs batch %v", final.Ledger.Total, want.TotalEnergyJ)
			}
			if d := math.Abs(final.FirstMinuteFraction(0.8) - want.FirstMinute.Fraction); d > 1e-9 {
				t.Errorf("first minute: ingest %v vs batch %v", final.FirstMinuteFraction(0.8), want.FirstMinute.Fraction)
			}
			// The mid-stream HTTP headline was taken after all conns closed, so it
			// must already match (every stream finalised by then).
			if d := math.Abs(live.BackgroundFraction - want.BackgroundFraction); d > 0.01*want.BackgroundFraction {
				t.Errorf("live headline background fraction: %v vs batch %v", live.BackgroundFraction, want.BackgroundFraction)
			}
			if live.Records != sent {
				t.Errorf("live headline records = %d, sent %d", live.Records, sent)
			}
		})
	}
}

// TestGracefulDrain severs connections mid-stream via Shutdown and checks
// the drained headline equals a clean run over exactly the records the
// server accepted per device.
func TestGracefulDrain(t *testing.T) {
	cfg := synthgen.Small(3, 2)
	dts := synthgen.GenerateInMemory(cfg)

	s := startServer(t, Config{Shards: 2, QueueDepth: 8, BatchSize: 16})
	addr := s.Addr().String()

	// Stream slowly from each device and never close: the shutdown arrives
	// mid-stream.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, dt := range dts {
		wg.Add(1)
		go func(dt *trace.DeviceTrace) {
			defer wg.Done()
			c, err := Dial(addr, dt.Device, dt.Start, 5*time.Second)
			if err != nil {
				// The shutdown below can land before this device finishes
				// its handshake; an admission refusal is then expected, and
				// the cross-check still holds (0 records accepted).
				t.Logf("dial: %v", err)
				return
			}
			defer c.Close()
			for i := range dt.Records {
				select {
				case <-stop:
					return
				default:
				}
				if err := c.Send(&dt.Records[i]); err != nil {
					return // connection severed by shutdown
				}
				if i%64 == 0 {
					if err := c.Flush(); err != nil {
						return
					}
				}
			}
		}(dt)
	}

	// Let some traffic land, then pull the plug.
	deadline := time.Now().Add(5 * time.Second)
	for s.counters.records.Load() < 500 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := s.Shutdown(ctx)
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if s.counters.records.Load() == 0 {
		t.Fatal("no records accepted before shutdown")
	}

	// Clean-run reference: feed exactly the accepted per-device prefixes.
	want := analysis.NewStreamResult("fleet")
	for _, dt := range dts {
		n := s.DeviceRecords(dt.Device)
		acc := analysis.NewStreamAccumulator(dt.Device, batchOpts())
		for i := int64(0); i < n; i++ {
			acc.Feed(&dt.Records[i])
		}
		want.Merge(acc.Finish())
	}

	if d := math.Abs(final.Ledger.Total - want.Ledger.Total); d > 1e-6*(1+want.Ledger.Total) {
		t.Errorf("drained total energy %v, clean run %v", final.Ledger.Total, want.Ledger.Total)
	}
	if final.Ledger.BackgroundFraction() != 0 || want.Ledger.BackgroundFraction() != 0 {
		df := math.Abs(final.Ledger.BackgroundFraction() - want.Ledger.BackgroundFraction())
		if df > 1e-9 {
			t.Errorf("drained bg fraction %v, clean run %v",
				final.Ledger.BackgroundFraction(), want.Ledger.BackgroundFraction())
		}
	}
	if final.OffBytes != want.OffBytes || final.OnBytes != want.OnBytes {
		t.Errorf("drained screen split %d/%d, clean run %d/%d",
			final.OffBytes, final.OnBytes, want.OffBytes, want.OnBytes)
	}
	// Snapshot after shutdown serves the drained final.
	if snap := s.Snapshot(); math.Abs(snap.Ledger.Total-final.Ledger.Total) > 1e-9 {
		t.Errorf("post-shutdown snapshot total %v != final %v", snap.Ledger.Total, final.Ledger.Total)
	}
}

// TestMalformedBodySevers sends, each on its own connection, the frame
// bodies that break the `FIN | batch` grammar. Every one is a framing error:
// counted once in ingest_frame_errors_total, the connection severed, the
// records that parsed before the fault kept (the resume point says so) and
// nothing counted as a decode error. All but the last two did exactly this
// before the single-record frame was removed; a bare record used to be
// accepted, and an empty body used to be a decode error.
func TestMalformedBodySevers(t *testing.T) {
	rec := sampleRecords()[0]
	record, err := trace.NewRecordEncoder(0).Encode(&rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range malformedBodies(bytes.Clone(record)) {
		t.Run(tc.name, func(t *testing.T) {
			s := startServer(t, Config{Shards: 1, QueueDepth: 4, BatchSize: 4})
			conn, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := writeHello(conn, "dev-m", 0, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(appendFrame(nil, 0, tc.body)); err != nil {
				t.Fatal(err)
			}
			// The server says nothing after the hello ack and severs: EOF.
			conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
			if _, err := io.Copy(io.Discard, conn); err != nil {
				t.Fatalf("connection not severed: %v", err)
			}
			c := s.counters
			if fe, sv, de := c.frameErrors.Load(), c.severs.Load(), c.decodeErrors.Load(); fe != 1 || sv != 1 || de != 0 {
				t.Errorf("frame errors %d, severs %d, decode errors %d; want 1, 1, 0", fe, sv, de)
			}
			cl, err := Dial(s.Addr().String(), "dev-m", 0, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.CloseAbort() //nolint:errcheck
			if cl.ResumeSeq != tc.accepted {
				t.Errorf("resume seq %d, want %d", cl.ResumeSeq, tc.accepted)
			}
		})
	}
}

// TestCRCSeversAndResumes sends a corrupted frame between good ones: the
// server must count it, sever the connection (the timestamp chain past the
// bad frame cannot be trusted), and hand the accepted prefix back as the
// resume point, so a reconnecting client retransmits the damaged record and
// nothing is lost. The corrupt frame is followed at once by its intact
// retransmission, which a server that skipped the bad frame instead of
// severing would accept, and the frames after it.
func TestCRCSeversAndResumes(t *testing.T) {
	s := startServer(t, Config{Shards: 1, QueueDepth: 4, BatchSize: 4})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	}()

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := writeHello(conn, "dev-x", 0, 0); err != nil {
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
	bad := bytes.Clone(frames[1])
	bad[len(bad)-1] ^= 0xff // corrupt the CRC
	for i, frame := range append([][]byte{frames[0], bad}, frames[1:]...) {
		if _, err := conn.Write(frame); err != nil {
			if i > 1 {
				break // the sever below can beat the remaining writes
			}
			t.Fatal(err)
		}
	}
	// The server severs at the corrupt frame: our next read sees EOF/reset.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	io.Copy(io.Discard, conn)                             //nolint:errcheck
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for s.counters.crcErrors.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.counters.crcErrors.Load(); got != 1 {
		t.Fatalf("crc errors = %d, want 1", got)
	}
	if got := s.counters.severs.Load(); got != 1 {
		t.Fatalf("severs = %d, want 1", got)
	}
	// Only the frame before the corruption was accepted.
	for s.counters.records.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.counters.records.Load(); got != 1 {
		t.Fatalf("records = %d, want 1", got)
	}
	dev := s.devices.snapshot()["dev-x"]
	if dev.CRCErrors != 1 {
		t.Fatalf("per-device crc errors = %+v", dev)
	}

	// Reconnect: the handshake must point at the accepted prefix, and
	// retransmitting from there completes the stream.
	c, err := Dial(s.Addr().String(), "dev-x", 0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if c.ResumeSeq != 1 {
		t.Fatalf("resume seq = %d, want 1", c.ResumeSeq)
	}
	for i := int(c.ResumeSeq); i < len(recs); i++ {
		if err := c.Send(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("fin: %v", err)
	}
	if got := s.counters.records.Load(); got != int64(len(recs)) {
		t.Fatalf("records after resume = %d, want %d", got, len(recs))
	}
	if got := s.counters.resumes.Load(); got != 1 {
		t.Fatalf("resumes = %d, want 1", got)
	}
}
