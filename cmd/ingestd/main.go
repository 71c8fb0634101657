// Command ingestd is the live fleet-ingest daemon: it accepts METR record
// streams over TCP from many concurrent devices, routes them through a
// sharded analysis pipeline, and serves the paper's headline statistics
// live over an HTTP admin endpoint while the fleet streams.
//
// Usage:
//
//	ingestd -listen :9009 -admin :9010
//	ingestd -checkpoint-dir /var/lib/ingestd   # crash-safe: resumes on restart
//	ingestd -segment-dir /var/lib/ingestd-seg  # on-disk history, enables /query
//	curl http://localhost:9010/headline   # live fleet headline
//	curl http://localhost:9010/stats      # counters, rates, queue depths
//	curl http://localhost:9010/metrics    # Prometheus text exposition
//	curl http://localhost:9010/events     # recent structured events
//	curl 'http://localhost:9010/query?last=-1h&window=hour&topn=10'
//
// With -segment-dir every accepted record is also appended to per-device
// METR-3 segment files, and the admin /query endpoint answers windowed,
// filtered time-series queries over that history (sealed segments plus
// the live, still-open tail). See the tsq package and DESIGN.md §11.
//
// With -checkpoint-dir the daemon periodically persists every device
// stream's analysis state and sequence number; after a crash (SIGKILL,
// OOM, power loss) the next start replays the latest valid checkpoint and
// clients resume mid-stream, retransmitting at most one checkpoint
// interval of records.
//
// On SIGINT/SIGTERM the daemon drains gracefully: it stops accepting,
// severs device connections, flushes every shard queue, finalises all
// device streams and prints the final fleet headline before exiting.
//
// With -durable-fin a session's FIN is acknowledged only after its final
// records are in a fsynced checkpoint (group-committed across concurrent
// FINs), so a node crash immediately after the ack cannot lose a
// completed session's tail.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"netenergy/internal/ingest"
)

func main() {
	var (
		listen  = flag.String("listen", ":9009", "TCP listen address for device streams")
		admin   = flag.String("admin", ":9010", "HTTP admin listen address (empty: disabled)")
		shards  = flag.Int("shards", 8, "worker shards (a device goes to hash(device ID) mod shards)")
		queue   = flag.Int("queue", 256, "per-shard queue depth (bounded; full queue = backpressure)")
		batch   = flag.Int("batch", 128, "records per shard hand-off batch")
		timeout = flag.Duration("read-timeout", 60*time.Second, "per-frame read deadline")
		drain   = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")

		segDir       = flag.String("segment-dir", "", "directory for METR-3 history segments (empty: /query disabled)")
		segMax       = flag.Int64("segment-max-bytes", 0, "roll a device's segment file past this size (0: 64 MiB)")
		ckptDir      = flag.String("checkpoint-dir", "", "directory for crash-safe checkpoints (empty: durability off)")
		ckptInterval = flag.Duration("checkpoint-interval", 10*time.Second, "checkpoint cadence (max progress lost to a crash)")
		durableFIN   = flag.Bool("durable-fin", false, "checkpoint a session's final records before acking its FIN (needs -checkpoint-dir; closes the FIN-ack durability window at some ack latency cost)")
		rateLimit    = flag.Float64("rate-limit", 0, "per-device connection admissions per second (0: unlimited)")
		rateBurst    = flag.Int("rate-burst", 3, "per-device admission token-bucket depth")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof under the admin server's /debug/pprof/")
	)
	flag.Parse()

	cfg := ingest.Config{
		Addr:               *listen,
		AdminAddr:          *admin,
		Shards:             *shards,
		QueueDepth:         *queue,
		BatchSize:          *batch,
		ReadTimeout:        *timeout,
		SegmentDir:         *segDir,
		SegmentMaxBytes:    *segMax,
		CheckpointDir:      *ckptDir,
		CheckpointInterval: *ckptInterval,
		DurableFIN:         *durableFIN,
		RateLimit:          *rateLimit,
		RateBurst:          *rateBurst,
		EnablePprof:        *pprofOn,
	}

	if *durableFIN && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "ingestd: -durable-fin requires -checkpoint-dir")
		os.Exit(1)
	}

	// Registered before anything listens: a SIGTERM that arrives the moment
	// the listen line is printed (a supervisor, a test harness) must find a
	// handler and drain, not the default action.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	srv := ingest.NewServer(cfg)
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "ingestd:", err)
		os.Exit(1)
	}
	fmt.Printf("ingestd: streaming on %s", srv.Addr())
	if a := srv.AdminAddr(); a != nil {
		fmt.Printf(", admin on http://%s", a)
	}
	fmt.Printf(" (%d shards)\n", *shards)
	if *segDir != "" {
		fmt.Printf("ingestd: writing history segments to %s (/query enabled)\n", *segDir)
	}
	if *ckptDir != "" {
		st := srv.Stats(false)
		if st.Checkpoint != nil && st.Checkpoint.Generation > 0 {
			fmt.Printf("ingestd: recovered checkpoint generation %d from %s (%d records replayed into %d devices)\n",
				st.Checkpoint.Generation, *ckptDir, st.Records, st.Devices)
		} else {
			fmt.Printf("ingestd: checkpointing to %s every %s\n", *ckptDir, *ckptInterval)
		}
	}

	<-sig
	fmt.Println("ingestd: draining...")

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	final, err := srv.Shutdown(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ingestd: drain failed:", err)
		os.Exit(1)
	}
	st := srv.Stats(false)
	h := ingest.HeadlineOf(final, st.Devices, st.Records)
	fmt.Printf("ingestd: drained %d devices, %d records, %d bytes (%d crc errors, %d decode errors)\n",
		st.Devices, st.Records, st.Bytes, st.CRCErrors, st.DecodeErrors)
	fmt.Printf("final headline: %.0f J attributed, background fraction %.3f, first-minute %.3f, screen-off bytes %.1f%%\n",
		h.TotalEnergyJ, h.BackgroundFraction, h.FirstMinuteFraction, 100*h.ScreenOffByteShare)
}
