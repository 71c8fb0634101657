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
// Cluster mode joins N daemons into one fleet:
//
//	ingestd -node-id n1 -cluster n1=h1:9009/h1:9010,n2=h2:9009/h2:9010,n3=h3:9009/h3:9010 \
//	  -checkpoint-dir /var/lib/ingestd-n1
//
// The member entry for -node-id supplies the listen addresses. Each node
// probes its peers' admin endpoints, owns the devices the shared
// consistent-hash ring assigns to its live view, and answers handshakes
// for foreign devices with a redirect ack naming the owner. On graceful
// drain the node ships its final checkpoint to the live peers
// (-handoff-on-drain) and leaves a tombstone in its own checkpoint dir,
// so its devices' state moves to the new owners without waiting for an
// aggregatord-triggered handoff and a later restart cannot resurrect it.
//
// With -durable-fin a session's FIN is acknowledged only after its final
// records are in a fsynced checkpoint (group-committed across concurrent
// FINs), so a node crash immediately after the ack cannot lose a
// completed session's tail. A node whose state was handed off while it
// was partitioned is fenced by aggregatord when it resurfaces: it stops
// serving streams, archives its checkpoint dir behind the tombstone, and
// rejoins with a fresh incarnation on restart — no operator wipe needed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"netenergy/internal/cluster"
	"netenergy/internal/ingest"
)

func main() {
	var (
		listen  = flag.String("listen", ":9009", "TCP listen address for device streams")
		admin   = flag.String("admin", ":9010", "HTTP admin listen address (empty: disabled)")
		shards  = flag.Int("shards", 8, "worker shards (consistent-hashed by device ID)")
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

		nodeID        = flag.String("node-id", "", "this node's ID in -cluster (enables cluster mode)")
		clusterFlag   = flag.String("cluster", "", "member list: id=streamHost:port/adminHost:port,...")
		heartbeat     = flag.Duration("heartbeat", time.Second, "peer liveness probe cadence")
		probeMax      = flag.Duration("probe-max", 0, "re-probe interval cap for dead peers (0: 10x heartbeat)")
		failThreshold = flag.Int("fail-threshold", 3, "consecutive probe failures that declare a peer dead")
		handoffDrain  = flag.Bool("handoff-on-drain", true, "ship the final checkpoint to live peers on graceful drain (cluster mode)")
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

	// Cluster mode: the member entry for -node-id supplies the listen
	// addresses, and the live membership view supplies the routing hook.
	var prober *cluster.Prober
	var self cluster.Member
	if (*nodeID == "") != (*clusterFlag == "") {
		fmt.Fprintln(os.Stderr, "ingestd: -node-id and -cluster must be set together")
		os.Exit(1)
	}
	if *nodeID != "" {
		members, err := cluster.ParseMembers(*clusterFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ingestd:", err)
			os.Exit(1)
		}
		m, ok := cluster.MemberByID(members, *nodeID)
		if !ok {
			fmt.Fprintf(os.Stderr, "ingestd: node-id %q not in -cluster\n", *nodeID)
			os.Exit(1)
		}
		self = m
		cfg.Addr = self.Stream
		cfg.AdminAddr = self.Admin
		cfg.NodeID = self.ID
		prober = cluster.NewProber(cluster.ProberConfig{
			Members:       members,
			Interval:      *heartbeat,
			MaxInterval:   *probeMax,
			FailThreshold: *failThreshold,
		})
		cfg.Route = cluster.NewView(self, prober).Route
		cfg.ClusterEpoch = prober.Epoch
		cfg.OnFenced = func(reason string) {
			fmt.Fprintln(os.Stderr, "ingestd: FENCED:", reason)
			fmt.Fprintln(os.Stderr, "ingestd: this node's state was handed off to the survivors; its checkpoint dir is archived — restart to rejoin with a fresh incarnation")
		}
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
	if prober != nil {
		prober.Start()
		defer prober.Stop()
		fmt.Printf("ingestd: cluster node %s joined (heartbeat %s)\n", self.ID, *heartbeat)
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

	// Cluster drain handoff: ship the final checkpoint (written by
	// Shutdown above) to the live peers so this node's devices resume on
	// their new owners without waiting for a dead-member detection cycle.
	if prober != nil && *handoffDrain && *ckptDir != "" {
		if srv.Fenced() {
			// A fenced node's state already lives on the survivors; shipping
			// it again would double-count every adopted record.
			fmt.Fprintln(os.Stderr, "ingestd: drain handoff skipped: node is fenced (state already handed off)")
		} else {
			shipDrainCheckpoint(prober, self, *ckptDir)
		}
	}
}

// shipDrainCheckpoint hands this node's final checkpoint to every live peer
// (self excluded) through the one handoff sender, cluster.ShipDir, which
// also leaves the tombstone. Unlike the aggregator this sender runs once:
// the tombstone fences the whole directory from the first peer that
// answers, so a peer that never did is left to the aggregator's handoff of
// the same directory once this node is seen dead (a per-device tombstone,
// which would let a partial drain be resumed, is a different issue).
func shipDrainCheckpoint(prober *cluster.Prober, self cluster.Member, dir string) {
	var peers []cluster.Member
	for _, m := range prober.Live() {
		if m.ID != self.ID {
			peers = append(peers, m)
		}
	}
	if len(peers) == 0 {
		fmt.Fprintln(os.Stderr, "ingestd: drain handoff: no live peers")
		return
	}
	h, err := cluster.ShipDir(nil, self.ID, dir, peers, cluster.ShipPolicy{
		Attempts: 3,
		OnAttempt: func(member string, attempt int, err error) {
			fmt.Fprintf(os.Stderr, "ingestd: drain handoff -> %s attempt %d: %v\n", member, attempt, err)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ingestd: drain handoff:", err)
	}
	if h.Tombstone == nil {
		return
	}
	fmt.Printf("ingestd: drain handoff shipped checkpoint gen %d to %d of %d peers (%d device states adopted); a restart from %s archives it behind the tombstone and rejoins fresh\n",
		h.Generation, h.Answered, len(peers), h.Adopted, dir)
}
