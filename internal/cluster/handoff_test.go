package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netenergy/internal/analysis"
	"netenergy/internal/energy"
	"netenergy/internal/ingest"
	"netenergy/internal/ingest/checkpoint"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

// TestClusterHandoffKillNode is the cluster tier's acceptance test, the
// three-node analogue of ingest's TestCrashRecovery: a fleet streams across
// a three-node cluster (every session routing by the shared ring, every
// node redirecting misrouted devices), then the node owning the most
// devices is killed mid-stream with no drain. The probers declare it dead,
// the aggregator ships its last checkpoint to the survivors, sessions walk
// their ring preference to the inheriting nodes and resume, and the final
// merged fleet headline must equal the batch pipeline over the same
// dataset — the death, the handoff and the retransmission must all be
// invisible in the result.
func TestClusterHandoffKillNode(t *testing.T) {
	const n = 3
	dirs := [n]string{t.TempDir(), t.TempDir(), t.TempDir()}

	// Each server's Route hook is wired to its View only after the cluster
	// addresses are known (the servers bind :0); until then every node
	// claims every device, which is moot because no client connects before
	// the wiring below.
	var routeHooks [n]atomic.Pointer[func(string) (string, bool)]
	var srvs [n]*ingest.Server
	for i := 0; i < n; i++ {
		i := i
		srvs[i] = startIngest(t, ingest.Config{
			NodeID: nodeID(i), Shards: 2, QueueDepth: 16, BatchSize: 16,
			CheckpointDir: dirs[i], CheckpointInterval: 25 * time.Millisecond,
			Route: func(device string) (string, bool) {
				if f := routeHooks[i].Load(); f != nil {
					return (*f)(device)
				}
				return "", true
			},
		})
	}

	members := make([]Member, n)
	streams := make([]string, n)
	handoffDirs := map[string]string{}
	for i := 0; i < n; i++ {
		members[i] = Member{ID: nodeID(i), Stream: srvs[i].Addr().String(), Admin: srvs[i].AdminAddr().String()}
		streams[i] = members[i].Stream
		handoffDirs[members[i].ID] = dirs[i]
	}
	proberCfg := ProberConfig{
		Members:       members,
		Interval:      20 * time.Millisecond,
		MaxInterval:   200 * time.Millisecond,
		FailThreshold: 2,
		Timeout:       500 * time.Millisecond,
	}
	for i := 0; i < n; i++ {
		p := NewProber(proberCfg)
		route := NewView(members[i], p).Route
		routeHooks[i].Store(&route)
		p.Start()
		defer p.Stop()
	}
	aggProber := NewProber(proberCfg)
	aggProber.Start()
	defer aggProber.Stop()
	agg := NewAggregator(AggregatorConfig{
		Prober:      aggProber,
		Interval:    50 * time.Millisecond,
		Timeout:     2 * time.Second,
		HandoffDirs: handoffDirs,
	})
	agg.Start()
	defer agg.Stop()

	dts := synthgen.GenerateInMemory(synthgen.Small(8, 2))
	var sent int64
	for _, dt := range dts {
		sent += int64(len(dt.Records))
	}

	// Kill the node that owns the most devices so the death is guaranteed
	// to disrupt sessions and move state.
	ring := ingest.NewNodeRing(streams)
	owned := map[string]int{}
	for _, dt := range dts {
		owned[ring.Owner(dt.Device)]++
	}
	killIdx := 0
	for i, s := range streams {
		if owned[s] > owned[streams[killIdx]] {
			killIdx = i
		}
	}
	if owned[streams[killIdx]] == 0 {
		t.Fatal("placement degenerate: no node owns any devices")
	}

	var wg sync.WaitGroup
	stats := make([]ingest.SessionStats, len(dts))
	errs := make([]error, len(dts))
	for i, dt := range dts {
		wg.Add(1)
		go func(i int, dt *trace.DeviceTrace) {
			defer wg.Done()
			stats[i], errs[i] = ingest.StreamTrace(ingest.SessionConfig{
				Nodes:    streams,
				Device:   dt.Device,
				Start:    dt.Start,
				Deadline: 2 * time.Minute,
				Backoff:  ingest.Backoff{Base: 5 * time.Millisecond, Max: 80 * time.Millisecond},
				Pace: func(j int) time.Duration {
					if j%8 == 0 {
						return 400 * time.Microsecond
					}
					return 0
				},
			}, dt.Records)
		}(i, dt)
	}

	// Let the fleet get roughly a third of the way in, with the victim
	// holding at least one durable checkpoint, then pull the plug.
	victim := srvs[killIdx]
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var total int64
		for _, s := range srvs {
			total += s.Stats(false).Records
		}
		vst := victim.Stats(false)
		if total >= sent/3 && vst.Records > 0 && vst.Checkpoint != nil && vst.Checkpoint.Generation >= 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	victim.Kill()
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %s: %v", dts[i].Device, err)
		}
	}
	var conns int
	for _, st := range stats {
		conns += st.Conns
	}
	if conns <= len(dts) {
		t.Errorf("no session reconnected (conns=%d over %d devices) — kill landed too early/late", conns, len(dts))
	}

	// The aggregator settles: once every session has finished and the
	// handoff landed, a full pull cycle is exact. Headline() is the last
	// finished cycle's, which may have pulled the last device with every
	// record applied and its FIN still to come — a snapshot of an open
	// session, not its result — so wait for a cycle that began after the
	// sessions ended: the one in flight now adds at most n-1 pulls, the next
	// n-1 more, and one further pull means that one has been published.
	pulled := scrapeAgg(t, agg)["aggregator_pulls_total"]
	waitFor(t, 60*time.Second, "fleet headline settles", func() bool {
		h, ok := agg.Headline()
		return ok && h.Records == sent && h.Devices == len(dts) && h.NodesLive == n-1 &&
			scrapeAgg(t, agg)["aggregator_pulls_total"] > pulled+2*(n-1)
	})
	h, _ := agg.Headline()
	if h.Epoch < 2 {
		t.Errorf("epoch = %d after a death, want >= 2", h.Epoch)
	}
	for _, c := range h.Nodes {
		if c.NodeID == nodeID(killIdx) {
			t.Errorf("dead node %s still contributing", c.NodeID)
		}
	}

	// The handoff actually moved: the aggregator shipped one, and each
	// survivor processed a transfer.
	m := scrapeAgg(t, agg)
	if m["aggregator_handoffs_total"] < 1 {
		t.Errorf("aggregator_handoffs_total = %v, want >= 1", m["aggregator_handoffs_total"])
	}
	if m["aggregator_handoff_errors_total"] != 0 {
		t.Errorf("aggregator_handoff_errors_total = %v, want 0", m["aggregator_handoff_errors_total"])
	}
	for i, s := range srvs {
		if i == killIdx {
			continue
		}
		if got := s.Stats(false).Transfers; got < 1 {
			t.Errorf("survivor %s transfers = %d, want >= 1", nodeID(i), got)
		}
	}

	// Every record accounted for exactly once on exactly one survivor.
	for _, dt := range dts {
		var got int64
		for i, s := range srvs {
			if i != killIdx {
				got += s.DeviceRecords(dt.Device)
			}
		}
		if got != int64(len(dt.Records)) {
			t.Errorf("device %s: survivors hold %d records, sent %d", dt.Device, got, len(dt.Records))
		}
	}

	// Batch reference over the identical dataset: the merged fleet headline
	// must match within the same tolerances as single-node crash recovery.
	devs, err := analysis.LoadAll(dts, energy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := analysis.ComputeHeadline(devs)
	if d := math.Abs(h.TotalEnergyJ - want.TotalEnergyJ); d > 1e-6*(1+want.TotalEnergyJ) {
		t.Errorf("total energy: fleet %v vs batch %v", h.TotalEnergyJ, want.TotalEnergyJ)
	}
	if d := math.Abs(h.BackgroundFraction - want.BackgroundFraction); d > 0.01*want.BackgroundFraction {
		t.Errorf("background fraction: fleet %v vs batch %v", h.BackgroundFraction, want.BackgroundFraction)
	}
	if d := math.Abs(h.FirstMinuteFraction - want.FirstMinute.Fraction); d > 1e-9 {
		t.Errorf("first minute: fleet %v vs batch %v", h.FirstMinuteFraction, want.FirstMinute.Fraction)
	}
}

func nodeID(i int) string { return "n" + string(rune('1'+i)) }

// flakyTransfers is an admin-plane transport that answers 503 to /transfer
// posts for the host in down, and keeps every other /transfer reply.
type flakyTransfers struct {
	down atomic.Pointer[string]

	mu      sync.Mutex
	replies map[string][]ingest.TransferResult // by host
}

func (f *flakyTransfers) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/transfer" {
		return http.DefaultTransport.RoundTrip(req)
	}
	if down := f.down.Load(); down != nil && *down == req.URL.Host {
		return &http.Response{
			StatusCode: http.StatusServiceUnavailable, Header: http.Header{},
			Body: io.NopCloser(strings.NewReader("injected")), Request: req,
		}, nil
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var tr ingest.TransferResult
	if err := json.Unmarshal(body, &tr); err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.replies[req.URL.Host] = append(f.replies[req.URL.Host], tr)
	f.mu.Unlock()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// TestPartialHandoffIsRetried: survivor B answers 503 to every transfer
// attempt of the cycle in which the dead member's checkpoint is first
// shipped. The sessions in it are closed — no client is left to retransmit
// them — so unless the aggregator ships again, the devices B now owns are
// gone. It must: the next cycle B adopts its share, A (which answered the
// first time) reports its share stale and changes nothing, a third cycle
// ships nothing, and the fleet headline equals the batch pipeline.
func TestPartialHandoffIsRetried(t *testing.T) {
	deadDir := t.TempDir()
	dead := startIngest(t, ingest.Config{
		NodeID: "n1", Shards: 2, CheckpointDir: deadDir, CheckpointInterval: time.Hour,
	})
	// The survivors split the devices by a fixed table rather than a ring
	// over their (random) addresses, so each owns half on every run.
	dts := synthgen.GenerateInMemory(synthgen.Small(6, 1))
	owner := map[string]string{}
	for i, dt := range dts {
		owner[dt.Device] = []string{"n2", "n3"}[i%2]
	}
	survivor := func(id string) *ingest.Server {
		return startIngest(t, ingest.Config{NodeID: id, Shards: 2, Route: func(device string) (string, bool) {
			return "elsewhere:9", owner[device] == id
		}})
	}
	a, b := survivor("n2"), survivor("n3")
	share := map[*ingest.Server]int{a: len(dts) / 2, b: len(dts) / 2}
	var sent int64
	for _, dt := range dts {
		streamAll(t, dead.Addr().String(), dt) // FIN: a closed session
		sent += int64(len(dt.Records))
	}
	if err := dead.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}

	members := []Member{
		{ID: "n1", Stream: dead.Addr().String(), Admin: dead.AdminAddr().String()},
		{ID: "n2", Stream: a.Addr().String(), Admin: a.AdminAddr().String()},
		{ID: "n3", Stream: b.Addr().String(), Admin: b.AdminAddr().String()},
	}
	prober := NewProber(ProberConfig{Members: members, Interval: 10 * time.Millisecond, FailThreshold: 2})
	prober.Start()
	defer prober.Stop()
	transfers := &flakyTransfers{replies: map[string][]ingest.TransferResult{}}
	agg := NewAggregator(AggregatorConfig{
		Prober: prober, HandoffDirs: map[string]string{"n1": deadDir},
		HandoffAttempts: 2, Transport: transfers,
	})
	agg.PullOnce() // baseline: everyone alive
	dead.Kill()
	waitFor(t, 10*time.Second, "n1 declared dead", func() bool { return len(prober.Live()) == 2 })

	transfers.down.Store(&members[2].Admin)
	agg.PullOnce() // cycle 1: A answers, B sits out both attempts
	if got := a.Stats(false); got.Devices != share[a] || got.Transfers != 1 {
		t.Fatalf("after cycle 1 A holds %d devices (%d transfers), want its %d", got.Devices, got.Transfers, share[a])
	}
	if got := b.Stats(false); got.Devices != 0 {
		t.Fatalf("after cycle 1 B holds %d devices through a 503", got.Devices)
	}
	if tomb, err := checkpoint.LoadTombstone(deadDir); err != nil || tomb == nil {
		t.Fatalf("no tombstone after the first partial success: %v", err)
	}
	aAfter1 := a.Headline()

	transfers.down.Store(nil)
	agg.PullOnce() // cycle 2: shipped to both again
	if got := b.Stats(false); got.Devices != share[b] || got.Transfers != 1 {
		t.Errorf("after cycle 2 B holds %d devices (%d transfers), want its %d", got.Devices, got.Transfers, share[b])
	}
	transfers.mu.Lock()
	aReplies := transfers.replies[members[1].Admin]
	transfers.mu.Unlock()
	if len(aReplies) != 2 || aReplies[1].AcceptedDevices != 0 || aReplies[1].Records != 0 || aReplies[1].SkippedStale != share[a] {
		t.Errorf("A's replies %+v: want the second to report its %d devices stale", aReplies, share[a])
	}
	if got := a.Headline(); got != aAfter1 {
		t.Errorf("re-delivery changed A:\n got %+v\nwant %+v", got, aAfter1)
	}

	h := agg.PullOnce() // cycle 3: nothing left to ship
	if got := a.Stats(false).Transfers + b.Stats(false).Transfers; got != 3 {
		t.Errorf("%d transfers landed in all, want 3: the handoff was shipped again after every survivor had answered", got)
	}
	m := scrapeAgg(t, agg)
	if m["aggregator_handoffs_total"] != 2 || m["aggregator_handoff_errors_total"] != 1 || m["aggregator_handoff_retries_total"] != 1 {
		t.Errorf("handoffs %v, errors %v, retries %v; want 2, 1, 1",
			m["aggregator_handoffs_total"], m["aggregator_handoff_errors_total"], m["aggregator_handoff_retries_total"])
	}

	devs, err := analysis.LoadAll(dts, energy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := analysis.ComputeHeadline(devs)
	if h.Records != sent || h.Devices != len(dts) {
		t.Errorf("fleet holds %d devices / %d records, sent %d / %d", h.Devices, h.Records, len(dts), sent)
	}
	if d := math.Abs(h.TotalEnergyJ - want.TotalEnergyJ); d > 1e-6*(1+want.TotalEnergyJ) {
		t.Errorf("total energy: fleet %v vs batch %v", h.TotalEnergyJ, want.TotalEnergyJ)
	}
}

// TestShipDirFoldsLog: the dead node's directory is a base and a log of
// delta frames — every FIN durable as its own commit, and a tick for the
// session still open. ShipDir hands the survivors that state folded into one
// file: the fleet headline equals the batch pipeline, and the tombstone's
// generation counts the frames, so a restart of the dead node archives the
// directory rather than serving it again.
func TestShipDirFoldsLog(t *testing.T) {
	deadDir := t.TempDir()
	deadCfg := ingest.Config{
		NodeID: "n1", Shards: 2, CheckpointDir: deadDir, CheckpointInterval: time.Hour, DurableFIN: true,
	}
	dead := startIngest(t, deadCfg)
	dts := synthgen.GenerateInMemory(synthgen.Small(6, 1))
	owner := map[string]string{}
	for i, dt := range dts {
		owner[dt.Device] = []string{"n2", "n3"}[i%2]
	}
	var survivors []*ingest.Server
	var members []Member
	for _, id := range []string{"n2", "n3"} {
		id := id
		s := startIngest(t, ingest.Config{NodeID: id, Shards: 3, Route: func(device string) (string, bool) {
			return "elsewhere:9", owner[device] == id
		}})
		survivors = append(survivors, s)
		members = append(members, Member{ID: id, Stream: s.Addr().String(), Admin: s.AdminAddr().String()})
	}

	// Five sessions closed, each FIN its own commit; the sixth is still open
	// at the kill, made durable by a tick.
	open := dts[len(dts)-1]
	var sent int64
	for _, dt := range dts[:len(dts)-1] {
		streamAll(t, dead.Addr().String(), dt)
		sent += int64(len(dt.Records))
	}
	c, err := ingest.Dial(dead.Addr().String(), open.Device, open.Start, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := range open.Records {
		if err := c.Send(&open.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	sent += int64(len(open.Records))
	waitFor(t, 10*time.Second, "the open session is applied", func() bool { return dead.Stats(false).Records == sent })
	if err := dead.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	c.CloseAbort() //nolint:errcheck
	dead.Kill()

	commits := uint64(len(dts)) // five FINs and a tick
	bases, _ := filepath.Glob(filepath.Join(deadDir, "ck-*.ck"))
	if len(bases) != 1 || filepath.Base(bases[0]) != "ck-00000001.ck" {
		t.Fatalf("bases %v: want the first commit's alone, every later one a frame", bases)
	}
	h, err := ShipDir(nil, "n1", deadDir, members, ShipPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if h.Generation != commits || h.Answered != 2 || h.Adopted != len(dts) || h.Tombstone == nil || h.Tombstone.Generation != commits {
		t.Fatalf("handoff %+v (tombstone %+v): want generation %d = base + frames, %d devices adopted by 2 survivors", h, h.Tombstone, commits, len(dts))
	}

	devs, err := analysis.LoadAll(dts, energy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := analysis.ComputeHeadline(devs)
	var records int64
	var energyJ float64
	for _, s := range survivors {
		hl := s.Headline()
		records += hl.Records
		energyJ += hl.TotalEnergyJ
	}
	if records != sent || math.Abs(energyJ-want.TotalEnergyJ) > 1e-6*(1+want.TotalEnergyJ) {
		t.Errorf("survivors hold %d records / %v J; sent %d, batch pipeline says %v J", records, energyJ, sent, want.TotalEnergyJ)
	}

	again := startIngest(t, deadCfg)
	if st := again.Stats(false); st.Records != 0 || st.Devices != 0 {
		t.Errorf("the dead node came back serving %d devices / %d records it had handed off", st.Devices, st.Records)
	}
}

// TestRefusedCheckpointIsNotRetried: a survivor answers a checkpoint in a
// format it refuses (payload v1 here) with 400, which is the file's fault,
// so one attempt per survivor is all it gets however many the policy allows.
func TestRefusedCheckpointIsNotRetried(t *testing.T) {
	survivor := startIngest(t, ingest.Config{NodeID: "s1", Shards: 1})
	v1 := []byte{1, 0, 0} // version, no devices, no aggregate
	file := binary.LittleEndian.AppendUint32([]byte("NECKPT1\n"), crc32.ChecksumIEEE(v1))
	file = append(binary.AppendUvarint(file, uint64(len(v1))), v1...)

	retries := 0
	results, err := ShipCheckpointRetry(nil, file,
		[]Member{{ID: "s1", Admin: survivor.AdminAddr().String()}},
		ShipPolicy{Attempts: 5, OnAttempt: func(string, int, error) { retries++ }})
	if err == nil || len(results) != 0 || !strings.Contains(err.Error(), "status 400") {
		t.Fatalf("results %+v, err %v; want a 400", results, err)
	}
	if st := survivor.Stats(false); retries != 0 || st.TransferErrors != 1 {
		t.Errorf("%d retries, %d transfer errors on the survivor; want 0 and 1", retries, st.TransferErrors)
	}
}
