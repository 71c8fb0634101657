package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"testing"
	"time"

	"netenergy/internal/analysis"
	"netenergy/internal/ingest/checkpoint"
	"netenergy/internal/synthgen"
)

// TestRedirectAck: a server whose Route hook disowns a device must answer
// the handshake with a redirect ack naming the owner, before any per-device
// state is created — a misrouted hello must not register the device here.
func TestRedirectAck(t *testing.T) {
	owner := "198.51.100.7:9009"
	s := startServer(t, Config{
		Shards: 1,
		Route:  func(device string) (string, bool) { return owner, false },
	})
	defer s.Kill()

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, err = NewClient(conn, "dev-elsewhere", 0, 0)
	var rd *ErrRedirect
	if !errors.As(err, &rd) {
		t.Fatalf("want ErrRedirect, got %v", err)
	}
	if rd.Addr != owner {
		t.Fatalf("redirect addr = %q, want %q", rd.Addr, owner)
	}
	if got := s.counters.redirects.Load(); got != 1 {
		t.Errorf("redirects counter = %d, want 1", got)
	}
	if got := s.Stats(false).Redirects; got != 1 {
		t.Errorf("Stats.Redirects = %d, want 1", got)
	}
	if s.devices.lookup("dev-elsewhere") != nil {
		t.Error("redirected handshake registered per-device state")
	}
}

// TestStreamTraceFollowsRedirect: a session that dials a non-owner must
// follow the redirect ack to the owner and deliver the complete stream
// there, with the detour visible in its stats.
func TestStreamTraceFollowsRedirect(t *testing.T) {
	b := startServer(t, Config{Shards: 1, QueueDepth: 8, BatchSize: 8})
	a := startServer(t, Config{
		Shards: 1, QueueDepth: 8, BatchSize: 8,
		Route: func(device string) (string, bool) { return b.Addr().String(), false },
	})
	defer a.Kill()
	defer b.Kill()

	dt := synthgen.GenerateInMemory(synthgen.Small(1, 1))[0]
	st, err := StreamTrace(SessionConfig{
		Nodes:    []string{a.Addr().String()}, // the session's whole world is the non-owner
		Device:   dt.Device,
		Start:    dt.Start,
		Deadline: 30 * time.Second,
		Backoff:  Backoff{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond},
	}, dt.Records)
	if err != nil {
		t.Fatal(err)
	}
	if st.Redirected != 1 {
		t.Errorf("session redirected %d times, want 1", st.Redirected)
	}
	if st.Conns != 1 {
		t.Errorf("session accepted conns = %d, want 1 (redirect is pre-accept)", st.Conns)
	}
	if got := b.DeviceRecords(dt.Device); got != int64(len(dt.Records)) {
		t.Fatalf("owner accepted %d records, want %d", got, len(dt.Records))
	}
	if got := a.DeviceRecords(dt.Device); got != 0 {
		t.Fatalf("non-owner accepted %d records, want 0", got)
	}
}

// TestAdminNodeID: in cluster mode the /headline and /stats documents must
// carry the node's identity so fleet-wide debugging can attribute numbers.
func TestAdminNodeID(t *testing.T) {
	s := startServer(t, Config{Shards: 1, AdminAddr: "127.0.0.1:0", NodeID: "n7"})
	defer s.Kill()
	base := "http://" + s.AdminAddr().String()

	for _, path := range []string{"/headline", "/stats"} {
		var doc struct {
			NodeID string `json:"node_id"`
		}
		getJSONT(t, base+path, &doc)
		if doc.NodeID != "n7" {
			t.Errorf("%s node_id = %q, want n7", path, doc.NodeID)
		}
	}
}

// TestSnapshotEndpoint: the aggregator's pull surface must serve the binary
// fleet StreamResult with a CRC header that actually covers the bytes and
// device/record counts matching the server's own accounting.
func TestSnapshotEndpoint(t *testing.T) {
	s := startServer(t, Config{Shards: 2, AdminAddr: "127.0.0.1:0", NodeID: "n1", QueueDepth: 8, BatchSize: 8})
	defer s.Kill()
	dts := synthgen.GenerateInMemory(synthgen.Small(2, 1))
	var sent int64
	for _, dt := range dts {
		streamTrace(t, s.Addr().String(), dt)
		sent += int64(len(dt.Records))
	}

	resp, err := http.Get("http://" + s.AdminAddr().String() + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	wantCRC, err := strconv.ParseUint(resp.Header.Get("X-Snapshot-CRC32"), 10, 32)
	if err != nil {
		t.Fatalf("crc header: %v", err)
	}
	if got := crc32.ChecksumIEEE(body); got != uint32(wantCRC) {
		t.Fatalf("crc = %d, header says %d", got, wantCRC)
	}
	if got := resp.Header.Get("X-Node-ID"); got != "n1" {
		t.Errorf("X-Node-ID = %q", got)
	}
	if got := resp.Header.Get("X-Records"); got != strconv.FormatInt(sent, 10) {
		t.Errorf("X-Records = %s, want %d", got, sent)
	}
	if got := resp.Header.Get("X-Devices"); got != strconv.Itoa(len(dts)) {
		t.Errorf("X-Devices = %s, want %d", got, len(dts))
	}
	res, err := analysis.DecodeStreamResult(body)
	if err != nil {
		t.Fatal(err)
	}
	if want := s.Snapshot(); math.Abs(res.Ledger.Total-want.Ledger.Total) > 1e-9*(1+want.Ledger.Total) {
		t.Errorf("snapshot energy %v, server %v", res.Ledger.Total, want.Ledger.Total)
	}
}

// TestTransferRoundTrip is the handoff receive-path contract: a checkpoint
// file shipped to a fresh node must reproduce the origin's state bit-for-bit
// (live accumulators, sequence numbers, the retirement ledger), re-delivery
// must be a stale no-op, and a node that owns none of the devices must adopt
// nothing.
func TestTransferRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a := startServer(t, Config{Shards: 2, QueueDepth: 16, BatchSize: 4, CheckpointDir: dir})
	defer a.Kill()
	dts := synthgen.GenerateInMemory(synthgen.Small(3, 1))

	// Device 0 runs to completion (FIN -> retired aggregate); the rest stop
	// mid-stream with no FIN, leaving live accumulators behind.
	streamTrace(t, a.Addr().String(), dts[0])
	var sent int64 = int64(len(dts[0].Records))
	for _, dt := range dts[1:] {
		cut := len(dt.Records) / 2
		c, err := Dial(a.Addr().String(), dt.Device, dt.Start, 5*time.Second)
		if err != nil {
			t.Fatal(err)
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
		deadline := time.Now().Add(5 * time.Second)
		for a.DeviceRecords(dt.Device) < int64(cut) && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if got := a.DeviceRecords(dt.Device); got != int64(cut) {
			t.Fatalf("device %s: accepted %d, want %d", dt.Device, got, cut)
		}
		sent += int64(cut)
	}

	if err := a.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	ck := latestCheckpoint(t, dir)
	file := ck.File

	// Full transfer into B: state must match A.
	b := startServer(t, Config{Shards: 3, AdminAddr: "127.0.0.1:0", NodeID: "nb", QueueDepth: 16, BatchSize: 4})
	defer b.Kill()
	res := postTransfer(t, b, file)
	if res.NodeID != "nb" {
		t.Errorf("transfer node_id = %q", res.NodeID)
	}
	if res.AcceptedDevices != len(dts) || res.SkippedStale != 0 || res.SkippedNotOwned != 0 {
		t.Fatalf("transfer result %+v, want %d devices accepted", res, len(dts))
	}
	if res.Records != sent {
		t.Fatalf("transfer records %d, want %d", res.Records, sent)
	}
	for _, dt := range dts {
		if got, want := b.DeviceRecords(dt.Device), a.DeviceRecords(dt.Device); got != want {
			t.Errorf("device %s: B has %d records, A has %d", dt.Device, got, want)
		}
	}
	ha, hb := a.Headline(), b.Headline()
	if ha.Records != hb.Records || ha.Devices != hb.Devices {
		t.Fatalf("counts diverge: A %d/%d, B %d/%d", ha.Devices, ha.Records, hb.Devices, hb.Records)
	}
	if d := math.Abs(ha.TotalEnergyJ - hb.TotalEnergyJ); d > 1e-9*(1+ha.TotalEnergyJ) {
		t.Errorf("energy diverges after transfer: A %v, B %v", ha.TotalEnergyJ, hb.TotalEnergyJ)
	}

	// Re-delivery (the aggregator retries, or a drain handoff races the
	// aggregator's): every entry is stale, nothing changes.
	res2 := postTransfer(t, b, file)
	if res2.AcceptedDevices != 0 || res2.SkippedStale != len(dts) || res2.Records != 0 {
		t.Fatalf("re-delivery result %+v, want all-stale no-op", res2)
	}
	if got := b.Headline(); got.Records != hb.Records || math.Abs(got.TotalEnergyJ-hb.TotalEnergyJ) > 1e-9*(1+hb.TotalEnergyJ) {
		t.Error("re-delivered transfer changed state")
	}

	// A node that owns none of the devices adopts nothing.
	d := startServer(t, Config{
		Shards: 1, QueueDepth: 8, BatchSize: 4,
		Route: func(device string) (string, bool) { return "elsewhere:9", false },
	})
	defer d.Kill()
	res3, err := d.RestoreTransfer(ck.Snap)
	if err != nil {
		t.Fatal(err)
	}
	if res3.AcceptedDevices != 0 || res3.SkippedNotOwned != len(dts) {
		t.Fatalf("non-owner result %+v, want everything skipped", res3)
	}
}

// TestRetiredLedgerDedup closes the retired double-count window: a device
// whose session finalized on a dying node AND whose records reached a
// survivor again (lost FIN ack -> client re-streams, then the dead node's
// checkpoint is handed off) must contribute its energy exactly once,
// whichever of the re-stream and the handoff lands first and however far
// the re-stream got.
func TestRetiredLedgerDedup(t *testing.T) {
	dir := t.TempDir()
	a := startServer(t, Config{Shards: 1, QueueDepth: 16, BatchSize: 4, CheckpointDir: dir})
	defer a.Kill()
	dt := synthgen.GenerateInMemory(synthgen.Small(1, 1))[0]
	n := int64(len(dt.Records))
	streamTrace(t, a.Addr().String(), dt) // FIN -> retirement-ledger entry
	if err := a.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	file := latestCheckpoint(t, dir).File
	want := a.Headline().TotalEnergyJ
	if want <= 0 {
		t.Fatal("reference energy is zero; test is vacuous")
	}

	checkOnce := func(t *testing.T, s *Server, label string) {
		t.Helper()
		if got := s.DeviceRecords(dt.Device); got != n {
			t.Errorf("%s: device records %d, want %d", label, got, n)
		}
		if got := s.Headline().TotalEnergyJ; math.Abs(got-want) > 1e-9*(1+want) {
			t.Errorf("%s: energy %v, want exactly-once %v", label, got, want)
		}
	}

	// Re-stream completed first: the survivor retired the device locally, so
	// the handoff's ledger entry is a stale replay (retirement is terminal,
	// first wins).
	b := startServer(t, Config{Shards: 1, AdminAddr: "127.0.0.1:0", QueueDepth: 16, BatchSize: 4})
	defer b.Kill()
	streamTrace(t, b.Addr().String(), dt)
	res := postTransfer(t, b, file)
	if res.AcceptedDevices != 0 || res.SkippedStale != 1 || res.Records != 0 {
		t.Fatalf("handoff after local retire: %+v, want one stale entry", res)
	}
	checkOnce(t, b, "retire-then-handoff")

	// Re-stream was mid-flight: the finalized ledger blob is a strict
	// superset of the partial live accumulator, which is discarded.
	c := startServer(t, Config{Shards: 1, AdminAddr: "127.0.0.1:0", QueueDepth: 16, BatchSize: 4})
	defer c.Kill()
	cut := len(dt.Records) / 2
	cl, err := Dial(c.Addr().String(), dt.Device, dt.Start, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cut; i++ {
		if err := cl.Send(&dt.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	cl.CloseAbort() //nolint:errcheck
	deadline := time.Now().Add(5 * time.Second)
	for c.DeviceRecords(dt.Device) < int64(cut) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	res2 := postTransfer(t, c, file)
	if res2.AcceptedDevices != 1 || res2.Records != n-int64(cut) {
		t.Fatalf("handoff over partial re-stream: %+v, want adopted with %d-record delta", res2, n-int64(cut))
	}
	checkOnce(t, c, "partial-then-handoff")

	// Handoff landed first: the re-stream session resumes at the ledger seq,
	// retransmits nothing, and its FIN replay is a no-op on the retired
	// device.
	d := startServer(t, Config{Shards: 1, AdminAddr: "127.0.0.1:0", QueueDepth: 16, BatchSize: 4})
	defer d.Kill()
	res3 := postTransfer(t, d, file)
	if res3.AcceptedDevices != 1 || res3.Records != n {
		t.Fatalf("handoff to fresh node: %+v", res3)
	}
	st, err := StreamTrace(SessionConfig{
		Nodes:    []string{d.Addr().String()},
		Device:   dt.Device,
		Start:    dt.Start,
		Deadline: 30 * time.Second,
		Backoff:  Backoff{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond},
	}, dt.Records)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != n {
		t.Errorf("re-stream session acked %d records, want %d", st.Records, n)
	}
	if st.Bytes != 0 {
		t.Errorf("re-stream after handoff wrote %d record bytes, want 0 (resume at ledger seq)", st.Bytes)
	}
	checkOnce(t, d, "handoff-then-restream")
}

// TestTransferRejectsCorruptFile: flipped bits in the shipped file must be
// caught by the container CRC and sever with no state change.
func TestTransferRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	a := startServer(t, Config{Shards: 1, QueueDepth: 8, BatchSize: 4, CheckpointDir: dir})
	defer a.Kill()
	dt := synthgen.GenerateInMemory(synthgen.Small(1, 1))[0]
	streamTrace(t, a.Addr().String(), dt)
	if err := a.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	file := latestCheckpoint(t, dir).File
	file[len(file)-1] ^= 0x40

	b := startServer(t, Config{Shards: 1, AdminAddr: "127.0.0.1:0", QueueDepth: 8, BatchSize: 4})
	defer b.Kill()
	resp, err := http.Post("http://"+b.AdminAddr().String()+"/transfer", "application/octet-stream", bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt transfer status = %d, want 400", resp.StatusCode)
	}
	if got := b.Stats(false).TransferErrors; got != 1 {
		t.Errorf("transfer_errors = %d, want 1", got)
	}
	if got := b.counters.records.Load(); got != 0 {
		t.Errorf("corrupt transfer mutated state: %d records", got)
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

func postTransfer(t *testing.T, s *Server, file []byte) TransferResult {
	t.Helper()
	resp, err := http.Post("http://"+s.AdminAddr().String()+"/transfer", "application/octet-stream", bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body) //nolint:errcheck // test diagnostics
		t.Fatalf("transfer status %d: %s", resp.StatusCode, body)
	}
	var res TransferResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

func getJSONT(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
