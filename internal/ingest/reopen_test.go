package ingest

import (
	"math"
	"testing"
	"time"

	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

// A device that streams again after FIN is the collector's normal case (20
// phones uploading for 22 months): FIN closes a session, not a device. These
// tests pin that a returning device's state survives every way checkpointed
// state enters a node — restart and handoff — exactly once, each compared
// against the live node's own headline taken just before the checkpoint.

// streamRange delivers dt.Records[from:to) as one connection resuming at
// from, ending with a FIN or (fin false) an abort once the server has
// applied everything.
func streamRange(t *testing.T, s *Server, dt *trace.DeviceTrace, from, to int, fin bool) {
	t.Helper()
	c, err := Dial(s.Addr().String(), dt.Device, dt.Start, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if c.ResumeSeq != int64(from) {
		t.Fatalf("resume seq = %d, want %d", c.ResumeSeq, from)
	}
	for i := from; i < to; i++ {
		if err := c.Send(&dt.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if fin {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	waitRecords(t, s, dt.Device, int64(to))
	c.CloseAbort() //nolint:errcheck
}

func waitRecords(t *testing.T, s *Server, device string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.DeviceRecords(device) < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.DeviceRecords(device); got != want {
		t.Fatalf("device %s: accepted %d, want %d", device, got, want)
	}
}

func sameHeadline(t *testing.T, label string, got, want LiveHeadline) {
	t.Helper()
	if got.Records != want.Records || got.Devices != want.Devices {
		t.Errorf("%s: %d devices / %d records, live node had %d / %d",
			label, got.Devices, got.Records, want.Devices, want.Records)
	}
	if d := math.Abs(got.TotalEnergyJ - want.TotalEnergyJ); d > 1e-9*(1+want.TotalEnergyJ) {
		t.Errorf("%s: total_energy_j %v, live node had %v", label, got.TotalEnergyJ, want.TotalEnergyJ)
	}
}

// reopenedNode returns a checkpointing node holding one device that FINed at
// two thirds of its trace and then streamed the rest, closing that second
// session too when refin is set. The node has committed before any of it (an
// empty base), so the checkpoint a test then takes is a delta frame: the
// device's two sections reach the restart, or the transfer, through the fold.
func reopenedNode(t *testing.T, dir string, refin bool) (*Server, *trace.DeviceTrace) {
	t.Helper()
	s := startServer(t, Config{
		Shards: 2, QueueDepth: 16, BatchSize: 8,
		CheckpointDir: dir, CheckpointInterval: time.Hour,
	})
	if err := s.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	dt := synthgen.GenerateInMemory(synthgen.Small(1, 1))[0]
	n := len(dt.Records) * 2 / 3
	streamRange(t, s, dt, 0, n, true)
	streamRange(t, s, dt, n, len(dt.Records), refin)
	return s, dt
}

// TestReopenedDeviceSecondFINSurvivesRestart: the second retirement extends
// the device's ledger entry; it must not replace the first session's result.
func TestReopenedDeviceSecondFINSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	a, dt := reopenedNode(t, dir, true)
	want := a.Headline()
	if want.Records != int64(len(dt.Records)) || want.TotalEnergyJ <= 0 {
		t.Fatalf("live node: %+v, want %d records and energy", want, len(dt.Records))
	}
	if err := a.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	a.Kill()

	b := startServer(t, Config{Shards: 3, CheckpointDir: dir, CheckpointInterval: time.Hour})
	sameHeadline(t, "restart after second FIN", b.Headline(), want)
	if got := b.DeviceRecords(dt.Device); got != int64(len(dt.Records)) {
		t.Errorf("device records after restart = %d, want %d", got, len(dt.Records))
	}
}

// TestReopenedDeviceLiveSurvivesRestart: a device named in both sections of
// a checkpoint (retired session + live increment) is one unit — its records
// are counted once and its resume point is its high-water mark.
func TestReopenedDeviceLiveSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	a, dt := reopenedNode(t, dir, false)
	want := a.Headline()
	if err := a.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	a.Kill()

	b := startServer(t, Config{Shards: 3, CheckpointDir: dir, CheckpointInterval: time.Hour})
	sameHeadline(t, "restart with live second session", b.Headline(), want)
	c, err := Dial(b.Addr().String(), dt.Device, dt.Start, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.CloseAbort() //nolint:errcheck
	if c.ResumeSeq != int64(len(dt.Records)) {
		t.Errorf("resume seq after restart = %d, want the high-water mark %d", c.ResumeSeq, len(dt.Records))
	}
}
