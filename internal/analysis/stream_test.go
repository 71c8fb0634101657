package analysis

import (
	"bytes"
	"math"
	"testing"

	"netenergy/internal/energy"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

// TestStreamMatchesInMemory is the equivalence check: the bounded-memory
// streaming pass must produce the same ledgers and aggregates as the
// in-memory pipeline on the same trace.
func TestStreamMatchesInMemory(t *testing.T) {
	dt := synthgen.GenerateDevice(synthgen.Small(1, 5), 0)

	mem, err := Load(dt, energy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	data, err := dt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewBatchReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	str, err := StreamBatches(r, energy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	if str.DecodeErrors != mem.Energy.DecodeErrors {
		t.Errorf("decode errors: %d vs %d", str.DecodeErrors, mem.Energy.DecodeErrors)
	}
	// Both passes run energy.Replay, so the ledgers are equal, not close.
	if str.Ledger.Total != mem.Energy.Ledger.Total {
		t.Errorf("total energy: stream %v vs memory %v", str.Ledger.Total, mem.Energy.Ledger.Total)
	}
	for app, e := range mem.Energy.Ledger.ByApp {
		if got := str.Ledger.ByApp[app]; got != e {
			t.Errorf("app %d energy: stream %v vs memory %v", app, got, e)
		}
	}
	for st, e := range mem.Energy.Ledger.ByState {
		if got := str.Ledger.ByState[st]; got != e {
			t.Errorf("state %v energy: stream %v vs memory %v", st, got, e)
		}
	}
	// Fig6 bins must match the in-memory analysis.
	memFig6 := SinceForeground([]*DeviceData{mem}, 10, 7200)
	strFig6 := str.SinceForeground()
	if math.Abs(memFig6.TotalBgBytes-strFig6.TotalBgBytes) > 1 {
		t.Errorf("fig6 bytes: stream %v vs memory %v", strFig6.TotalBgBytes, memFig6.TotalBgBytes)
	}
	for i := range memFig6.Bytes {
		if math.Abs(memFig6.Bytes[i]-strFig6.Bytes[i]) > 1 {
			t.Fatalf("fig6 bin %d: stream %v vs memory %v", i, strFig6.Bytes[i], memFig6.Bytes[i])
		}
	}
	// First-minute criterion agrees.
	memFM := FirstMinute([]*DeviceData{mem}, 60, 0.8)
	if got := str.FirstMinuteFraction(0.8); math.Abs(got-memFM.Fraction) > 1e-9 {
		t.Errorf("first minute: stream %v vs memory %v", got, memFM.Fraction)
	}
	// Screen split sums to the same totals.
	memSO := ScreenOff([]*DeviceData{mem}, 0)
	if str.OffBytes+str.OnBytes != memSO.OffBytes+memSO.OnBytes {
		t.Errorf("screen byte totals: stream %d vs memory %d",
			str.OffBytes+str.OnBytes, memSO.OffBytes+memSO.OnBytes)
	}
	if str.OffBytes != memSO.OffBytes {
		t.Errorf("screen-off bytes: stream %d vs memory %d", str.OffBytes, memSO.OffBytes)
	}
}

// TestMergedStreamMatchesHeadline extends the stream-vs-batch equivalence
// to the merged path: per-device StreamResults combined with Merge must
// reproduce the in-memory Study.Headline() (ComputeHeadline is exactly
// what core.Study.Headline delegates to) — the property the ingest
// server's live fleet headline rests on.
func TestMergedStreamMatchesHeadline(t *testing.T) {
	cfg := synthgen.Small(3, 4)
	dts := synthgen.GenerateInMemory(cfg)

	// Merged per-device streaming pass, as the ingest shards run it.
	merged := NewStreamResult("fleet")
	for _, dt := range dts {
		data, err := dt.Encode()
		if err != nil {
			t.Fatal(err)
		}
		r, err := trace.NewBatchReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		res, err := StreamBatches(r, energy.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		merged.Merge(res)
	}

	devs, err := LoadAll(dts, energy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := ComputeHeadline(devs)

	if got := merged.Ledger.BackgroundFraction(); math.Abs(got-want.BackgroundFraction) > 1e-9 {
		t.Errorf("merged background fraction %v vs headline %v", got, want.BackgroundFraction)
	}
	if got := merged.Ledger.StateFraction(trace.StatePerceptible); math.Abs(got-want.PerceptibleFraction) > 1e-9 {
		t.Errorf("merged perceptible fraction %v vs headline %v", got, want.PerceptibleFraction)
	}
	if got := merged.Ledger.StateFraction(trace.StateService); math.Abs(got-want.ServiceFraction) > 1e-9 {
		t.Errorf("merged service fraction %v vs headline %v", got, want.ServiceFraction)
	}
	if got := merged.FirstMinuteFraction(0.8); math.Abs(got-want.FirstMinute.Fraction) > 1e-9 {
		t.Errorf("merged first minute %v vs headline %v", got, want.FirstMinute.Fraction)
	}
	if math.Abs(merged.Ledger.Total-want.TotalEnergyJ) > 1e-6*(1+want.TotalEnergyJ) {
		t.Errorf("merged total %v vs headline %v", merged.Ledger.Total, want.TotalEnergyJ)
	}
	// Merging in a different order must not change anything beyond float
	// association noise.
	reversed := NewStreamResult("fleet")
	for i := len(dts) - 1; i >= 0; i-- {
		data, _ := dts[i].Encode()
		r, _ := trace.NewBatchReader(bytes.NewReader(data))
		res, err := StreamBatches(r, energy.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		reversed.Merge(res)
	}
	if math.Abs(reversed.Ledger.Total-merged.Ledger.Total) > 1e-6*(1+merged.Ledger.Total) {
		t.Errorf("merge order changed total: %v vs %v", reversed.Ledger.Total, merged.Ledger.Total)
	}
	if reversed.OffBytes != merged.OffBytes || reversed.Span != merged.Span {
		t.Errorf("merge order changed aggregates: %+v vs %+v",
			reversed.Span, merged.Span)
	}
}

// TestSnapshotMatchesFinish: a Snapshot taken after the last record equals
// Finish, and snapshotting never perturbs the live accumulator.
func TestSnapshotMatchesFinish(t *testing.T) {
	dt := synthgen.GenerateDevice(synthgen.Small(1, 2), 0)
	acc := NewStreamAccumulator(dt.Device, energy.DefaultOptions())
	for i := range dt.Records {
		acc.Feed(&dt.Records[i])
		if i == len(dt.Records)/2 {
			acc.Snapshot() // mid-stream snapshot must be side-effect free
		}
	}
	snap := acc.Snapshot()
	fin := acc.Finish()
	if math.Abs(snap.Ledger.Total-fin.Ledger.Total) > 1e-9*(1+fin.Ledger.Total) {
		t.Errorf("snapshot total %v vs finish %v", snap.Ledger.Total, fin.Ledger.Total)
	}
	if math.Abs(snap.Ledger.IdleEnergy-fin.Ledger.IdleEnergy) > 1e-9 {
		t.Errorf("snapshot idle %v vs finish %v", snap.Ledger.IdleEnergy, fin.Ledger.IdleEnergy)
	}
	if snap.OffBytes != fin.OffBytes || snap.OnBytes != fin.OnBytes {
		t.Errorf("snapshot screen split %d/%d vs finish %d/%d",
			snap.OffBytes, snap.OnBytes, fin.OffBytes, fin.OnBytes)
	}
}

func TestStreamFleet(t *testing.T) {
	dir := t.TempDir()
	cfg := synthgen.Small(2, 3)
	fleet, err := synthgen.GenerateFleet(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := StreamFleet(fleet, energy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if agg.Ledger.Total <= 0 {
		t.Error("no energy streamed")
	}
	if agg.Ledger.BackgroundFraction() < 0.4 {
		t.Errorf("bg fraction = %v", agg.Ledger.BackgroundFraction())
	}
	if agg.Span[1] <= agg.Span[0] {
		t.Errorf("span = %v", agg.Span)
	}
}
