package whatif

import (
	"testing"

	"netenergy/internal/analysis"
	"netenergy/internal/energy"
	"netenergy/internal/netparse"
	"netenergy/internal/radio"
	"netenergy/internal/trace"
)

const hour = trace.Timestamp(3600 * 1_000_000)

// dozeTrace builds a device with one short foreground session at t=0 and a
// background poller firing every 30 minutes afterwards.
func dozeTrace(t *testing.T) *analysis.DeviceData {
	t.Helper()
	dt := &trace.DeviceTrace{Device: "d0", Start: 0, Apps: trace.NewAppTable()}
	app := dt.Apps.Intern("com.poller")
	dt.Records = append(dt.Records, trace.Record{Type: trace.RecAppName, App: app, AppName: "com.poller"})
	dt.Records = append(dt.Records,
		trace.Record{Type: trace.RecProcState, TS: 0, App: app, State: trace.StateForeground},
		trace.Record{Type: trace.RecProcState, TS: 10 * 60 * 1_000_000, App: app, State: trace.StateService},
	)
	port := uint16(40000)
	add := func(ts trace.Timestamp, st trace.ProcState) {
		port++
		buf := make([]byte, 96)
		stored, _, err := netparse.BuildTCPv4Snapped(buf, [4]byte{10, 0, 0, 1}, [4]byte{23, 1, 1, 1},
			port, 443, 0, netparse.TCPAck, 2000, 96)
		if err != nil {
			t.Fatal(err)
		}
		dt.Records = append(dt.Records, trace.Record{
			Type: trace.RecPacket, TS: ts, App: app, Dir: trace.DirUp,
			Net: trace.NetCellular, State: st, Payload: buf[:stored],
		})
	}
	add(60*1_000_000, trace.StateForeground) // during the session
	for i := 1; i <= 48; i++ {               // every 30 min for a day
		add(trace.Timestamp(i)*hour/2, trace.StateService)
	}
	dt.SortByTime()
	dd, err := analysis.Load(dt, energy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return dd
}

func TestDozeSuppressesIdleBackground(t *testing.T) {
	dd := dozeTrace(t)
	cfg := DozeConfig{IdleAfter: 3600} // no maintenance windows
	res := SimulateDoze(dd, radio.LTE(), cfg)
	if res.Suppressed == 0 {
		t.Fatal("nothing suppressed")
	}
	// Polls within the first ~70 minutes survive (device active at 0-10 min
	// + 1 h idle threshold); the remaining ~46 of 48 are suppressed.
	if res.Suppressed < 40 || res.Suppressed > 47 {
		t.Errorf("suppressed = %d", res.Suppressed)
	}
	if res.SavedPct < 50 {
		t.Errorf("saved only %.1f%%", res.SavedPct)
	}
	if diff := res.DozedJ + res.SavedJ - res.BaselineJ; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("energy bookkeeping inconsistent by %v J", diff)
	}
}

func TestDozeMaintenanceWindows(t *testing.T) {
	dd := dozeTrace(t)
	strict := SimulateDoze(dd, radio.LTE(), DozeConfig{IdleAfter: 3600})
	lenient := SimulateDoze(dd, radio.LTE(), DozeConfig{
		IdleAfter: 3600, MaintenanceEvery: 4 * 3600, MaintenanceLen: 1800,
	})
	if lenient.Suppressed >= strict.Suppressed {
		t.Errorf("maintenance windows should let some packets through: %d vs %d",
			lenient.Suppressed, strict.Suppressed)
	}
	if lenient.SavedJ > strict.SavedJ {
		t.Error("lenient policy should not save more")
	}
}

func TestDozeWhitelist(t *testing.T) {
	dd := dozeTrace(t)
	app, _ := dd.Apps.Lookup("com.poller")
	res := SimulateDoze(dd, radio.LTE(), DozeConfig{
		IdleAfter: 3600, Whitelist: map[uint32]bool{app: true},
	})
	if res.Suppressed != 0 {
		t.Errorf("whitelisted app suppressed %d packets", res.Suppressed)
	}
	if res.SavedJ > 1e-6 {
		t.Errorf("whitelisted app saved %v J", res.SavedJ)
	}
}

func TestDozeForegroundNeverSuppressed(t *testing.T) {
	dd := dozeTrace(t)
	res := SimulateDoze(dd, radio.LTE(), DozeConfig{IdleAfter: 1})
	// One foreground packet exists; with a 1-second threshold everything
	// background is suppressed but the foreground packet survives.
	if res.TotalPackets-res.Suppressed < 1 {
		t.Error("foreground packet was suppressed")
	}
}

func TestDozeFleetAggregation(t *testing.T) {
	a, b := dozeTrace(t), dozeTrace(t)
	b.Device = "d1"
	agg := SimulateDozeFleet([]*analysis.DeviceData{a, b}, radio.LTE(), DefaultDoze())
	single := SimulateDoze(a, radio.LTE(), DefaultDoze())
	if agg.TotalPackets != 2*single.TotalPackets {
		t.Errorf("fleet packets = %d", agg.TotalPackets)
	}
	if agg.SavedJ < single.SavedJ {
		t.Error("fleet savings below single device")
	}
}

func TestDefaultDozeSane(t *testing.T) {
	cfg := DefaultDoze()
	if cfg.IdleAfter != 3600 || cfg.MaintenanceEvery <= 0 || cfg.MaintenanceLen <= 0 {
		t.Errorf("default doze config: %+v", cfg)
	}
}

func TestBatchingSavesEnergy(t *testing.T) {
	dd := dozeTrace(t) // 48 half-hourly isolated bursts
	res := SimulateBatching(dd, radio.LTE(), 4)
	if res.SavedPct < 40 {
		t.Errorf("4x batching saved only %.1f%%", res.SavedPct)
	}
	if res.BatchedJ+res.SavedJ-res.BaselineJ > 1e-6 {
		t.Error("bookkeeping inconsistent")
	}
	// Delays bounded by (factor-1) x burst spacing (~30 min each).
	if res.MaxDelayS < 3000 || res.MaxDelayS > 4*1900 {
		t.Errorf("max delay = %.0f s", res.MaxDelayS)
	}
}

func TestBatchingFactorOne(t *testing.T) {
	dd := dozeTrace(t)
	res := SimulateBatching(dd, radio.LTE(), 1)
	if res.SavedJ != 0 || res.BatchedJ != res.BaselineJ {
		t.Errorf("factor 1 should be identity: %+v", res)
	}
}

func TestBatchingMonotoneInFactor(t *testing.T) {
	dd := dozeTrace(t)
	prev := SimulateBatching(dd, radio.LTE(), 2).BatchedJ
	for _, f := range []int{4, 8} {
		cur := SimulateBatching(dd, radio.LTE(), f).BatchedJ
		if cur > prev+1e-6 {
			t.Errorf("batching x%d costs more than smaller factor: %v > %v", f, cur, prev)
		}
		prev = cur
	}
}

func TestBatchingFleet(t *testing.T) {
	a, b := dozeTrace(t), dozeTrace(t)
	b.Device = "d1"
	agg := SimulateBatchingFleet([]*analysis.DeviceData{a, b}, radio.LTE(), 4)
	single := SimulateBatching(a, radio.LTE(), 4)
	if agg.BaselineJ < 2*single.BaselineJ-1e-6 {
		t.Errorf("fleet baseline = %v", agg.BaselineJ)
	}
	if agg.SavedPct <= 0 {
		t.Error("fleet batching saved nothing")
	}
}
