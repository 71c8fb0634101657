package synthgen

import (
	"bytes"
	"os"
	"testing"

	"netenergy/internal/appmodel"
	"netenergy/internal/energy"
	"netenergy/internal/trace"
)

func smallCfg() Config {
	c := Small(2, 3)
	return c
}

func TestGenerateDeviceDeterministic(t *testing.T) {
	a := GenerateDevice(smallCfg(), 0)
	b := GenerateDevice(smallCfg(), 0)
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	ea, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Error("identical configs produced different bytes")
	}
}

func TestDevicesDiffer(t *testing.T) {
	a := GenerateDevice(smallCfg(), 0)
	b := GenerateDevice(smallCfg(), 1)
	if len(a.Records) == len(b.Records) {
		t.Log("same record count (possible but unlikely); checking content")
		ea, _ := a.Encode()
		eb, _ := b.Encode()
		if bytes.Equal(ea, eb) {
			t.Error("two users generated identical traces")
		}
	}
}

func TestRecordsSorted(t *testing.T) {
	dt := GenerateDevice(smallCfg(), 0)
	for i := 1; i < len(dt.Records); i++ {
		if dt.Records[i].TS < dt.Records[i-1].TS {
			t.Fatalf("records unsorted at %d", i)
		}
	}
}

func TestAppIDsStableAcrossDevices(t *testing.T) {
	a := GenerateDevice(smallCfg(), 0)
	b := GenerateDevice(smallCfg(), 1)
	if a.Apps.Len() != b.Apps.Len() {
		t.Fatalf("app table sizes differ: %d vs %d", a.Apps.Len(), b.Apps.Len())
	}
	for i := 0; i < a.Apps.Len(); i++ {
		if a.Apps.Name(uint32(i)) != b.Apps.Name(uint32(i)) {
			t.Fatalf("app %d differs: %q vs %q", i, a.Apps.Name(uint32(i)), b.Apps.Name(uint32(i)))
		}
	}
}

func TestTraceProcessable(t *testing.T) {
	dt := GenerateDevice(smallCfg(), 0)
	res, err := energy.Process(dt, energy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.DecodeErrors > 0 {
		t.Errorf("%d undecodable packets", res.DecodeErrors)
	}
	if res.Ledger.Total <= 0 {
		t.Error("no energy attributed")
	}
	if len(res.Packets) == 0 {
		t.Error("no packets")
	}
}

func TestRoundTripThroughDisk(t *testing.T) {
	dir := t.TempDir()
	fleet, err := GenerateFleet(smallCfg(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet.Paths) != 2 {
		t.Fatalf("fleet paths = %v", fleet.Paths)
	}
	count := 0
	err = fleet.EachDevice(func(dt *trace.DeviceTrace) error {
		count++
		if len(dt.Records) == 0 {
			t.Errorf("device %s empty", dt.Device)
		}
		res, err := energy.Process(dt, energy.DefaultOptions())
		if err != nil {
			return err
		}
		if res.DecodeErrors > 0 {
			t.Errorf("device %s: %d decode errors after disk round trip", dt.Device, res.DecodeErrors)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("visited %d devices", count)
	}
}

func TestWiFiPeriodsProduceWiFiPackets(t *testing.T) {
	cfg := smallCfg()
	cfg.NightlyWiFiProb = 1.0
	cfg.Days = 5
	dt := GenerateDevice(cfg, 0)
	wifi, cell := 0, 0
	for i := range dt.Records {
		if r := &dt.Records[i]; r.Type == trace.RecPacket {
			if r.Net == trace.NetWiFi {
				wifi++
			} else {
				cell++
			}
		}
	}
	if wifi == 0 {
		t.Error("no WiFi packets despite nightly WiFi")
	}
	if cell == 0 {
		t.Error("no cellular packets")
	}
	if wifi > cell {
		t.Errorf("wifi (%d) should not dominate cellular (%d) for daytime-heavy traffic", wifi, cell)
	}
}

func TestBackgroundEnergyDominates(t *testing.T) {
	// The headline calibration target: background states should take the
	// large majority of cellular energy even on a small fleet.
	cfg := Small(3, 7)
	var ledgers []*energy.Ledger
	for i := 0; i < cfg.Users; i++ {
		dt := GenerateDevice(cfg, i)
		res, err := energy.Process(dt, energy.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ledgers = append(ledgers, res.Ledger)
	}
	m := energy.MergeLedgers(ledgers)
	f := m.BackgroundFraction()
	if f < 0.6 || f > 0.97 {
		t.Errorf("background fraction = %.2f, want in [0.6, 0.97]", f)
	}
}

func TestNamedAppsPresentAcrossFleet(t *testing.T) {
	cfg := Small(6, 3)
	seen := map[string]bool{}
	for i := 0; i < cfg.Users; i++ {
		dt := GenerateDevice(cfg, i)
		byApp := map[uint32]int{}
		for j := range dt.Records {
			if r := &dt.Records[j]; r.Type == trace.RecPacket {
				byApp[r.App]++
			}
		}
		for app, n := range byApp {
			if n > 0 {
				seen[dt.Apps.Name(app)] = true
			}
		}
	}
	// Universal apps must appear on (nearly) every device.
	for _, pkg := range []string{appmodel.PkgSamsungPush, appmodel.PkgPlus, appmodel.PkgMediaServer} {
		if !seen[pkg] {
			t.Errorf("universal app %s generated no traffic on any device", pkg)
		}
	}
}

func TestConfigEnd(t *testing.T) {
	c := Small(1, 2)
	if got := c.End().Sub(c.Start); got != 2*86400 {
		t.Errorf("span = %v s", got)
	}
}

func TestCompressedFleetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fleet, err := GenerateFleet(smallCfg(), dir)
	if err != nil {
		t.Fatal(err)
	}
	// The files are compressed: readable transparently, and smaller than
	// the plain form of the same trace.
	dt, err := trace.ReadFile(fleet.Paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(dt.Records) == 0 {
		t.Fatal("compressed trace empty")
	}
	plain, err := dt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(fleet.Paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() >= int64(len(plain)) {
		t.Errorf("compressed %d bytes >= plain %d", st.Size(), len(plain))
	}
}

// TestBlockedFleetRoundTrip: every file GenerateFleet writes is a sealed
// METR-3 container — it sniffs as one and carries a footer index, which is
// what routes trace.ReadFileParallel, and so core.OpenParallel, onto the
// indexed arena path instead of the streaming ReadAll fallback — and reads
// back as the records GenerateDevice produces.
func TestBlockedFleetRoundTrip(t *testing.T) {
	cfg := smallCfg()
	fleet, err := GenerateFleet(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet.Paths) != cfg.Users {
		t.Fatalf("%d files for %d users", len(fleet.Paths), cfg.Users)
	}
	for i, path := range fleet.Paths {
		if f, err := trace.DetectFileFormat(path); err != nil || f != trace.FormatColumnar {
			t.Fatalf("%s: DetectFileFormat = %v, %v", path, f, err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		_, _, blocks, indexed, err := trace.ReadBlockIndex(f, st.Size())
		f.Close()
		if err != nil || !indexed || len(blocks) == 0 {
			t.Fatalf("%s: footer index: ok=%v, %d blocks, %v", path, indexed, len(blocks), err)
		}
		got, err := trace.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := GenerateDevice(cfg, i)
		if got.Device != want.Device || len(got.Records) != len(want.Records) {
			t.Fatalf("%s: device %q with %d records, want %q with %d",
				path, got.Device, len(got.Records), want.Device, len(want.Records))
		}
		for j := range want.Records {
			a, b := &want.Records[j], &got.Records[j]
			if a.Type != b.Type || a.TS != b.TS || a.App != b.App ||
				!bytes.Equal(a.Payload, b.Payload) {
				t.Fatalf("%s: record %d differs: %v vs %v", path, j, a, b)
			}
		}
	}
}

func TestVacationSilence(t *testing.T) {
	cfg := Small(1, 20)
	cfg.VacationProb = 1.0
	dt := GenerateDevice(cfg, 0)
	// Find the longest packet-free gap; a 2-7 day vacation must appear.
	var prev trace.Timestamp
	var maxGap float64
	first := true
	for i := range dt.Records {
		r := &dt.Records[i]
		if r.Type != trace.RecPacket {
			continue
		}
		if !first {
			if gap := r.TS.Sub(prev); gap > maxGap {
				maxGap = gap
			}
		}
		prev = r.TS
		first = false
	}
	if maxGap < 1.8*86400 {
		t.Errorf("max silent gap = %.1f days, want >= ~2 (vacation)", maxGap/86400)
	}
}
