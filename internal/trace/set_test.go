package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAppTableIntern(t *testing.T) {
	tab := NewAppTable()
	a := tab.Intern("com.foo")
	b := tab.Intern("com.bar")
	if a == b {
		t.Fatal("distinct names share an ID")
	}
	if tab.Intern("com.foo") != a {
		t.Error("Intern not idempotent")
	}
	if tab.Name(a) != "com.foo" || tab.Name(b) != "com.bar" {
		t.Error("Name lookup wrong")
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d", tab.Len())
	}
}

func TestAppTableRegisterSparse(t *testing.T) {
	tab := NewAppTable()
	tab.Register(5, "com.sparse")
	if tab.Name(5) != "com.sparse" {
		t.Errorf("Name(5) = %q", tab.Name(5))
	}
	if got := tab.Name(3); got != "app3" {
		t.Errorf("unregistered Name(3) = %q", got)
	}
	if tab.Name(99) != "app99" {
		t.Errorf("out-of-range Name = %q", tab.Name(99))
	}
}

func TestAppTableNamesCopy(t *testing.T) {
	tab := NewAppTable()
	tab.Intern("a")
	names := tab.Names()
	names[0] = "mutated"
	if tab.Name(0) != "a" {
		t.Error("Names must return a copy")
	}
}

func makeDeviceTrace() *DeviceTrace {
	dt := &DeviceTrace{Device: "dev-1", Start: 100, Apps: NewAppTable()}
	id := dt.Apps.Intern("com.example")
	dt.Records = []Record{
		{Type: RecAppName, TS: 100, App: id, AppName: "com.example"},
		{Type: RecPacket, TS: 300, App: id, Dir: DirUp, Net: NetCellular,
			State: StateForeground, Payload: []byte{1, 2, 3}},
		{Type: RecPacket, TS: 200, App: id, Dir: DirDown, Net: NetCellular,
			State: StateForeground, Payload: []byte{4, 5}},
		{Type: RecScreen, TS: 400, ScreenOn: true},
	}
	return dt
}

func TestDeviceTraceEncodeReadAll(t *testing.T) {
	dt := makeDeviceTrace()
	data, err := dt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Device != "dev-1" || got.Start != 100 {
		t.Errorf("header: %q %d", got.Device, got.Start)
	}
	if len(got.Records) != len(dt.Records) {
		t.Fatalf("records: %d vs %d", len(got.Records), len(dt.Records))
	}
	if got.Apps.Name(0) != "com.example" {
		t.Errorf("app table not rebuilt: %q", got.Apps.Name(0))
	}
	// Payload must be an owned copy (valid beyond reader lifetime).
	if !bytes.Equal(got.Records[1].Payload, []byte{1, 2, 3}) {
		t.Errorf("payload = %v", got.Records[1].Payload)
	}
}

func TestSortByTime(t *testing.T) {
	dt := makeDeviceTrace()
	dt.SortByTime()
	for i := 1; i < len(dt.Records); i++ {
		if dt.Records[i].TS < dt.Records[i-1].TS {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestPacketsIndices(t *testing.T) {
	dt := makeDeviceTrace()
	idx := dt.Packets()
	if len(idx) != 2 || idx[0] != 1 || idx[1] != 2 {
		t.Errorf("Packets = %v", idx)
	}
}

func TestExportNDJSON(t *testing.T) {
	dt := makeDeviceTrace()
	var buf bytes.Buffer
	if err := dt.ExportNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(dt.Records) {
		t.Fatalf("%d lines for %d records", len(lines), len(dt.Records))
	}
	if !strings.Contains(lines[1], `"type":"packet"`) || !strings.Contains(lines[1], `"app":"com.example"`) {
		t.Errorf("packet line = %s", lines[1])
	}
	if !strings.Contains(lines[3], `"screen_on":true`) {
		t.Errorf("screen line = %s", lines[3])
	}
}

func TestFleetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"u01", "u02"} {
		dt := makeDeviceTrace()
		dt.Device = name
		data, err := dt.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name+".metr"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fleet, err := OpenFleet(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet.Paths) != 2 {
		t.Fatalf("paths = %v", fleet.Paths)
	}
	var devices []string
	err = fleet.EachDevice(func(dt *DeviceTrace) error {
		devices = append(devices, dt.Device)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(devices) != 2 || devices[0] != "u01" || devices[1] != "u02" {
		t.Errorf("devices = %v", devices)
	}
}

func TestOpenFleetEmpty(t *testing.T) {
	if _, err := OpenFleet(t.TempDir()); err == nil {
		t.Error("empty dir should error")
	}
}

func TestTimestampHelpers(t *testing.T) {
	ts := Timestamp(86400_000_000 + 500_000) // day 1 + 0.5 s
	if ts.Day() != 1 {
		t.Errorf("Day = %d", ts.Day())
	}
	if ts.Seconds() != 86400.5 {
		t.Errorf("Seconds = %v", ts.Seconds())
	}
	if got := ts.AddSeconds(1.5); got != ts+1_500_000 {
		t.Errorf("AddSeconds = %d", got)
	}
	if d := ts.Sub(ts - 2_000_000); d != 2 {
		t.Errorf("Sub = %v", d)
	}
	tm := ts.Time()
	if TimestampOf(tm) != ts {
		t.Error("TimestampOf(Time()) not identity")
	}
}

func TestProcStateClassification(t *testing.T) {
	fg := []ProcState{StateForeground, StateVisible}
	bg := []ProcState{StatePerceptible, StateService, StateBackground}
	for _, s := range fg {
		if !s.IsForeground() || s.IsBackground() {
			t.Errorf("%v misclassified", s)
		}
	}
	for _, s := range bg {
		if s.IsForeground() || !s.IsBackground() {
			t.Errorf("%v misclassified", s)
		}
	}
	if StateUnknown.IsForeground() || StateUnknown.IsBackground() {
		t.Error("unknown state should be neither")
	}
	if len(AllStates) != 5 {
		t.Errorf("AllStates = %v", AllStates)
	}
}

func TestStringers(t *testing.T) {
	if StateService.String() != "service" || StateUnknown.String() != "unknown" {
		t.Error("ProcState.String wrong")
	}
	if DirUp.String() != "up" || DirDown.String() != "down" {
		t.Error("Direction.String wrong")
	}
	if NetCellular.String() != "cellular" || NetWiFi.String() != "wifi" {
		t.Error("Network.String wrong")
	}
	if RecPacket.String() != "packet" || RecInvalid.String() != "invalid" {
		t.Error("RecordType.String wrong")
	}
	r := Record{Type: RecPacket, TS: 5, App: 2, Payload: []byte{1}}
	if !strings.Contains(r.String(), "packet") {
		t.Errorf("Record.String = %q", r.String())
	}
}

func TestWindow(t *testing.T) {
	dt := &DeviceTrace{Device: "d", Start: 0, Apps: NewAppTable()}
	a := dt.Apps.Intern("com.a")
	dt.Records = []Record{
		{Type: RecAppName, App: a, AppName: "com.a"},
		{Type: RecPacket, TS: 10, App: a, Payload: []byte{1}},
		{Type: RecPacket, TS: 20, App: a, Payload: []byte{2}},
		{Type: RecPacket, TS: 30, App: a, Payload: []byte{3}},
	}
	got := dt.Window(15, 30)
	// appname + packet@20 only.
	if len(got.Records) != 2 {
		t.Fatalf("records = %v", got.Records)
	}
	if got.Start != 15 {
		t.Errorf("start = %d", got.Start)
	}
}
