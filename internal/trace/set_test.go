package trace

import (
	"bytes"
	"fmt"
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

// TestAppTableFarIDs: an id far past the registered names is held apart
// from the dense range, resolves both ways, moves into the dense range once
// enough names justify it, and never collides with an Intern.
func TestAppTableFarIDs(t *testing.T) {
	tab := NewAppTable()
	tab.Register(5, "com.sparse")
	tab.Register(1<<32-1, "com.top")
	tab.Register(100, "com.hundred")
	if tab.Len() != 6 || tab.Name(1<<32-1) != "com.top" || tab.Name(100) != "com.hundred" {
		t.Fatalf("Len = %d, Name(2^32-1) = %q, Name(100) = %q", tab.Len(), tab.Name(1<<32-1), tab.Name(100))
	}
	if id, ok := tab.Lookup("com.top"); !ok || id != 1<<32-1 {
		t.Errorf("Lookup(com.top) = %d, %v", id, ok)
	}
	if _, ok := tab.Lookup("com.absent"); ok {
		t.Error("Lookup found a name never registered")
	}
	// Enough names that the dense range may reach past 100: it takes the
	// far id in on the way.
	for i := uint32(6); i <= 40; i++ {
		tab.Register(i, fmt.Sprintf("com.n%d", i))
	}
	tab.Register(101, "com.next")
	if tab.Len() != 102 || tab.Names()[100] != "com.hundred" || tab.Names()[99] != "" {
		t.Fatalf("after growing: Len = %d, Names()[99:] = %q", tab.Len(), tab.Names()[99:])
	}
	if id, ok := tab.Lookup("com.hundred"); !ok || id != 100 || tab.Name(77) != "app77" {
		t.Errorf("Lookup(com.hundred) = %d, %v; Name(77) = %q", id, ok, tab.Name(77))
	}
	// Re-registering an id keeps the last name; the old one no longer
	// resolves to it.
	tab.Register(7, "com.renamed")
	if _, ok := tab.Lookup("com.n7"); ok || tab.Name(7) != "com.renamed" {
		t.Errorf("after re-registering 7: Name = %q, com.n7 still resolves %v", tab.Name(7), ok)
	}
	if _, ok := tab.Lookup(""); ok {
		t.Error(`Lookup("") resolved`)
	}
	// Intern goes past the highest id in the table, dense or far.
	wide := NewAppTable()
	wide.Register(1<<20, "com.far")
	if id := wide.Intern("com.new"); id != 1<<20+1 || wide.Name(1<<20) != "com.far" {
		t.Errorf("Intern after a far id = %d, Name(far) = %q", id, wide.Name(1<<20))
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
