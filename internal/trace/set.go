package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// AppTable maps collector app IDs to package names and back. The generator
// fills one per device; the reader rebuilds it from RecAppName records.
//
// An ID read from disk can be anything up to 2^32-1, so no ID sizes the
// table: IDs are held densely only while at most about half the dense range
// would be gaps (denseSlack beyond twice the names registered), and any
// other ID is held in a map. A table filled by Intern, or by Register with
// IDs from 0 up, is all dense.
type AppTable struct {
	names []string          // IDs 0..len(names)-1; "" is unregistered
	far   map[uint32]string // registered IDs past the dense range
	top   uint64            // one past the highest far ID
	ids   map[string]uint32
}

// denseSlack is how far past twice its registered names the dense range
// may grow: room for a few gaps in a small table.
const denseSlack = 64

// NewAppTable returns an empty table.
func NewAppTable() *AppTable {
	return &AppTable{ids: make(map[string]uint32)}
}

// Intern returns the ID for name, registering it if new as one past the
// highest ID in the table.
func (t *AppTable) Intern(name string) uint32 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := uint32(max(uint64(len(t.names)), t.top))
	t.Register(id, name)
	return id
}

// Register records an explicit (id, name) pair from a RecAppName record.
// Sparse IDs within the dense range leave unregistered names in between.
func (t *AppTable) Register(id uint32, name string) {
	t.ids[name] = id
	switch n := uint64(len(t.names)); {
	case uint64(id) < n:
		t.names[id] = name
	case uint64(id) < 2*uint64(len(t.ids))+denseSlack:
		// Far IDs the dense range now reaches move into it.
		for i := uint32(n); i < id; i++ {
			t.names = append(t.names, t.far[i])
			delete(t.far, i)
		}
		delete(t.far, id)
		t.names = append(t.names, name)
	default:
		if t.far == nil {
			t.far = make(map[uint32]string)
		}
		t.far[id] = name
		t.top = max(t.top, uint64(id)+1)
	}
}

// Lookup returns the ID name is registered under: the latest ID registered
// with it, while that ID still carries it. It is how a package name is
// resolved on a device, whatever the IDs.
func (t *AppTable) Lookup(name string) (uint32, bool) {
	id, ok := t.ids[name]
	if !ok || name == "" || t.registered(id) != name {
		return 0, false
	}
	return id, true
}

func (t *AppTable) registered(id uint32) string {
	if int64(id) < int64(len(t.names)) {
		return t.names[id]
	}
	return t.far[id]
}

// Name returns the package name for id, or "app<id>" if unregistered.
func (t *AppTable) Name(id uint32) string {
	if name := t.registered(id); name != "" {
		return name
	}
	return fmt.Sprintf("app%d", id)
}

// Len returns the number of IDs in the dense range, 0..Len()-1: for a
// dense table, the number of registered names.
func (t *AppTable) Len() int { return len(t.names) }

// Names returns the names of the dense range in ID order.
func (t *AppTable) Names() []string {
	out := make([]string, len(t.names))
	copy(out, t.names)
	return out
}

// DeviceTrace is an in-memory trace for one device: the decoded records
// plus the app table. Small studies and tests use it directly; the full
// pipeline streams instead.
type DeviceTrace struct {
	Device  string
	Start   Timestamp
	Apps    *AppTable
	Records []Record

	// pooled is set when Records (and the arena its payloads alias) were
	// drawn from the indexed reader's buffer pool; Recycle returns them.
	pooled *decodeArena
}

// Recycle returns the trace's decode buffers to the internal pool so the
// next indexed read (ReadFile, ReadFileParallel) can reuse them without
// reallocating or re-zeroing. After Recycle the trace's Records — including
// their payloads — are invalid; the app table and header fields stay
// usable. Calling it on a trace that owns its records (a streamed read,
// a synthetic trace) is a no-op, and a trace that is never recycled simply
// keeps its buffers until it is garbage. Pipelines that fold a trace into
// accumulators and move on, like core.OpenParallel, call this so that the
// memory in flight is one record slice and one arena per worker, however
// many files go by.
func (d *DeviceTrace) Recycle() {
	p := d.pooled
	if p == nil {
		return
	}
	d.pooled = nil
	d.Records = nil
	decodeArenaPool.Put(p)
}

// ReadAll reads an entire METR stream into memory, copying packet payloads.
// It is the decoder for streams and for files without a footer index;
// files are read through ReadFile.
func ReadAll(r io.Reader) (*DeviceTrace, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	dt := &DeviceTrace{Device: tr.Device(), Start: tr.Start(), Apps: NewAppTable()}
	for {
		rec, err := tr.Next()
		if err == io.EOF {
			return dt, nil
		}
		if err != nil {
			return nil, err
		}
		cp := *rec
		if rec.Type == RecPacket {
			cp.Payload = append([]byte(nil), rec.Payload...)
		}
		if rec.Type == RecAppName {
			dt.Apps.Register(rec.App, rec.AppName)
		}
		dt.Records = append(dt.Records, cp)
	}
}

// ReadFile reads a METR file from disk: ReadFileParallel on the calling
// goroutine alone.
func ReadFile(path string) (*DeviceTrace, error) { return ReadFileParallel(path, 1) }

// Serialize writes the whole DeviceTrace as a flat METR1 stream — the
// in-memory and wire-adjacent form; files on disk are SerializeColumnar's.
func (dt *DeviceTrace) Serialize(w io.Writer) error {
	tw, err := NewWriter(w, dt.Device, dt.Start)
	if err != nil {
		return err
	}
	for i := range dt.Records {
		if err := tw.Write(&dt.Records[i]); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// SerializeColumnar writes the trace in the METR-3 columnar container, the
// form every trace file is written in. Records must be in time order
// (ErrOutOfOrder otherwise).
func (dt *DeviceTrace) SerializeColumnar(w io.Writer) error {
	cw, err := NewColumnWriter(w, dt.Device, dt.Start)
	if err != nil {
		return err
	}
	for i := range dt.Records {
		if err := cw.Write(&dt.Records[i]); err != nil {
			return err
		}
	}
	return cw.Flush()
}

// DetectFileFormat sniffs the container format of a trace file from its
// magic bytes and header without decoding any record.
func DetectFileFormat(path string) (Format, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		return 0, err
	}
	return r.Format(), nil
}

// Encode serialises the trace to a byte slice in the flat stream form.
func (dt *DeviceTrace) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := dt.Serialize(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SortByTime stably sorts records by timestamp. Generators emitting from
// several app models call this before writing.
func (dt *DeviceTrace) SortByTime() {
	sort.SliceStable(dt.Records, func(i, j int) bool {
		return dt.Records[i].TS < dt.Records[j].TS
	})
}

// Packets returns the indices of packet records, in order.
func (dt *DeviceTrace) Packets() []int {
	var out []int
	for i := range dt.Records {
		if dt.Records[i].Type == RecPacket {
			out = append(out, i)
		}
	}
	return out
}

// jsonRecord is the NDJSON export shape.
type jsonRecord struct {
	Type   string  `json:"type"`
	TS     int64   `json:"ts_us"`
	App    string  `json:"app,omitempty"`
	Dir    string  `json:"dir,omitempty"`
	Net    string  `json:"net,omitempty"`
	State  string  `json:"state,omitempty"`
	Bytes  int     `json:"bytes,omitempty"`
	UIKind uint8   `json:"ui_kind,omitempty"`
	On     *bool   `json:"screen_on,omitempty"`
	Sec    float64 `json:"t_rel_s"`
}

// ExportNDJSON writes one JSON object per record, for inspection with
// standard text tooling. Packet payload bytes are summarised by length.
func (dt *DeviceTrace) ExportNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range dt.Records {
		r := &dt.Records[i]
		jr := jsonRecord{Type: r.Type.String(), TS: int64(r.TS), Sec: r.TS.Sub(dt.Start)}
		switch r.Type {
		case RecPacket:
			jr.App = dt.Apps.Name(r.App)
			jr.Dir = r.Dir.String()
			jr.Net = r.Net.String()
			jr.State = r.State.String()
			jr.Bytes = len(r.Payload)
		case RecProcState:
			jr.App = dt.Apps.Name(r.App)
			jr.State = r.State.String()
		case RecUIEvent:
			jr.App = dt.Apps.Name(r.App)
			jr.UIKind = uint8(r.UIKind)
		case RecScreen:
			on := r.ScreenOn
			jr.On = &on
		case RecAppName:
			jr.App = r.AppName
		}
		if err := enc.Encode(jr); err != nil {
			return err
		}
	}
	return nil
}

// Fleet is a set of device trace files comprising one study dataset.
type Fleet struct {
	Dir   string
	Paths []string // sorted METR file paths
}

// OpenFleet lists the *.metr files in dir.
func OpenFleet(dir string) (*Fleet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.metr"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("trace: no .metr files in %s", dir)
	}
	sort.Strings(paths)
	return &Fleet{Dir: dir, Paths: paths}, nil
}

// EachDevice loads each device trace in turn and invokes fn, one trace in
// memory at a time so a fleet larger than memory still processes: dt's
// Records and payloads are valid only inside fn (the decode buffers are
// recycled for the next file when it returns), so fn copies what it keeps.
func (f *Fleet) EachDevice(fn func(dt *DeviceTrace) error) error {
	for _, p := range f.Paths {
		dt, err := ReadFile(p)
		if err != nil {
			return fmt.Errorf("trace: reading %s: %w", p, err)
		}
		err = fn(dt)
		dt.Recycle()
		if err != nil {
			return err
		}
	}
	return nil
}
