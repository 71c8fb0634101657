package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded only
// in the traced run, kept in memory, and written out when the run ends.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"` // since the tracer was created
	EndNS    int64  `json:"end_ns"`
}

// tracer collects spans. A nil tracer records nothing, so call sites need
// no branches and the untraced run pays one nil check per boundary.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// start opens a span under parent and returns its id and the function that
// closes it.
func (t *tracer) start(name string, parent int) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	begin := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{Parent: parent, Name: name, Workload: t.workload, StartNS: int64(begin)})
	id := len(t.spans)
	t.spans[id-1].ID = id
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans[id-1].EndNS = int64(end)
		t.mu.Unlock()
	}
}

// layerTime is the aggregate of every span with one name.
type layerTime struct {
	Name   string
	Count  int
	Total  time.Duration
	Self   time.Duration // total minus the time covered by child spans
	Parent string
}

// selfTimes derives, per span name, the total time and the self time: a
// span's duration minus the part of it its direct children cover.
func (t *tracer) selfTimes() []layerTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			covered[s.Parent] += s.EndNS - s.StartNS
		}
	}
	by := map[string]*layerTime{}
	var names []string
	for _, s := range t.spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			if s.Parent > 0 {
				lt.Parent = t.spans[s.Parent-1].Name
			}
			by[s.Name] = lt
			names = append(names, s.Name)
		}
		d := s.EndNS - s.StartNS
		lt.Count++
		lt.Total += time.Duration(d)
		if self := d - covered[s.ID]; self > 0 {
			lt.Self += time.Duration(self)
		}
	}
	sort.Strings(names)
	out := make([]layerTime, 0, len(names))
	for _, n := range names {
		out = append(out, *by[n])
	}
	return out
}

// write dumps the spans as JSON to dir/trace.json.
func (t *tracer) write(dir string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), b, 0o644)
}
