package obs

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("x_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("x_total", "help"); again != c {
		t.Fatal("re-registration must return the same counter")
	}
	g := r.Gauge("depth", "")
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	r.GaugeFunc("computed", "", func() float64 { return 2.5 })
	r.CounterFunc("read_total", "", func() int64 { return 9 })

	snap := r.Snapshot()
	if snap.Counters["x_total"] != 5 || snap.Gauges["depth"] != 4 || snap.Gauges["computed"] != 2.5 || snap.Counters["read_total"] != 9 {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
}

func TestRegisterKindClashPanics(t *testing.T) {
	r := New()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind clash")
		}
	}()
	r.Gauge("m", "")
}

// observations is the number of values a snapshot counts, +Inf included.
func observations(s HistogramSnapshot) int64 {
	var n int64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

func TestHistogramObserveBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat_seconds", "", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 1, 1, 1} // <=0.01 x2 (bounds are inclusive), <=0.1, <=1, +Inf
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if n := observations(s); n != 5 {
		t.Fatalf("count = %d, want 5", n)
	}
	if got, want := s.Sum, 0.005+0.01+0.05+0.5+5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestWriteTextAndParseRoundtrip(t *testing.T) {
	r := New()
	r.Counter("ingest_records_total", "records accepted").Add(123)
	r.Counter(`ingest_errors_total{kind="crc"}`, "errors").Add(7)
	r.Gauge("ingest_conns_active", "open connections").Set(3)
	r.GaugeFunc("ingest_uptime_seconds", "uptime", func() float64 { return 1.5 })
	r.CounterFunc("ingest_evicted_total", "evicted", func() int64 { return 4 })
	h := r.Histogram("ingest_apply_latency_seconds", "queue latency", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE ingest_records_total counter",
		"ingest_records_total 123",
		`ingest_errors_total{kind="crc"} 7`,
		"# TYPE ingest_conns_active gauge",
		"ingest_conns_active 3",
		"ingest_uptime_seconds 1.5",
		"# TYPE ingest_evicted_total counter",
		"ingest_evicted_total 4",
		"# TYPE ingest_apply_latency_seconds histogram",
		`ingest_apply_latency_seconds_bucket{le="0.001"} 1`,
		`ingest_apply_latency_seconds_bucket{le="+Inf"} 2`,
		"ingest_apply_latency_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	parsed, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if parsed["ingest_records_total"] != 123 {
		t.Fatalf("parsed records = %v", parsed["ingest_records_total"])
	}
	if parsed[`ingest_errors_total{kind="crc"}`] != 7 {
		t.Fatalf("parsed labeled counter = %v", parsed[`ingest_errors_total{kind="crc"}`])
	}
	if parsed[`ingest_apply_latency_seconds_bucket{le="+Inf"}`] != 2 {
		t.Fatalf("parsed +Inf bucket = %v", parsed[`ingest_apply_latency_seconds_bucket{le="+Inf"}`])
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := New()
	c := r.Counter("c", "")
	h := r.Histogram("h", "", DurationBuckets())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j) * 1e-6)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := observations(h.Snapshot()); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestEventLogRingAndLevels(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 10; i++ {
		lv := LevelInfo
		if i%3 == 0 {
			lv = LevelWarn
		}
		l.Logf(lv, "event %d", i)
	}
	if got := l.Total(); got != 10 {
		t.Fatalf("total = %d, want 10", got)
	}
	recent := l.Recent(0, LevelDebug)
	if len(recent) != 4 {
		t.Fatalf("retained %d, want 4", len(recent))
	}
	if recent[0].Seq != 6 || recent[3].Seq != 9 {
		t.Fatalf("ring window wrong: %+v", recent)
	}
	if recent[3].Msg != "event 9" {
		t.Fatalf("newest msg = %q", recent[3].Msg)
	}
	warns := l.Recent(0, LevelWarn)
	for _, ev := range warns {
		if ev.Level < LevelWarn {
			t.Fatalf("level filter leaked %+v", ev)
		}
	}
	if l.Count(LevelWarn) != 4 { // events 0,3,6,9
		t.Fatalf("warn count = %d, want 4", l.Count(LevelWarn))
	}
	if got := l.Recent(2, LevelDebug); len(got) != 2 || got[1].Seq != 9 {
		t.Fatalf("max trim wrong: %+v", got)
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]Level{"": LevelDebug, "info": LevelInfo, "warn": LevelWarn, "warning": LevelWarn, "error": LevelError, "bogus": LevelDebug}
	for in, want := range cases {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestRegisterEventMetrics(t *testing.T) {
	r := New()
	l := NewEventLog(8)
	l.RegisterEventMetrics(r, "ingest_events_total", "events by level")
	l.Logf(LevelError, "boom")
	l.Logf(LevelError, "boom again")
	snap := r.Snapshot()
	if got := snap.Gauges[`ingest_events_total{level="error"}`]; got != 2 {
		t.Fatalf("error total = %v, want 2", got)
	}
}

// TestMetricsGuardedByCopylocks: nothing in this package stops a metric
// handle being copied by value — stock `go vet` copylocks does, and it
// guards exactly the types that hold, through struct fields and arrays (not
// slices or pointers), a value whose pointer is a sync.Locker while the
// value is not. Here that value is a sync/atomic type (its noCopy field);
// a metric rewritten over a plain integer would lose the guard silently.
func TestMetricsGuardedByCopylocks(t *testing.T) {
	locker := reflect.TypeOf((*sync.Locker)(nil)).Elem()
	var guarded func(reflect.Type) bool
	guarded = func(typ reflect.Type) bool {
		if reflect.PointerTo(typ).Implements(locker) && !typ.Implements(locker) {
			return true
		}
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if guarded(typ.Field(i).Type) {
					return true
				}
			}
		case reflect.Array:
			return guarded(typ.Elem())
		}
		return false
	}
	for _, m := range []any{Counter{}, Gauge{}, Histogram{}} {
		if typ := reflect.TypeOf(m); !guarded(typ) {
			t.Errorf("%v holds no sync/atomic value by value: go vet copylocks would not flag a copy of it", typ)
		}
	}
}
