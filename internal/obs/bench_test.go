package obs

import (
	"testing"
)

// TestObserveAllocFree is the zero-allocation instrumentation policy,
// enforced: every counter, gauge and histogram update the hot path makes
// must never allocate. (DESIGN.md documents the policy; this test is the
// gate.)
func TestObserveAllocFree(t *testing.T) {
	r := New()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", DurationBuckets())
	var v float64
	for _, op := range []struct {
		name string
		f    func()
	}{
		{"Counter.Inc", c.Inc},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(9) }},
		{"Gauge.Add", func() { g.Add(-2) }},
		{"Histogram.Observe", func() { h.Observe(v); v += 1e-5 }},
	} {
		if n := testing.AllocsPerRun(1000, op.f); n != 0 {
			t.Errorf("%s allocates %v/op", op.name, n)
		}
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := New().Counter("c", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := New().Histogram("h", "", DurationBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := New().Histogram("h", "", DurationBuckets())
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := 1e-5
		for pb.Next() {
			h.Observe(v)
		}
	})
}
