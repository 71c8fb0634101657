package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"netenergy/internal/rng"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 4})
	cases := []struct {
		x, want float64
	}{
		{0, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); got != tc.want {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(1) != 0 || c.Quantile(0.5) != 0 {
		t.Error("empty CDF should return zeros everywhere")
	}
	xs, ps := c.Points(10)
	if xs != nil || ps != nil {
		t.Error("empty CDF Points should be nil")
	}
}

func TestCDFDoesNotMutateInput(t *testing.T) {
	in := []float64{5, 1, 3}
	NewCDF(in)
	if in[0] != 5 || in[1] != 1 || in[2] != 3 {
		t.Errorf("input mutated: %v", in)
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if got := c.Quantile(0); got != 10 {
		t.Errorf("q0 = %v", got)
	}
	if got := c.Quantile(1); got != 50 {
		t.Errorf("q1 = %v", got)
	}
	if got := c.Quantile(0.5); got != 30 {
		t.Errorf("median = %v", got)
	}
	if got := c.Quantile(0.25); got != 20 {
		t.Errorf("q25 = %v", got)
	}
	// Interpolated quantile.
	if got := c.Quantile(0.375); math.Abs(got-25) > 1e-9 {
		t.Errorf("q37.5 = %v, want 25", got)
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	src := rng.New(1)
	f := func(seedDelta uint8) bool {
		n := 1 + int(seedDelta)%64
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = src.Float64() * 1000
		}
		c := NewCDF(xs)
		prev := -1.0
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := c.At(c.Quantile(q))
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		// At() itself monotone in x.
		prevAt := -1.0
		lo, hi := c.sorted[0], c.sorted[len(c.sorted)-1]
		for x := lo - 1; x <= hi+1; x += (hi - lo + 2) / 37 {
			v := c.At(x)
			if v < prevAt-1e-12 {
				return false
			}
			prevAt = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	xs, ps := c.Points(5)
	if len(xs) != 5 || len(ps) != 5 {
		t.Fatalf("want 5 points, got %d/%d", len(xs), len(ps))
	}
	if !sort.Float64sAreSorted(xs) || !sort.Float64sAreSorted(ps) {
		t.Errorf("points not sorted: %v %v", xs, ps)
	}
	if ps[len(ps)-1] != 1 {
		t.Errorf("last p = %v, want 1", ps[len(ps)-1])
	}
}

func TestMeanSumVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Sum(xs) != 40 {
		t.Errorf("Sum = %v", Sum(xs))
	}
	if Sum(nil) != 0 {
		t.Error("empty input should sum to 0")
	}
}

func TestMedian(t *testing.T) {
	if Median([]float64{3, 1, 2}) != 2 {
		t.Error("odd median wrong")
	}
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Error("even median wrong")
	}
}

func TestTimeBins(t *testing.T) {
	tb := NewTimeBins(10, 6) // 60 seconds in 10 s bins
	tb.Add(0, 5)
	tb.Add(9.99, 5)
	tb.Add(10, 1)
	tb.Add(59.9, 2)
	tb.Add(60, 100) // dropped
	tb.Add(-1, 100) // dropped
	ts, vs := tb.Series()
	if len(ts) != 6 {
		t.Fatalf("series length %d", len(ts))
	}
	if vs[0] != 10 || vs[1] != 1 || vs[5] != 2 {
		t.Errorf("vals = %v", vs)
	}
	if ts[3] != 30 {
		t.Errorf("ts[3] = %v", ts[3])
	}
	if Sum(vs) != 13 {
		t.Errorf("out-of-range samples leaked: %v", vs)
	}
}

func TestTopK(t *testing.T) {
	m := map[string]float64{"a": 1, "b": 5, "c": 3, "d": 5}
	got := TopK(m, 3)
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	// Ties broken by key: b before d.
	if got[0].Key != "b" || got[1].Key != "d" || got[2].Key != "c" {
		t.Errorf("order = %v", got)
	}
	all := TopK(m, 0)
	if len(all) != 4 {
		t.Errorf("k=0 should return all, got %d", len(all))
	}
}
