// Package stats provides the small statistical toolkit the study analyses
// rely on: empirical CDFs, quantiles, fixed-width histograms, time-series
// binning and top-k selection. All functions are
// deterministic and allocation-conscious; none of them mutate their inputs
// unless documented.
package stats

import (
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution over float64 samples.
// Construct with NewCDF; the zero value is an empty distribution.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples. The input slice is copied.
func NewCDF(samples []float64) *CDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X <= x), i.e. the fraction of samples <= x.
// An empty CDF returns 0.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Index of first element > x.
	i := sort.SearchFloat64s(c.sorted, x)
	for i < len(c.sorted) && c.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile (q in [0,1]) using nearest-rank with
// linear interpolation. An empty CDF returns 0.
func (c *CDF) Quantile(q float64) float64 {
	n := len(c.sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return c.sorted[lo]
	}
	frac := pos - float64(lo)
	return c.sorted[lo]*(1-frac) + c.sorted[hi]*frac
}

// Points returns up to n evenly spaced (x, P(X<=x)) points suitable for
// plotting the CDF curve. Fewer points are returned if there are fewer
// samples. The returned slices are freshly allocated.
func (c *CDF) Points(n int) (xs, ps []float64) {
	m := len(c.sorted)
	if m == 0 || n <= 0 {
		return nil, nil
	}
	if n > m {
		n = m
	}
	xs = make([]float64, n)
	ps = make([]float64, n)
	for i := 0; i < n; i++ {
		idx := i * (m - 1) / maxInt(n-1, 1)
		xs[i] = c.sorted[idx]
		ps[i] = float64(idx+1) / float64(m)
	}
	return xs, ps
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Median returns the median of xs without mutating it.
func Median(xs []float64) float64 { return NewCDF(xs).Quantile(0.5) }

// Histogram is a fixed-width histogram over [Min, Max) with uniform bins.
type Histogram struct {
	Min, Max float64
	Counts   []uint64
	// Under and Over count samples outside [Min, Max).
	Under, Over uint64
	total       uint64
}

// NewHistogram creates a histogram with nbins uniform bins covering
// [min, max). It panics if nbins <= 0 or max <= min.
func NewHistogram(min, max float64, nbins int) *Histogram {
	if nbins <= 0 {
		panic("stats: NewHistogram with non-positive bin count")
	}
	if max <= min {
		panic("stats: NewHistogram with max <= min")
	}
	return &Histogram{Min: min, Max: max, Counts: make([]uint64, nbins)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Min:
		h.Under++
	case x >= h.Max:
		h.Over++
	default:
		i := int((x - h.Min) / (h.Max - h.Min) * float64(len(h.Counts)))
		if i >= len(h.Counts) { // guard float rounding at the upper edge
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// Total returns the number of samples recorded, including out-of-range ones.
func (h *Histogram) Total() uint64 { return h.total }

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 { return (h.Max - h.Min) / float64(len(h.Counts)) }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Min + (float64(i)+0.5)*h.BinWidth()
}

// MaxBin returns the index of the fullest bin (-1 if all bins are empty).
func (h *Histogram) MaxBin() int {
	best, idx := uint64(0), -1
	for i, c := range h.Counts {
		if c > best {
			best, idx = c, i
		}
	}
	return idx
}

// TimeBins accumulates a value series into fixed-duration bins indexed from
// a shared origin. It is used for "bytes per 10-second bin since event X"
// style figures.
type TimeBins struct {
	Width float64 // bin width in seconds
	Vals  []float64
}

// NewTimeBins creates n bins of the given width (seconds).
func NewTimeBins(width float64, n int) *TimeBins {
	if width <= 0 || n <= 0 {
		panic("stats: NewTimeBins with non-positive width or count")
	}
	return &TimeBins{Width: width, Vals: make([]float64, n)}
}

// Add accumulates v at offset seconds from the origin. Samples beyond the
// last bin or before 0 are dropped (they belong to the figure's cropped
// region).
func (tb *TimeBins) Add(offset, v float64) {
	if offset < 0 {
		return
	}
	i := int(offset / tb.Width)
	if i >= len(tb.Vals) {
		return
	}
	tb.Vals[i] += v
}

// Series returns (binStartSeconds, value) pairs for the whole range.
func (tb *TimeBins) Series() (ts, vs []float64) {
	ts = make([]float64, len(tb.Vals))
	vs = make([]float64, len(tb.Vals))
	for i := range tb.Vals {
		ts[i] = float64(i) * tb.Width
		vs[i] = tb.Vals[i]
	}
	return ts, vs
}

// KV is a generic labelled value used by Top-K selections.
type KV struct {
	Key string
	Val float64
}

// TopK returns the k largest entries of m by value, descending; ties broken
// by key for determinism. k <= 0 returns all entries sorted.
func TopK(m map[string]float64, k int) []KV {
	out := make([]KV, 0, len(m))
	for key, v := range m {
		out = append(out, KV{key, v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Val != out[j].Val {
			return out[i].Val > out[j].Val
		}
		return out[i].Key < out[j].Key
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
