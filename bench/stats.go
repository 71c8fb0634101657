package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the value is one or two outliers, not a tail.
const minBeyond = 10

// tailLadder is the set of tail percentiles a timing may report, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for an empty sample.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of an ascending sample.
// It refuses a percentile with fewer than minBeyond samples beyond it.
func percentile(asc []float64, p float64) (float64, error) {
	n := len(asc)
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g out of range", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	return asc[rank-1], nil
}

// tailOf reports the highest ladder percentile at or below limit that the
// sample supports, and which one that was. A sample too small for any
// ladder step reports its maximum as p100 — the honest reading of "we saw
// nothing slower", used by the scaled-down smoke runs and by batch_study,
// whose handful of repetitions supports no percentile.
func tailOf(xs []float64, limit float64) (value, p float64) {
	asc := sorted(xs)
	for _, step := range tailLadder {
		if step > limit {
			continue
		}
		if v, err := percentile(asc, step); err == nil {
			return v, step
		}
	}
	if len(asc) == 0 {
		return 0, 100
	}
	return asc[len(asc)-1], 100
}

// relClose reports |a-b| <= tol*(1+|b|).
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(b))
}
