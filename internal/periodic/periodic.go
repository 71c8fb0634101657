// Package periodic detects periodic structure in packet and burst timings:
// burst segmentation, dominant update-period estimation (Table 1's "update
// frequency" column) and spike scoring for binned series (Figure 6's 5- and
// 10-minute peaks).
package periodic

import (
	"math"
	"sort"

	"netenergy/internal/stats"
)

// Bursts groups sorted event times (seconds) into bursts: consecutive
// events closer than gap seconds belong to the same burst. It returns the
// start time of each burst. Unsorted input is sorted in a copy.
func Bursts(times []float64, gap float64) []float64 {
	if len(times) == 0 {
		return nil
	}
	ts := make([]float64, len(times))
	copy(ts, times)
	sort.Float64s(ts)
	out := []float64{ts[0]}
	last := ts[0]
	for _, t := range ts[1:] {
		if t-last > gap {
			out = append(out, t)
		}
		last = t
	}
	return out
}

// Intervals returns the successive differences of sorted times.
func Intervals(times []float64) []float64 {
	if len(times) < 2 {
		return nil
	}
	ts := make([]float64, len(times))
	copy(ts, times)
	sort.Float64s(ts)
	out := make([]float64, len(ts)-1)
	for i := 1; i < len(ts); i++ {
		out[i-1] = ts[i] - ts[i-1]
	}
	return out
}

// Period is a detected dominant period.
type Period struct {
	Seconds  float64 // the dominant inter-burst interval
	Strength float64 // fraction of intervals within ±25% of the period
	Samples  int     // number of intervals examined
}

// IsPeriodic reports whether the detection is confident: at least 5
// intervals with more than half clustered around the dominant value.
func (p Period) IsPeriodic() bool { return p.Samples >= 5 && p.Strength > 0.5 }

// DominantPeriod estimates the dominant inter-burst interval of the given
// burst start times using the median interval as a robust location
// estimate, then measures how tightly intervals cluster around it.
//
// The median tolerates the occasional long gap (app killed overnight, days
// of disuse) that would wreck a mean; the paper's case studies show
// exactly such patterns ("background applications may be forced to close
// for a variety of reasons").
func DominantPeriod(burstTimes []float64) Period {
	iv := Intervals(burstTimes)
	if len(iv) == 0 {
		return Period{}
	}
	med := stats.Median(iv)
	if med <= 0 {
		return Period{Samples: len(iv)}
	}
	in := 0
	for _, v := range iv {
		if v >= 0.75*med && v <= 1.25*med {
			in++
		}
	}
	return Period{
		Seconds:  med,
		Strength: float64(in) / float64(len(iv)),
		Samples:  len(iv),
	}
}

// SpikeScore measures how much series[idx] stands out from its local
// neighbourhood: value divided by the mean of the window values on either
// side (excluding idx itself, and excluding the immediate neighbours so a
// wide peak still scores). A score well above 1 indicates a spike. Returns
// 0 for out-of-range indexes or an empty neighbourhood.
func SpikeScore(series []float64, idx, window int) float64 {
	if idx < 0 || idx >= len(series) || window <= 1 {
		return 0
	}
	var sum float64
	var n int
	for off := 2; off <= window; off++ {
		if i := idx - off; i >= 0 {
			sum += series[i]
			n++
		}
		if i := idx + off; i < len(series) {
			sum += series[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	mean := sum / float64(n)
	if mean == 0 {
		if series[idx] > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return series[idx] / mean
}
