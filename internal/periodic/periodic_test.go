package periodic

import (
	"math"
	"testing"

	"netenergy/internal/rng"
)

func TestBursts(t *testing.T) {
	times := []float64{0, 0.1, 0.2, 10, 10.5, 30}
	b := Bursts(times, 1.0)
	want := []float64{0, 10, 30}
	if len(b) != len(want) {
		t.Fatalf("bursts = %v", b)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Errorf("burst %d = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestBurstsUnsortedInput(t *testing.T) {
	in := []float64{30, 0, 10, 0.1}
	b := Bursts(in, 1.0)
	if len(b) != 3 || b[0] != 0 {
		t.Errorf("bursts = %v", b)
	}
	// Input must not be mutated.
	if in[0] != 30 {
		t.Error("input mutated")
	}
}

func TestBurstsEmpty(t *testing.T) {
	if Bursts(nil, 1) != nil {
		t.Error("empty input should return nil")
	}
	if got := Bursts([]float64{5}, 1); len(got) != 1 || got[0] != 5 {
		t.Errorf("single event = %v", got)
	}
}

func TestIntervals(t *testing.T) {
	iv := Intervals([]float64{10, 0, 30})
	if len(iv) != 2 || iv[0] != 10 || iv[1] != 20 {
		t.Errorf("intervals = %v", iv)
	}
	if Intervals([]float64{1}) != nil {
		t.Error("single point has no intervals")
	}
}

func TestDominantPeriodClean(t *testing.T) {
	// Strict 300 s periodic bursts (a 5-minute poller like Weibo).
	var times []float64
	for i := 0; i < 50; i++ {
		times = append(times, float64(i)*300)
	}
	p := DominantPeriod(times)
	if math.Abs(p.Seconds-300) > 1e-9 {
		t.Errorf("period = %v", p.Seconds)
	}
	if p.Strength != 1 || !p.IsPeriodic() {
		t.Errorf("strength = %v periodic=%v", p.Strength, p.IsPeriodic())
	}
}

func TestDominantPeriodJittered(t *testing.T) {
	src := rng.New(7)
	var times []float64
	tm := 0.0
	for i := 0; i < 100; i++ {
		tm += src.Jitter(600, 0.15) // 10 min ± 15%
		times = append(times, tm)
	}
	p := DominantPeriod(times)
	if p.Seconds < 500 || p.Seconds > 700 {
		t.Errorf("period = %v, want ~600", p.Seconds)
	}
	if !p.IsPeriodic() {
		t.Errorf("jittered periodic traffic not detected: %+v", p)
	}
}

func TestDominantPeriodWithOutliers(t *testing.T) {
	// Periodic 300 s polling with two multi-hour gaps (app killed): the
	// median-based estimate must still find 300 s.
	var times []float64
	tm := 0.0
	for i := 0; i < 60; i++ {
		if i == 20 || i == 40 {
			tm += 4 * 3600
		} else {
			tm += 300
		}
		times = append(times, tm)
	}
	p := DominantPeriod(times)
	if math.Abs(p.Seconds-300) > 1 {
		t.Errorf("period with outliers = %v", p.Seconds)
	}
}

func TestDominantPeriodAperiodic(t *testing.T) {
	src := rng.New(8)
	var times []float64
	tm := 0.0
	for i := 0; i < 100; i++ {
		tm += src.Exp(120) // Poisson arrivals: exponential gaps
		times = append(times, tm)
	}
	p := DominantPeriod(times)
	if p.IsPeriodic() {
		t.Errorf("Poisson arrivals classified periodic: %+v", p)
	}
}

func TestDominantPeriodDegenerate(t *testing.T) {
	if p := DominantPeriod(nil); p.Seconds != 0 || p.IsPeriodic() {
		t.Errorf("nil input: %+v", p)
	}
	// All-identical timestamps: zero median interval.
	p := DominantPeriod([]float64{5, 5, 5, 5, 5, 5, 5})
	if p.IsPeriodic() {
		t.Errorf("zero-interval input classified periodic: %+v", p)
	}
}

func TestSpikeScore(t *testing.T) {
	series := make([]float64, 100)
	for i := range series {
		series[i] = 10
	}
	series[50] = 100
	if s := SpikeScore(series, 50, 5); s < 8 {
		t.Errorf("spike score = %v", s)
	}
	if s := SpikeScore(series, 20, 5); s < 0.9 || s > 1.1 {
		t.Errorf("flat score = %v", s)
	}
	if SpikeScore(series, -1, 5) != 0 || SpikeScore(series, 1000, 5) != 0 {
		t.Error("out of range should be 0")
	}
	if SpikeScore(series, 50, 1) != 0 {
		t.Error("window<=1 should be 0")
	}
}

func TestSpikeScoreZeroNeighbourhood(t *testing.T) {
	series := make([]float64, 20)
	series[10] = 5
	if s := SpikeScore(series, 10, 3); !math.IsInf(s, 1) {
		t.Errorf("spike over zero floor = %v, want +Inf", s)
	}
	if s := SpikeScore(series, 5, 3); s != 0 {
		t.Errorf("zero over zero = %v", s)
	}
}
