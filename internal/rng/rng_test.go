package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestNewSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-seeded generator produced only %d distinct values", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child must not replay the parent's stream.
	p := New(7)
	p.Split()
	for i := 0; i < 100; i++ {
		if child.Uint64() == p.Uint64() {
			t.Fatalf("child stream mirrors parent at step %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(4)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		counts[r.Intn(7)]++
	}
	for v, c := range counts {
		if c < 8000 || c > 12000 {
			t.Errorf("Intn(7) value %d occurred %d times; want ~10000", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nProperty(t *testing.T) {
	r := New(5)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(6)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(1 << 20); v >= 1<<20 {
			t.Fatalf("out of range: %d", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(8)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(10)
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	trues := 0
	for i := 0; i < 10000; i++ {
		if r.Bool(0.3) {
			trues++
		}
	}
	if trues < 2500 || trues > 3500 {
		t.Errorf("Bool(0.3) fired %d/10000 times", trues)
	}
}

func TestExpMean(t *testing.T) {
	r := New(11)
	const mean = 5.0
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Exp(mean)
		if v < 0 {
			t.Fatalf("Exp produced negative value %v", v)
		}
		sum += v
	}
	got := sum / n
	if math.Abs(got-mean) > 0.1 {
		t.Errorf("Exp mean = %v, want ~%v", got, mean)
	}
	if r.Exp(-1) != 0 || r.Exp(0) != 0 {
		t.Error("Exp with non-positive mean should return 0")
	}
}

func TestNormMoments(t *testing.T) {
	r := New(12)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Norm mean = %v, want ~10", mean)
	}
	if math.Abs(variance-4) > 0.2 {
		t.Errorf("Norm variance = %v, want ~4", variance)
	}
}

func TestLogNormalMeanTargets(t *testing.T) {
	r := New(13)
	const n = 400000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.LogNormalMean(90, 0.8)
	}
	got := sum / n
	if math.Abs(got-90) > 3 {
		t.Errorf("LogNormalMean mean = %v, want ~90", got)
	}
	if r.LogNormalMean(0, 1) != 0 {
		t.Error("LogNormalMean(0, _) should be 0")
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(14)
	for _, lambda := range []float64{0.5, 4, 50, 800} {
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(lambda)
		}
		got := float64(sum) / n
		if math.Abs(got-lambda)/lambda > 0.05 {
			t.Errorf("Poisson(%v) mean = %v", lambda, got)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Error("Poisson with non-positive lambda should be 0")
	}
}

func TestCategoricalWeights(t *testing.T) {
	r := New(18)
	c := NewCategorical(r, []float64{1, 0, 3})
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[c.Next()]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight category sampled %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
}

func TestCategoricalPanicsAllZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for all-zero weights")
		}
	}()
	NewCategorical(New(1), []float64{0, -1})
}

func TestJitterBounds(t *testing.T) {
	r := New(19)
	for i := 0; i < 10000; i++ {
		v := r.Jitter(100, 0.2)
		if v < 80 || v > 120 {
			t.Fatalf("Jitter out of bounds: %v", v)
		}
	}
	if r.Jitter(100, 0) != 100 {
		t.Error("Jitter with zero frac should be identity")
	}
}
