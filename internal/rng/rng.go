// Package rng provides a deterministic pseudo-random number generator and a
// set of distributions used throughout the synthetic workload generator.
//
// Every experiment in this repository derives all of its randomness from a
// single Source seed, so results are reproducible bit-for-bit across runs and
// machines. The generator is xoshiro256**, seeded through splitmix64, both of
// which are small, fast, public-domain algorithms with well-understood
// statistical behaviour — more than adequate for workload synthesis (this is
// not a cryptographic generator).
package rng

import "math"

// Source is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New. Source is not safe for concurrent use; derive
// independent streams with Split instead of sharing one Source.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via splitmix64, guaranteeing a
// well-mixed non-zero internal state for any seed value, including zero.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	return &src
}

// Split derives a new independent Source from r. The derived stream is
// decorrelated from the parent by reseeding through splitmix64, so a parent
// and its children may be used concurrently (each by a single goroutine).
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xd3833e804f4c574b)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Classic rejection sampling on the top range to avoid modulo bias.
	max := (^uint64(0) / n) * n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed sample with the given mean.
// A non-positive mean returns 0.
func (r *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	// Guard against log(0) by nudging u away from zero.
	u := r.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(u)
}

// Norm returns a normally distributed sample with the given mean and
// standard deviation, via the Box-Muller transform.
func (r *Source) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	if u1 == 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns a log-normally distributed sample parameterised by the
// location mu and scale sigma of the underlying normal distribution.
func (r *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// LogNormalMean returns a log-normal sample parameterised by its own mean
// and the sigma of the underlying normal. This is the form most behaviour
// models want: "sessions average 90 s with heavy tail".
func (r *Source) LogNormalMean(mean, sigma float64) float64 {
	if mean <= 0 {
		return 0
	}
	mu := math.Log(mean) - sigma*sigma/2
	return r.LogNormal(mu, sigma)
}

// Poisson returns a Poisson-distributed sample with the given rate lambda.
// For large lambda it uses a normal approximation to stay O(1).
func (r *Source) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 500 {
		v := r.Norm(lambda, math.Sqrt(lambda))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	// Knuth's method.
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Categorical samples indexes with the given (unnormalised) weights.
type Categorical struct {
	cdf []float64
	src *Source
}

// NewCategorical builds a sampler over weights; non-positive weights get
// probability zero. It panics if all weights are non-positive.
func NewCategorical(src *Source, weights []float64) *Categorical {
	cdf := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w > 0 {
			sum += w
		}
		cdf[i] = sum
	}
	if sum <= 0 {
		panic("rng: NewCategorical with no positive weight")
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Categorical{cdf: cdf, src: src}
}

// Next returns the next sampled index.
func (c *Categorical) Next() int {
	u := c.src.Float64()
	lo, hi := 0, len(c.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Jitter returns v multiplied by a uniform factor in [1-frac, 1+frac],
// a convenient way to de-synchronise periodic behaviours.
func (r *Source) Jitter(v, frac float64) float64 {
	if frac <= 0 {
		return v
	}
	return v * (1 - frac + 2*frac*r.Float64())
}
