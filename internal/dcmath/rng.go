// Package dcmath provides the deterministic math kernel used throughout
// the subsetting library: a seedable PRNG with common distributions,
// descriptive statistics, correlation measures and histograms.
//
// Everything in this package is pure and deterministic: the same seed
// always produces the same stream, on every platform. The library never
// consults the wall clock or global random state, which is what makes
// whole-pipeline runs (trace synthesis -> simulation -> clustering)
// reproducible bit-for-bit. Every product that feeds a sum is rounded
// explicitly, so no compiler fuses a multiply-add here, and Exp and
// Pow stand in for math.Exp and math.Pow, whose amd64 results depend
// on the CPU.
package dcmath

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256** pseudo-random generator. The zero value is not
// usable; construct with NewRNG. RNG is not safe for concurrent use;
// give each goroutine its own stream via Split.
type RNG struct {
	s         [4]uint64
	spare     float64
	haveSpare bool
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only to expand seeds into full xoshiro state, per the
// reference implementation's recommendation.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed. Distinct seeds give
// independent-looking streams; the all-zero internal state is
// unreachable because SplitMix64 never emits four zero words in a row.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	return r
}

// Split derives a new independent generator from r, keyed by label.
// Deriving with the same label twice from the same r state yields the
// same child, so subsystem streams stay stable even if the order in
// which other subsystems draw numbers changes.
func (r *RNG) Split(label uint64) *RNG {
	mix := r.s[0] ^ r.s[1]<<1 ^ r.s[2]<<2 ^ r.s[3]<<3
	return NewRNG(mix ^ (label * 0x9e3779b97f4a7c15))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("dcmath: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// IntRange returns a uniform integer in [lo, hi] inclusive.
// It panics if hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("dcmath: IntRange called with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate using the Marsaglia
// polar method. The spare value is cached so consecutive draws cost one
// rejection loop per pair.
func (r *RNG) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	for {
		u := float64(2*r.Float64()) - 1
		v := float64(2*r.Float64()) - 1
		s := float64(u*u) + float64(v*v)
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.haveSpare = true
		return u * f
	}
}

// Normal returns a normal variate with the given mean and standard
// deviation.
func (r *RNG) Normal(mean, stddev float64) float64 {
	return mean + float64(stddev*r.NormFloat64())
}

// LogNormal returns exp(N(mu, sigma)). Useful for size-like quantities
// (vertex counts, texture working sets) that are positive and skewed.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return Exp(r.Normal(mu, sigma))
}

// Exp returns an exponential variate with the given rate (lambda).
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("dcmath: Exp called with rate <= 0")
	}
	return -math.Log(1-r.Float64()) / rate
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
