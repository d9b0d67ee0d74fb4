package dcmath

import (
	"math"
	"sort"
)

// Sum returns the sum of xs. An empty slice sums to 0.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n), or
// NaN for an empty slice. Population variance is the right choice here
// because callers pass complete populations (all draws in a cluster,
// all frames of a game), not samples.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += float64(d * d)
	}
	return ss / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element of xs, or NaN for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs without modifying it, or NaN for an
// empty slice.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-quantile of xs (q in [0,1]) using linear
// interpolation between order statistics. It copies xs, so the input is
// not modified. Returns NaN for an empty slice or q outside [0,1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := float64(q * float64(len(s)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return float64(s[lo]*(1-frac)) + float64(s[hi]*frac)
}

// WeightedMean returns sum(w_i * x_i) / sum(w_i). It returns NaN if the
// slices differ in length, are empty, or the weights sum to zero.
func WeightedMean(xs, ws []float64) float64 {
	if len(xs) == 0 || len(xs) != len(ws) {
		return math.NaN()
	}
	var num, den float64
	for i, x := range xs {
		num += float64(ws[i] * x)
		den += ws[i]
	}
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// GeoMean returns the geometric mean of xs. All elements must be
// positive; otherwise NaN is returned.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		logSum += math.Log(x)
	}
	return Exp(logSum / float64(len(xs)))
}

// Moments accumulates count, mean and variance online using Welford's
// algorithm. The zero value is ready to use.
type Moments struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (m *Moments) Add(x float64) {
	if m.n == 0 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	m.n++
	delta := x - m.mean
	m.mean += delta / float64(m.n)
	m.m2 += float64(delta * (x - m.mean))
}

// Count returns the number of values added.
func (m *Moments) Count() int { return m.n }

// Mean returns the running mean, or NaN if no values were added.
func (m *Moments) Mean() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.mean
}

// Variance returns the running population variance, or NaN if empty.
func (m *Moments) Variance() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.m2 / float64(m.n)
}

// StdDev returns the running population standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Min returns the smallest value added, or NaN if empty.
func (m *Moments) Min() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.min
}

// Max returns the largest value added, or NaN if empty.
func (m *Moments) Max() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.max
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// ClampInt limits x to [lo, hi].
func ClampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// AlmostEqual reports whether a and b are equal within tol, treating
// NaN as unequal to everything.
func AlmostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

// RelError returns |got-want| / |want|, or |got| when want == 0.
func RelError(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}
