package dcmath

import (
	"math"
	"sort"
)

// Pearson returns the Pearson product-moment correlation coefficient of
// xs and ys. It returns NaN if the slices differ in length, have fewer
// than two points, or either series is constant.
//
// This is the statistic the paper uses to validate subsets: the speedup
// curve of a subset across a frequency sweep must correlate with its
// parent's at r >= 0.997.
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += float64(dx * dy)
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation coefficient of xs and
// ys, i.e. the Pearson correlation of their ranks with mid-rank tie
// handling. Used for pathfinding fidelity: does the subset rank
// candidate architecture configs in the same order as the parent?
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	return Pearson(Ranks(xs), Ranks(ys))
}

// Ranks returns the 1-based ranks of xs, assigning tied values the mean
// of the ranks they span (mid-rank method).
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Values at sorted positions i..j are tied; they all get the
		// average of ranks i+1..j+1.
		avg := float64(float64(i+j)/2) + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Covariance returns the population covariance of xs and ys, or NaN on
// length mismatch or empty input.
func Covariance(xs, ys []float64) float64 {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var s float64
	for i := 0; i < n; i++ {
		s += float64((xs[i] - mx) * (ys[i] - my))
	}
	return s / float64(n)
}

// LinearFit returns the least-squares slope and intercept for y = a*x + b.
// It returns NaNs on degenerate input (mismatched length, < 2 points,
// constant xs).
func LinearFit(xs, ys []float64) (slope, intercept float64) {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return math.NaN(), math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		sxy += float64(dx * (ys[i] - my))
		sxx += float64(dx * dx)
	}
	if sxx == 0 {
		return math.NaN(), math.NaN()
	}
	slope = sxy / sxx
	return slope, my - float64(slope*mx)
}
