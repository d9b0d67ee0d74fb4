package cluster

import (
	"fmt"
	"math"

	"repro/internal/dcmath"
	"repro/internal/linalg"
)

// KSelection is the outcome of an automatic cluster-count search.
type KSelection struct {
	K      int
	Result Result
	// Scores holds the criterion value at each candidate k, in
	// candidate order (for diagnostics and the elbow figure).
	Candidates []int
	Scores     []float64
}

// SelectKByBIC runs k-means over candidate cluster counts and picks
// the k maximizing the Bayesian Information Criterion of a spherical
// Gaussian mixture, following the x-means formulation (Pelleg & Moore
// 2000): the log-likelihood combines the pooled variance term with the
// cluster-size entropy (which is what stops ever-finer subdivision
// from winning), and the parameter penalty is k*(d+1)/2 * ln(n).
//
// Candidates are the rounded geometric steps between kMin and kMax
// (inclusive), at most 12 of them — the criterion is smooth enough
// that a coarse grid finds the right neighbourhood, and each candidate
// costs a full k-means run.
func SelectKByBIC(x *linalg.Matrix, kMin, kMax int, rng *dcmath.RNG, maxIter int) (KSelection, error) {
	if kMin < 1 || kMax < kMin {
		return KSelection{}, fmt.Errorf("cluster: SelectKByBIC range [%d, %d] invalid", kMin, kMax)
	}
	if kMax > x.Rows {
		kMax = x.Rows
	}
	if kMin > kMax {
		kMin = kMax
	}

	sel := KSelection{K: -1}
	best := math.Inf(-1)
	tried := map[int]bool{}
	try := func(k int) error {
		if tried[k] {
			return nil
		}
		tried[k] = true
		res, err := KMeans(x, k, rng, maxIter)
		if err != nil {
			return err
		}
		tried[res.K] = true // k may have been clamped
		bic := bicScore(x, &res)
		sel.Candidates = append(sel.Candidates, res.K)
		sel.Scores = append(sel.Scores, bic)
		if bic > best {
			best = bic
			sel.K = res.K
			sel.Result = res
		}
		return nil
	}
	for _, k := range geometricCandidates(kMin, kMax, 12) {
		if err := try(k); err != nil {
			return KSelection{}, err
		}
	}
	// Hill-climb around the coarse winner: the geometric grid can skip
	// the true optimum by one or two.
	for {
		prev := sel.K
		for _, k := range [2]int{sel.K - 1, sel.K + 1} {
			if k >= kMin && k <= kMax {
				if err := try(k); err != nil {
					return KSelection{}, err
				}
			}
		}
		if sel.K == prev {
			break
		}
	}
	return sel, nil
}

// bicScore returns the x-means BIC of a clustering; higher is better.
func bicScore(x *linalg.Matrix, res *Result) float64 {
	n := float64(x.Rows)
	d := float64(x.Cols)
	k := float64(res.K)
	if x.Rows <= res.K {
		// Each point its own cluster: likelihood degenerate; return
		// the raw penalty so coarser clusterings win.
		return -k * (d + 1) / 2 * math.Log(n)
	}
	// Pooled per-dimension MLE variance.
	variance := WithinSS(x, res) / (d * (n - k))
	const minVar = 1e-12
	if variance < minVar {
		variance = minVar
	}
	var sizeEntropy float64
	for _, nj := range res.Sizes() {
		if nj > 0 {
			sizeEntropy += float64(nj) * math.Log(float64(nj))
		}
	}
	ll := sizeEntropy - n*math.Log(n) -
		n*d/2*math.Log(2*math.Pi*variance) - (n-k)*d/2
	return ll - k*(d+1)/2*math.Log(n)
}

// geometricCandidates returns up to maxN integer steps from lo to hi,
// geometrically spaced, deduplicated, always including both endpoints.
func geometricCandidates(lo, hi, maxN int) []int {
	if lo == hi {
		return []int{lo}
	}
	out := []int{}
	ratio := dcmath.Pow(float64(hi)/float64(lo), 1/float64(maxN-1))
	v := float64(lo)
	prev := -1
	for i := 0; i < maxN; i++ {
		k := int(math.Round(v))
		if k > hi {
			k = hi
		}
		if k != prev {
			out = append(out, k)
			prev = k
		}
		v *= ratio
	}
	if out[len(out)-1] != hi {
		out = append(out, hi)
	}
	return out
}
