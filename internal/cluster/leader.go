package cluster

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/linalg"
)

// Leader performs single-pass leader clustering: each point joins the
// nearest existing leader within threshold (L2 distance), or founds a
// new cluster. Leaders are the founding points; centroids are
// recomputed as member means afterwards.
//
// Leader clustering is order-dependent by construction. That is a
// feature here: draws arrive in submission order, and game engines
// batch draws of one material contiguously, so the first draw of a
// batch naturally becomes its leader.
//
// A point equidistant from several nearest leaders joins the one
// founded last. The result is bit-identical to comparing every point
// with every live leader in founding order; the leader index below
// only skips leaders that provably cannot win.
func Leader(x *linalg.Matrix, threshold float64) (Result, error) {
	if !(threshold > 0) {
		return Result{}, fmt.Errorf("cluster: leader threshold %v is not positive", threshold)
	}
	limit := threshold * threshold
	ix := leaderIndexPool.Get().(*leaderIndex)
	defer leaderIndexPool.Put(ix)
	var assign []int
	var k int
	if ix.bound(x, limit) {
		assign, k = ix.cluster(x, limit)
	} else {
		assign, k = leaderScan(x, limit)
	}
	return Result{Assign: assign, K: k, Centroids: computeCentroids(x, assign, k)}, nil
}

// leaderScan is the linear scan: every point is priced against every
// live leader in founding order, and `<=` hands ties to the later
// leader. Leader falls back to it when the index's bounds are not
// finite.
func leaderScan(x *linalg.Matrix, limit float64) ([]int, int) {
	assign := make([]int, x.Rows)
	var leaders []int // point index of each cluster's founder
	for i := range assign {
		row := x.Row(i)
		best := -1
		bestD := limit
		for c, li := range leaders {
			d := sqDistEarlyExit(row, x.Row(li), bestD)
			if d <= bestD {
				best = c
				bestD = d
			}
		}
		if best == -1 {
			best = len(leaders)
			leaders = append(leaders, i)
		}
		assign[i] = best
	}
	return assign, len(leaders)
}

// Exact leader index. Live leaders are kept sorted by their L2 norm,
// and each also carries its L2 distance to a second pivot, row 0. By
// the triangle inequality a leader q can only lie within distance
// sqrt(bestD) of point p if both |‖p‖ − ‖q‖| and |dist(p, row 0) −
// dist(q, row 0)| are at most sqrt(bestD). So each point probes the
// previous point's leader first (draws of one material arrive back to
// back, which shrinks bestD early), then walks outward from its own
// norm in the sorted order until the band ends, skips band members
// that fail the pivot test, and prices the rest with the unchanged
// sqDistEarlyExit. Those distances carry the same bits as in the
// linear scan, and the winner is the same argmin: the smallest
// distance within the limit, ties to the higher cluster id (the
// scan's `<=` rule, made explicit because the visiting order differs).
//
// Rounding margin. The bounds are computed in floating point, so the
// band radius is r = sqrt(bestD)·(1+m) + m·s + τ, where s is the
// larger of p's norm and pivot distance, m = (d+4)·2⁻⁵⁰ for d
// columns, and τ = 2⁻⁵⁰⁰. With unit roundoff u = 2⁻⁵³, a computed
// sum of d squared differences is within (d+2)·u relative of the
// exact one, to first order: one rounding per subtraction, square and
// addition, and a fused multiply-add only removes roundings. So a
// computed norm or pivot distance is within (d/2+2)·u relative of the
// exact one, and a computed squared distance D is at least
// (1−(d+2)·u) times the exact one. Gradual underflow adds at most
// 2⁻¹⁰⁷⁵ absolute per product, a few times below 2⁻⁵⁰⁰ after the
// square root for any d below 2⁷⁰. Overflow only ever raises D to
// +Inf, which loses anyway. Chaining these through the triangle
// inequality, a leader with D <= bestD has |‖p‖ − ‖q‖| (and likewise
// the pivot gap) at most sqrt(bestD)·(1+(d+3)·u) + (d+4)·u·s plus the
// underflow term, and computing r and the gap adds a few roundings
// more. m = 8·(d+4)·u is over four times that relative slack, so a
// leader outside the band provably has D > bestD: the linear scan
// would not have accepted it either.
//
// The argument needs finite norms, pivot distances and limit. If any
// is not finite (NaN or ±Inf coordinates, squares that overflow, or a
// threshold whose square does), Leader takes the linear scan instead.

// leaderIndex holds the index's buffers. They are pooled: Leader runs
// once per frame on the pipeline's hot path, and allocating them per
// call added about a tenth to a pipeline pass's allocation.
type leaderIndex struct {
	norms, pivots []float64     // per row: computed L2 norm, distance to row 0
	leaders       []int         // cluster id -> founding point
	entries       []leaderEntry // live leaders by ascending norm
}

// leaderEntry is one live leader in the norm-sorted index.
type leaderEntry struct {
	norm  float64 // computed L2 norm of the leader's row
	pivot float64 // computed L2 distance from the leader's row to row 0
	c     int     // cluster id
	row   int     // founding point
}

var leaderIndexPool = sync.Pool{New: func() any { return new(leaderIndex) }}

// bound computes every row's norm and distance to row 0. It reports
// false when the index does not apply: no rows, or a non-finite bound
// or limit.
func (ix *leaderIndex) bound(x *linalg.Matrix, limit float64) bool {
	n := x.Rows
	if n == 0 || !(limit <= math.MaxFloat64) {
		return false
	}
	ix.norms = slices.Grow(ix.norms[:0], n)[:n]
	ix.pivots = slices.Grow(ix.pivots[:0], n)[:n]
	for i := range ix.norms {
		row := x.Row(i)
		ix.norms[i], ix.pivots[i] = linalg.Norm2(row), linalg.L2Dist(row, x.Row(0))
		if !(ix.norms[i] <= math.MaxFloat64) || !(ix.pivots[i] <= math.MaxFloat64) {
			return false
		}
	}
	return true
}

// cluster is the linear scan's result computed through the norm-sorted
// leader index, over the bounds of the last bound call.
func (ix *leaderIndex) cluster(x *linalg.Matrix, limit float64) ([]int, int) {
	m := float64(x.Cols+4) * 0x1p-50
	const tau = 0x1p-500
	assign := make([]int, x.Rows)
	leaders, index := ix.leaders[:0], ix.entries[:0]
	for i := range assign {
		row := x.Row(i)
		np, ep := ix.norms[i], ix.pivots[i]
		s := math.Max(np, ep)
		best, bestD := -1, limit
		prev := -1
		if i > 0 {
			prev = assign[i-1]
			if d := sqDistEarlyExit(row, x.Row(leaders[prev]), bestD); d <= bestD {
				best, bestD = prev, d
			}
		}
		r := math.Sqrt(bestD)
		r += m*(r+s) + tau

		// First entry with norm >= np: the walk's start and, if p
		// founds a cluster, its insertion point.
		lo, hi := 0, len(index)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if index[mid].norm < np {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		pos := lo
		// Walk outward from pos, up the norms and then down, until the
		// norm gap leaves the band. Negating a difference is exact, so
		// both directions test the same rounded gap.
		for _, dir := range [...]int{1, -1} {
			j := pos
			if dir < 0 {
				j--
			}
			for ; j >= 0 && j < len(index); j += dir {
				e := &index[j]
				if float64(dir)*(e.norm-np) > r {
					break
				}
				if e.c == prev || math.Abs(e.pivot-ep) > r {
					continue
				}
				d := sqDistEarlyExit(row, x.Row(e.row), bestD)
				if d < bestD || d == bestD && e.c > best {
					best, bestD = e.c, d
					r = math.Sqrt(bestD)
					r += m*(r+s) + tau
				}
			}
		}

		if best == -1 {
			best = len(leaders)
			leaders = append(leaders, i)
			index = append(index, leaderEntry{})
			copy(index[pos+1:], index[pos:])
			index[pos] = leaderEntry{norm: np, pivot: ep, c: best, row: i}
		}
		assign[i] = best
	}
	ix.leaders, ix.entries = leaders, index
	return assign, len(leaders)
}
