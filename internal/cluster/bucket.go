package cluster

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// This file implements the sub-linear "bucketed" hot path: points are
// hashed by a quantized feature signature, and the leader /
// agglomerative inner loops only compare points that share a bucket.
//
// The invariant the approximate modes keep — and the property tests
// enforce — is one-sided: bucketing can only SPLIT clusters the exact
// algorithm would form (a near pair that straddles a cell boundary
// founds two clusters), never wrongly MERGE them. Every distance-based
// acceptance check of the exact algorithms still runs; bucketing only
// prunes the candidate set. The subset therefore grows slightly (more
// clusters -> more representatives) while per-cluster prediction error
// stays equal or better.

// BucketStats reports what the signature index did during one bucketed
// clustering call. The pipeline surfaces these through the obs metrics
// registry (cluster.bucket.* counters).
type BucketStats struct {
	// Buckets is the number of distinct signatures seen.
	Buckets int64
	// Points is the number of points clustered.
	Points int64
	// Comparisons is the number of candidate distance computations the
	// inner loop performed. A linear leader scan would perform
	// sum-over-points(live clusters) comparisons; the ratio of the two
	// is the pruning payoff. Exact Leader prunes too, through its
	// norm-sorted index, so this is not the gap between the two modes.
	Comparisons int64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Signature hashes the quantized coordinates of v: each coordinate is
// snapped to a grid cell of edge 1/invCell and the cell indices are
// mixed with a word-at-a-time FNV-1a variant (one xor-multiply per
// coordinate — this runs once per draw on the hot path, so the
// byte-at-a-time loop was measurably the bucketed mode's bottleneck).
// Two equal vectors always share a signature and vectors in the same
// grid cell share a signature. Distinct cells may collide; a collision
// only widens a candidate set — every distance acceptance check still
// runs — so it costs a few comparisons, never correctness. NaN
// coordinates quantize to a dedicated cell and infinities clamp, so
// hostile inputs stay deterministic instead of poisoning the hash.
func Signature(v []float64, invCell float64) uint64 {
	h := uint64(fnvOffset64)
	for _, x := range v {
		h ^= uint64(quantizeCell(x, invCell))
		h *= fnvPrime64
	}
	return h
}

// sigTable is an open-addressed signature -> cluster-id index for the
// bucketed leader loop. Signature already mixes its input FNV-style,
// so the low bits index directly; a Go map would re-hash the key and
// was measurably ~10% of the bucketed arm. A slot with a nil ids
// slice is empty (an occupied bucket always holds at least one
// cluster), so no separate occupancy bitmap is needed.
type sigTable struct {
	slots []sigSlot
	mask  uint64
	n     int
}

type sigSlot struct {
	sig uint64
	ids []int
}

// newSigTable presizes for up to hint occupied buckets so the common
// case never rehashes mid-clustering.
func newSigTable(hint int) *sigTable {
	size := 256
	for size*3 < hint*4 {
		size <<= 1
	}
	return &sigTable{slots: make([]sigSlot, size), mask: uint64(size - 1)}
}

// slot returns the slot holding sig, or the empty slot where it
// belongs. The pointer is invalidated by grow.
func (t *sigTable) slot(sig uint64) *sigSlot {
	i := sig & t.mask
	for {
		s := &t.slots[i]
		if s.ids == nil || s.sig == sig {
			return s
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles the table, re-seating occupied slots (slice headers
// move; backing arrays do not). Callers check the 3/4 load factor
// inline — this body is too large to inline and the check runs once
// per new cluster.
func (t *sigTable) grow() {
	old := t.slots
	t.slots = make([]sigSlot, len(old)*2)
	t.mask = uint64(len(t.slots) - 1)
	for i := range old {
		if old[i].ids != nil {
			*t.slot(old[i].sig) = old[i]
		}
	}
}

// quantizeCell maps a coordinate to its grid-cell index, handling
// non-finite values deterministically.
func quantizeCell(x, invCell float64) int64 {
	if math.IsNaN(x) {
		return math.MaxInt64
	}
	c := math.Floor(x * invCell)
	if c >= math.MaxInt64 {
		return math.MaxInt64 - 1
	}
	if c <= math.MinInt64 {
		return math.MinInt64 + 1
	}
	return int64(c)
}

// LeaderBucketed is Leader with a quantized-signature pre-bucketing:
// each point only considers leaders whose founding point shares its
// signature. The membership guarantee of leader clustering is
// preserved — a point joins a cluster only when its distance to the
// leader is within threshold — but a near leader in a different cell
// is invisible, so the bucketed clustering may found extra clusters.
// Cell edge equals the threshold, which keeps false splits rare in the
// paper's near-duplicate regime (draws of one material land in one
// cell) while shrinking the candidate set from "all leaders" to a
// handful.
func LeaderBucketed(x *linalg.Matrix, threshold float64) (Result, BucketStats, error) {
	if !(threshold > 0) {
		return Result{}, BucketStats{}, fmt.Errorf("cluster: bucketed leader threshold %v is not positive", threshold)
	}
	n := x.Rows
	invCell := 1 / threshold
	limit := threshold * threshold
	assign := make([]int, n)
	var leaders []int
	// Signature -> cluster ids founded in that cell. Sized for the
	// worst case of one bucket per point; buckets only splitting exact
	// clusters means the real count is far lower, but rehashing
	// mid-loop costs more than the over-size.
	buckets := newSigTable(n)
	stats := BucketStats{Points: int64(n)}
	for i := 0; i < n; i++ {
		row := x.Row(i)
		sig := Signature(row, invCell)
		s := buckets.slot(sig)
		best := -1
		bestD := limit
		for _, c := range s.ids {
			stats.Comparisons++
			d := sqDistEarlyExit(row, x.Row(leaders[c]), bestD)
			if d <= bestD {
				best = c
				bestD = d
			}
		}
		if best == -1 {
			best = len(leaders)
			leaders = append(leaders, i)
			if s.ids == nil {
				stats.Buckets++
				s.sig = sig
				buckets.n++
			}
			s.ids = append(s.ids, best)
			if buckets.n*4 > len(buckets.slots)*3 {
				buckets.grow() // s is dead past this point
			}
		}
		assign[i] = best
	}
	res := Result{
		Assign:    assign,
		K:         len(leaders),
		Centroids: computeCentroids(x, assign, len(leaders)),
	}
	return res, stats, nil
}

// AgglomerativeBucketed partitions points by quantized signature and
// runs exact average-linkage agglomerative clustering within each
// bucket independently. Merges never cross a bucket boundary, so the
// O(n^2) distance matrix shrinks to O(sum of bucket sizes squared).
// Like the exact algorithm, the partition it finds is
// permutation-invariant: the signature of a point depends only on the
// point, and the within-bucket clustering is itself order-free.
func AgglomerativeBucketed(x *linalg.Matrix, threshold float64) (Result, BucketStats, error) {
	if !(threshold > 0) {
		return Result{}, BucketStats{}, fmt.Errorf("cluster: bucketed agglomerative threshold %v is not positive", threshold)
	}
	n := x.Rows
	invCell := 1 / threshold
	stats := BucketStats{Points: int64(n)}
	// Group points by signature in first-appearance order so the
	// cluster numbering is deterministic for a given input order.
	members := map[uint64][]int{}
	var order []uint64
	for i := 0; i < n; i++ {
		sig := Signature(x.Row(i), invCell)
		if _, ok := members[sig]; !ok {
			order = append(order, sig)
		}
		members[sig] = append(members[sig], i)
	}
	stats.Buckets = int64(len(order))
	assign := make([]int, n)
	k := 0
	for _, sig := range order {
		idx := members[sig]
		if len(idx) == 1 {
			assign[idx[0]] = k
			k++
			continue
		}
		sub := linalg.NewMatrix(len(idx), x.Cols)
		for r, pi := range idx {
			copy(sub.Row(r), x.Row(pi))
		}
		stats.Comparisons += int64(len(idx)) * int64(len(idx)-1) / 2
		res, err := Agglomerative(sub, threshold)
		if err != nil {
			return Result{}, BucketStats{}, err
		}
		for r, pi := range idx {
			assign[pi] = k + res.Assign[r]
		}
		k += res.K
	}
	return Result{Assign: assign, K: k, Centroids: computeCentroids(x, assign, k)}, stats, nil
}
