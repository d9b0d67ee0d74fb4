package cluster

import (
	"fmt"

	"repro/internal/linalg"
)

// Agglomerative performs average-linkage hierarchical clustering,
// merging the closest pair of clusters until the smallest inter-cluster
// (average-linkage) distance exceeds threshold.
//
// Complexity is O(n^2) memory and O(n^2 log n)-ish time via
// Lance-Williams updates with lazy minima, so this is an ablation arm
// for per-frame use (n ~ 1-2K), not a corpus-scale default.
func Agglomerative(x *linalg.Matrix, threshold float64) (Result, error) {
	if !(threshold > 0) {
		return Result{}, fmt.Errorf("cluster: agglomerative threshold %v is not positive", threshold)
	}
	n := x.Rows
	// active[i]: cluster i still live. size[i]: member count.
	// dist is a full symmetric matrix of average-linkage distances.
	active := make([]bool, n)
	size := make([]float64, n)
	parent := make([]int, n) // union-find style: final cluster of each point
	for i := range active {
		active[i] = true
		size[i] = 1
		parent[i] = i
	}
	dist := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := linalg.L2Dist(x.Row(i), x.Row(j))
			dist[i*n+j] = d
			dist[j*n+i] = d
		}
	}
	live := n
	for live > 1 {
		// Find the closest active pair.
		bi, bj, bd := -1, -1, threshold
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if d := dist[i*n+j]; d <= bd {
					bi, bj, bd = i, j, d
				}
			}
		}
		if bi < 0 {
			break // nothing within threshold
		}
		// Merge bj into bi with Lance-Williams average-linkage update:
		// d(bi', k) = (|bi| d(bi,k) + |bj| d(bj,k)) / (|bi| + |bj|)
		si, sj := size[bi], size[bj]
		for k := 0; k < n; k++ {
			if !active[k] || k == bi || k == bj {
				continue
			}
			nd := (si*dist[bi*n+k] + sj*dist[bj*n+k]) / (si + sj)
			dist[bi*n+k] = nd
			dist[k*n+bi] = nd
		}
		size[bi] += size[bj]
		active[bj] = false
		parent[bj] = bi
		live--
	}
	// Resolve final cluster of each point and compact ids.
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	idOf := map[int]int{}
	assign := make([]int, n)
	for i := 0; i < n; i++ {
		root := find(i)
		id, ok := idOf[root]
		if !ok {
			id = len(idOf)
			idOf[root] = id
		}
		assign[i] = id
	}
	k := len(idOf)
	return Result{Assign: assign, K: k, Centroids: computeCentroids(x, assign, k)}, nil
}
