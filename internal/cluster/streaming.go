package cluster

import (
	"fmt"

	"repro/internal/linalg"
)

// StreamingLeader is the one-pass, bounded-memory form of bucketed
// leader clustering: points are consumed one at a time through Add and
// only the leaders, their running member sums and the signature index
// are retained — memory is O(K x dim), independent of how many points
// stream through. It is the clustering engine of the pipeline's
// streaming mode, where the full draw corpus is never materialized.
//
// Add is allocation-free in the steady state (joining an existing
// cluster allocates nothing); founding a new cluster appends to the
// leader block with amortized growth. The allocation-count tests pin
// the steady state at zero.
type StreamingLeader struct {
	dim       int
	threshold float64
	invCell   float64
	limit     float64

	leaders []float64 // K x dim, row-major: each cluster's founding point
	sums    []float64 // K x dim, row-major: running member sums
	counts  []int64   // K: member counts
	buckets map[uint64][]int32

	n     int
	stats BucketStats
}

// NewStreamingLeader validates the parameters and returns an empty
// clusterer for dim-dimensional points.
func NewStreamingLeader(dim int, threshold float64) (*StreamingLeader, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("cluster: streaming leader dim %d <= 0", dim)
	}
	if !(threshold > 0) {
		return nil, fmt.Errorf("cluster: streaming leader threshold %v is not positive", threshold)
	}
	return &StreamingLeader{
		dim:       dim,
		threshold: threshold,
		invCell:   1 / threshold,
		limit:     threshold * threshold,
		buckets:   make(map[uint64][]int32),
	}, nil
}

// Add consumes one point and returns the cluster id it joined (or
// founded). The point is copied into the running sums; the caller may
// reuse v. It panics on a dimensionality mismatch — that is pipeline
// wiring, not a runtime condition.
func (s *StreamingLeader) Add(v []float64) int {
	if len(v) != s.dim {
		panic(fmt.Sprintf("cluster: StreamingLeader.Add dim %d, want %d", len(v), s.dim))
	}
	s.n++
	s.stats.Points++
	sig := Signature(v, s.invCell)
	cand, seen := s.buckets[sig]
	best := -1
	bestD := s.limit
	for _, c := range cand {
		s.stats.Comparisons++
		d := sqDistEarlyExit(v, s.leaders[int(c)*s.dim:(int(c)+1)*s.dim], bestD)
		if d <= bestD {
			best = int(c)
			bestD = d
		}
	}
	if best == -1 {
		best = len(s.counts)
		s.leaders = append(s.leaders, v...)
		s.sums = append(s.sums, make([]float64, s.dim)...)
		s.counts = append(s.counts, 0)
		s.buckets[sig] = append(cand, int32(best))
		if !seen {
			s.stats.Buckets++
		}
	}
	sum := s.sums[best*s.dim : (best+1)*s.dim]
	for j, x := range v {
		sum[j] += x
	}
	s.counts[best]++
	return best
}

// K returns the cluster count so far.
func (s *StreamingLeader) K() int { return len(s.counts) }

// N returns the number of points consumed so far.
func (s *StreamingLeader) N() int { return s.n }

// Stats returns the bucket-index statistics accumulated so far.
func (s *StreamingLeader) Stats() BucketStats { return s.stats }

// Centroids materializes the cluster centroids (member means) from the
// running sums. The additions happened in point order, so for a given
// assignment the centroids are bit-identical to computeCentroids over
// the full matrix.
func (s *StreamingLeader) Centroids() *linalg.Matrix {
	if len(s.counts) == 0 {
		return nil
	}
	cent := linalg.NewMatrix(len(s.counts), s.dim)
	for c, cnt := range s.counts {
		row := cent.Row(c)
		copy(row, s.sums[c*s.dim:(c+1)*s.dim])
		if cnt > 0 {
			linalg.Scale(1/float64(cnt), row)
		}
	}
	return cent
}

// Sizes returns the member count of each cluster so far.
func (s *StreamingLeader) Sizes() []int {
	out := make([]int, len(s.counts))
	for c, cnt := range s.counts {
		out[c] = int(cnt)
	}
	return out
}
