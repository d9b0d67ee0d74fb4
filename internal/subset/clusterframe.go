// Package subset builds representative workload subsets: the paper's
// deliverable. It combines per-frame draw-call clustering (keep one
// representative draw per cluster, weighted by cluster size) with
// phase detection (keep one representative frame per phase, weighted
// by phase coverage), and reconstructs parent-workload costs from the
// tiny subset.
package subset

import (
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/dcmath"
	"repro/internal/features"
	"repro/internal/linalg"
	"repro/internal/trace"
)

// ClusterVersion versions the per-frame clustering computation —
// normalizers, PCA, the clustering algorithms and representative
// selection. The core frame pass's cache entry mixes it into its key;
// bump it with any change that can move an assignment, medoid or
// weight.
//
// v2: Method gained a hot-path mode and a mini-batch size.
// v3: Method lost both; every algorithm runs exact.
const ClusterVersion = 3

// CostOracle prices a draw call in nanoseconds. *gpu.Simulator
// satisfies it; tests substitute analytical oracles.
type CostOracle interface {
	DrawNs(d *trace.DrawCall) float64
}

// Algo selects the clustering algorithm.
type Algo uint8

// Available clustering algorithms.
const (
	AlgoLeader Algo = iota
	AlgoKMeans
	AlgoAgglomerative
)

// String returns the algorithm name.
func (a Algo) String() string {
	switch a {
	case AlgoLeader:
		return "leader"
	case AlgoKMeans:
		return "kmeans"
	case AlgoAgglomerative:
		return "agglomerative"
	default:
		return fmt.Sprintf("algo(%d)", uint8(a))
	}
}

// Method configures per-frame clustering.
type Method struct {
	Algo Algo

	// Threshold is the grouping distance for leader and agglomerative
	// clustering, in normalized feature space.
	Threshold float64

	// K is the cluster count for k-means. If 0, K defaults to the
	// cluster count leader clustering would produce at Threshold
	// (useful for like-for-like algorithm comparisons).
	K int

	// Seed drives k-means initialization.
	Seed uint64

	// MaxIter bounds k-means iterations.
	MaxIter int

	// Normalizer names the feature scaling: "zscore" (default),
	// "minmax" or "none". Fitted per frame.
	Normalizer string

	// FeatureGroups restricts clustering to the named feature groups
	// (nil = all groups). Used by the feature-ablation experiment.
	FeatureGroups []string

	// PCAComponents, when positive, projects the (normalized) feature
	// matrix onto its top principal components before clustering.
	// Dimensionality reduction trades a little cluster purity for
	// faster distance computation; the E13 ablation quantifies the
	// trade.
	PCAComponents int
}

// DefaultMethod returns the configuration the experiments use: leader
// clustering at threshold 0.5 over z-scored features — the operating
// point on the E5 error/efficiency curve that reproduces the paper's
// 65.8% average clustering efficiency at ~1% prediction error.
func DefaultMethod() Method {
	return Method{
		Algo:       AlgoLeader,
		Threshold:  0.5,
		MaxIter:    50,
		Normalizer: "zscore",
	}
}

func (m Method) validate() error {
	switch m.Algo {
	case AlgoLeader, AlgoAgglomerative:
		if !(m.Threshold > 0) {
			return fmt.Errorf("subset: %v threshold %v is not positive", m.Algo, m.Threshold)
		}
	case AlgoKMeans:
		if m.K < 0 {
			return fmt.Errorf("subset: kmeans K %d < 0", m.K)
		}
		if m.K == 0 && !(m.Threshold > 0) {
			return fmt.Errorf("subset: kmeans with K=0 needs a positive threshold to derive K")
		}
		if m.MaxIter <= 0 {
			return fmt.Errorf("subset: kmeans maxIter %d <= 0", m.MaxIter)
		}
	default:
		return fmt.Errorf("subset: unknown algorithm %v", m.Algo)
	}
	switch m.Normalizer {
	case "", "zscore", "minmax", "none":
	default:
		return fmt.Errorf("subset: unknown normalizer %q", m.Normalizer)
	}
	if m.PCAComponents < 0 {
		return fmt.Errorf("subset: PCA components %d < 0", m.PCAComponents)
	}
	return nil
}

// KeyInto mixes every field that can change a clustering into a cache
// key builder. Each field is written unconditionally and in fixed
// order, so two Methods key identically iff they cluster identically.
func (m Method) KeyInto(b *cache.KeyBuilder) *cache.KeyBuilder {
	return b.Uint(uint64(m.Algo)).
		Float(m.Threshold).
		Int(int64(m.K)).
		Uint(m.Seed).
		Int(int64(m.MaxIter)).
		String(m.Normalizer).
		Strings(m.FeatureGroups).
		Int(int64(m.PCAComponents))
}

func (m Method) newNormalizer() linalg.Normalizer {
	switch m.Normalizer {
	case "minmax":
		return &linalg.MinMax{}
	case "none":
		return linalg.Identity1{}
	default:
		return &linalg.ZScore{}
	}
}

// ClusteredFrame is the clustering of one frame plus the derived
// representatives: for each cluster, the index of its medoid draw and
// its weight (member count).
type ClusteredFrame struct {
	FrameIndex int
	Result     cluster.Result
	RepDraws   []int     // per cluster: draw index within the frame
	Weights    []float64 // per cluster: member count
}

// PredictNs reconstructs the frame's cost from representatives alone:
// sum over clusters of rep cost x cluster size. This is the quantity
// whose deviation from the true frame cost the paper reports as
// "performance prediction error per frame".
func (cf *ClusteredFrame) PredictNs(o CostOracle, f *trace.Frame) float64 {
	var total float64
	for c, di := range cf.RepDraws {
		total += o.DrawNs(&f.Draws[di]) * cf.Weights[c]
	}
	return total
}

// FrameClusterer clusters the frames of one workload under a fixed
// method. Feature extraction is shared; normalization is fitted per
// frame.
type FrameClusterer struct {
	ex      *features.Extractor
	method  Method
	featIdx []int // nil = all features
}

// NewFrameClusterer validates the method and prepares extraction.
func NewFrameClusterer(w *trace.Workload, m Method) (*FrameClusterer, error) {
	ex, err := features.NewExtractor(w)
	if err != nil {
		return nil, err
	}
	return newClusterer(ex, m)
}

// NewShellFrameClusterer is the streaming variant: it binds to a
// frameless shell workload (trace.Header.Shell) and clusters frames
// that are not stored in the workload.
func NewShellFrameClusterer(w *trace.Workload, m Method) (*FrameClusterer, error) {
	ex, err := features.NewShellExtractor(w)
	if err != nil {
		return nil, err
	}
	return newClusterer(ex, m)
}

func newClusterer(ex *features.Extractor, m Method) (*FrameClusterer, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	var idx []int
	if len(m.FeatureGroups) > 0 {
		var err error
		idx, err = features.GroupIndices(m.FeatureGroups...)
		if err != nil {
			return nil, err
		}
	}
	return &FrameClusterer{ex: ex, method: m, featIdx: idx}, nil
}

// frameScratch pools feature matrices: one Get/Put per frame instead
// of one n x d allocation per frame.
var frameScratch = sync.Pool{New: func() any { return &linalg.Matrix{} }}

// ClusterFrame clusters one frame and selects representatives.
func (fc *FrameClusterer) ClusterFrame(f *trace.Frame, frameIndex int) (ClusteredFrame, error) {
	x := fc.ex.FrameInto(f, frameScratch.Get().(*linalg.Matrix))
	defer frameScratch.Put(x)
	if fc.featIdx != nil {
		x = features.Select(x, fc.featIdx)
	}
	norm := fc.method.newNormalizer()
	norm.Fit(x)
	for i := 0; i < x.Rows; i++ {
		norm.Apply(x.Row(i))
	}
	if k := fc.method.PCAComponents; k > 0 {
		pca, err := linalg.FitPCA(x, k)
		if err != nil {
			return ClusteredFrame{}, fmt.Errorf("subset: PCA on frame %d: %w", frameIndex, err)
		}
		x = pca.TransformMatrix(x)
	}

	var res cluster.Result
	var err error
	switch fc.method.Algo {
	case AlgoLeader:
		res, err = cluster.Leader(x, fc.method.Threshold)
	case AlgoKMeans:
		k := fc.method.K
		if k == 0 {
			// Derive K from leader clustering at the threshold.
			lead, lerr := cluster.Leader(x, fc.method.Threshold)
			if lerr != nil {
				return ClusteredFrame{}, lerr
			}
			k = lead.K
		}
		rng := dcmath.NewRNG(fc.method.Seed ^ uint64(frameIndex)*0x9e3779b97f4a7c15)
		res, err = cluster.KMeans(x, k, rng, fc.method.MaxIter)
	case AlgoAgglomerative:
		res, err = cluster.Agglomerative(x, fc.method.Threshold)
	}
	if err != nil {
		return ClusteredFrame{}, fmt.Errorf("subset: clustering frame %d: %w", frameIndex, err)
	}
	cf := ClusteredFrame{
		FrameIndex: frameIndex,
		Result:     res,
		RepDraws:   res.Medoids(x),
	}
	sizes := res.Sizes()
	cf.Weights = make([]float64, res.K)
	for c, s := range sizes {
		cf.Weights[c] = float64(s)
	}
	return cf, nil
}
