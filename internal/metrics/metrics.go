// Package metrics evaluates subsetting quality with the paper's
// measures: per-frame performance prediction error, clustering
// efficiency, cluster outlier rate, subset size ratio, and the
// correlation of scaling curves between subset and parent.
package metrics

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/dcmath"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/subset"
	"repro/internal/trace"
)

// DefaultOutlierThreshold is the paper's outlier definition: a cluster
// whose intra-cluster prediction error exceeds 20%.
const DefaultOutlierThreshold = 0.20

// FrameReport is the evaluation of one clustered frame.
type FrameReport struct {
	FrameIndex  int
	Draws       int
	Clusters    int
	ActualNs    float64
	PredictedNs float64
	// RelError is |predicted - actual| / actual — the paper's
	// "performance prediction error per frame".
	RelError float64
	// Efficiency is 1 - clusters/draws — the paper's "clustering
	// efficiency".
	Efficiency float64
	// ClusterErrors holds, per cluster, the intra-cluster prediction
	// error: |repCost*size - memberCostSum| / memberCostSum.
	ClusterErrors []float64
	// Outliers counts clusters with error above the threshold used.
	Outliers int
}

// EvalScratch holds the per-frame working buffers of EvaluateFrame so
// a frame loop prices thousands of frames without per-frame slice
// churn. The zero value is ready; each instance serves one goroutine
// at a time.
type EvalScratch struct {
	costs, clusterActual []float64
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// EvaluateFrame prices every draw once and derives all per-frame
// quality measures from the clustering.
func EvaluateFrame(o subset.CostOracle, f *trace.Frame, cf *subset.ClusteredFrame, outlierThresh float64) FrameReport {
	return EvaluateFrameScratch(o, f, cf, outlierThresh, nil)
}

// EvaluateFrameScratch is EvaluateFrame with buffer reuse: working
// slices live in s across calls. Only FrameReport.ClusterErrors is
// freshly allocated (it escapes into the report). A nil s allocates
// per call, matching EvaluateFrame.
func EvaluateFrameScratch(o subset.CostOracle, f *trace.Frame, cf *subset.ClusteredFrame, outlierThresh float64, s *EvalScratch) FrameReport {
	if s == nil {
		s = &EvalScratch{}
	}
	s.costs = growFloats(s.costs, len(f.Draws))
	for i := range f.Draws {
		s.costs[i] = o.DrawNs(&f.Draws[i])
	}
	return EvaluateCosts(s.costs, cf, outlierThresh, s)
}

// EvaluateCosts derives a frame's quality measures from its
// clustering and its draws' oracle costs, costs[i] for draw i — the
// half of EvaluateFrameScratch after pricing, for callers that priced
// the frame themselves. s may be nil.
func EvaluateCosts(costs []float64, cf *subset.ClusteredFrame, outlierThresh float64, s *EvalScratch) FrameReport {
	if s == nil {
		s = &EvalScratch{}
	}
	rep := FrameReport{
		FrameIndex: cf.FrameIndex,
		Draws:      len(costs),
		Clusters:   cf.Result.K,
		Efficiency: cf.Result.Efficiency(),
	}
	s.clusterActual = growFloats(s.clusterActual, cf.Result.K)
	clusterActual := s.clusterActual
	for i, c := range cf.Result.Assign {
		rep.ActualNs += costs[i]
		clusterActual[c] += costs[i]
	}
	rep.ClusterErrors = make([]float64, cf.Result.K)
	for c, di := range cf.RepDraws {
		pred := costs[di] * cf.Weights[c]
		rep.PredictedNs += pred
		if clusterActual[c] > 0 {
			e := math.Abs(pred-clusterActual[c]) / clusterActual[c]
			rep.ClusterErrors[c] = e
			if e > outlierThresh {
				rep.Outliers++
			}
		}
	}
	if rep.ActualNs > 0 {
		rep.RelError = math.Abs(rep.PredictedNs-rep.ActualNs) / rep.ActualNs
	}
	return rep
}

// WorkloadReport aggregates frame reports over a workload — one row of
// the paper's clustering-accuracy table.
type WorkloadReport struct {
	Name   string
	Frames []FrameReport

	// MeanError is the average per-frame prediction error.
	MeanError float64
	// MaxError is the worst per-frame prediction error.
	MaxError float64
	// MeanEfficiency is the average clustering efficiency.
	MeanEfficiency float64
	// OutlierRate is outlier clusters / total clusters.
	OutlierRate float64

	TotalDraws    int
	TotalClusters int
	TotalOutliers int
}

// EvaluateWorkload clusters and evaluates every frame across
// GOMAXPROCS goroutines. Use EvaluateWorkloadContext to bound the
// fan-out or cancel mid-run.
func EvaluateWorkload(o subset.CostOracle, w *trace.Workload, fc *subset.FrameClusterer, outlierThresh float64) (WorkloadReport, error) {
	return EvaluateWorkloadContext(context.Background(), o, w, fc, outlierThresh, 0)
}

// EvaluateWorkloadContext clusters and evaluates every frame — the
// pipeline's documented expensive path: it prices every draw of every
// frame — fanning the per-frame work across at most workers goroutines
// (<= 0 selects GOMAXPROCS). Per-frame reports land in frame order and
// the aggregates are folded sequentially over them, so the report is
// bit-identical at any worker count. The oracle must be safe for
// concurrent use (*gpu.Simulator is).
func EvaluateWorkloadContext(ctx context.Context, o subset.CostOracle, w *trace.Workload, fc *subset.FrameClusterer, outlierThresh float64, workers int) (WorkloadReport, error) {
	ctx, sp := obs.StartSpan(ctx, "clustering-eval")
	defer sp.End()
	sp.AddItems(int64(len(w.Frames)))
	sp.SetWorkers(parallel.Workers(workers))
	scratch := sync.Pool{New: func() any { return &EvalScratch{} }}
	frames, err := parallel.Map(ctx, workers, len(w.Frames), func(_ context.Context, fi int) (FrameReport, error) {
		cf, err := fc.ClusterFrame(&w.Frames[fi], fi)
		if err != nil {
			return FrameReport{}, fmt.Errorf("metrics: frame %d: %w", fi, err)
		}
		s := scratch.Get().(*EvalScratch)
		rep := EvaluateFrameScratch(o, &w.Frames[fi], &cf, outlierThresh, s)
		scratch.Put(s)
		return rep, nil
	})
	if err != nil {
		return WorkloadReport{}, err
	}
	return Aggregate(ctx, w.Name, frames), nil
}

// Aggregate folds per-frame reports, in frame order, into a workload
// report, and records the per-frame error histogram and the cluster
// counters in ctx's observability run. Every workload evaluation ends
// here, so the aggregate has one definition.
func Aggregate(ctx context.Context, name string, frames []FrameReport) WorkloadReport {
	rep := WorkloadReport{Name: name, Frames: frames}
	relErrHist := obs.RunFromContext(ctx).Metrics().Histogram("cluster.frame_rel_error")
	var errSum, effSum float64
	for _, fr := range frames {
		errSum += fr.RelError
		effSum += fr.Efficiency
		if fr.RelError > rep.MaxError {
			rep.MaxError = fr.RelError
		}
		rep.TotalDraws += fr.Draws
		rep.TotalClusters += fr.Clusters
		rep.TotalOutliers += fr.Outliers
		relErrHist.Observe(fr.RelError)
	}
	n := float64(len(rep.Frames))
	rep.MeanError = errSum / n
	rep.MeanEfficiency = effSum / n
	if rep.TotalClusters > 0 {
		rep.OutlierRate = float64(rep.TotalOutliers) / float64(rep.TotalClusters)
	}
	if reg := obs.RunFromContext(ctx).Metrics(); reg != nil {
		reg.Counter("cluster.frames_evaluated").Add(int64(len(frames)))
		reg.Counter("cluster.clusters").Add(int64(rep.TotalClusters))
		reg.Counter("cluster.outliers").Add(int64(rep.TotalOutliers))
	}
	return rep
}

// Speedups converts a series of total runtimes into speedups relative
// to the runtime at refIdx. An out-of-range refIdx is experiment
// wiring, not runtime input, so it trips the invariant guard.
func Speedups(totalsNs []float64, refIdx int) []float64 {
	dcmath.Mustf(refIdx >= 0 && refIdx < len(totalsNs), "metrics: refIdx %d of %d", refIdx, len(totalsNs))
	ref := totalsNs[refIdx]
	out := make([]float64, len(totalsNs))
	for i, t := range totalsNs {
		if t > 0 {
			out[i] = ref / t
		}
	}
	return out
}

// CurveCorrelation is the Pearson correlation of two scaling curves —
// the paper's subset-validation statistic (reported as >= 99.7%).
func CurveCorrelation(a, b []float64) float64 { return dcmath.Pearson(a, b) }

// SampleError evaluates a generic frame sample (baseline samplers in
// E9) the same way EvaluateFrame scores clustering.
func SampleError(o subset.CostOracle, f *trace.Frame, fs *subset.FrameSample) float64 {
	var actual float64
	for i := range f.Draws {
		actual += o.DrawNs(&f.Draws[i])
	}
	if actual == 0 {
		return 0
	}
	return math.Abs(fs.PredictNs(o, f)-actual) / actual
}
