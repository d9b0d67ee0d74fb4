// Package sweep runs architecture pathfinding studies: it prices a
// parent workload and its subset across grids of GPU configurations
// and quantifies how faithfully the subset reproduces the parent's
// scaling behaviour and design decisions.
//
// This is the consumer side of the paper: the entire point of workload
// subsetting is that these sweeps become ~100x cheaper when only the
// subset is simulated.
package sweep

import (
	"context"
	"fmt"

	"repro/internal/dcmath"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/subset"
	"repro/internal/trace"
)

// DefaultCoreClocks returns the core-frequency sweep of the validation
// experiment (E8): 0.4-2.0 GHz in 9 points.
func DefaultCoreClocks() []float64 {
	return []float64{0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0}
}

// DefaultMemClocks returns the memory-frequency sweep (E11).
func DefaultMemClocks() []float64 {
	return []float64{0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0}
}

// CoreClockSweep derives one config per core clock.
func CoreClockSweep(base gpu.Config, clocks []float64) []gpu.Config {
	out := make([]gpu.Config, len(clocks))
	for i, c := range clocks {
		out[i] = base.WithCoreClock(c)
	}
	return out
}

// MemClockSweep derives one config per memory clock.
func MemClockSweep(base gpu.Config, clocks []float64) []gpu.Config {
	out := make([]gpu.Config, len(clocks))
	for i, c := range clocks {
		out[i] = base.WithMemClock(c)
	}
	return out
}

// Grid derives the cross product of core and memory clocks — the
// pathfinding design space of E12.
func Grid(base gpu.Config, coreClocks, memClocks []float64) []gpu.Config {
	out := make([]gpu.Config, 0, len(coreClocks)*len(memClocks))
	for _, cc := range coreClocks {
		for _, mc := range memClocks {
			out = append(out, base.WithCoreClock(cc).WithMemClock(mc))
		}
	}
	return out
}

// Point is one configuration's measurement.
type Point struct {
	Config   gpu.Config
	ParentNs float64
	SubsetNs float64 // subset's reconstruction of the parent total
}

// Result is a completed sweep.
type Result struct {
	Points []Point
	// ParentSpeedups/SubsetSpeedups are relative to the first point.
	ParentSpeedups []float64
	SubsetSpeedups []float64
	// Correlation is the Pearson correlation of the two speedup curves
	// (the paper's r >= 0.997 validation statistic).
	Correlation float64
	// RankCorrelation is the Spearman correlation of raw runtimes —
	// does the subset order the configs like the parent?
	RankCorrelation float64
}

// Run prices the parent and the subset's parent-estimate on every
// config.
func Run(w *trace.Workload, s *subset.Subset, cfgs []gpu.Config) (Result, error) {
	return RunContext(context.Background(), w, s, cfgs)
}

// RunContext is Run with cancellation, fanning out across GOMAXPROCS
// workers; use RunParallel to bound the fan-out.
func RunContext(ctx context.Context, w *trace.Workload, s *subset.Subset, cfgs []gpu.Config) (Result, error) {
	return RunParallel(ctx, w, s, cfgs, 0)
}

// RunParallel prices the grid with at most workers goroutines
// (<= 0 selects GOMAXPROCS). The parent is priced in one pass over the
// draws, its frames claimed on the workers and each frame priced on
// every config (PriceGrid); nothing is looked up in a cache. The
// subset's reconstruction is ~100x cheaper, one config per task. The
// correlation statistics are folded sequentially over the points in
// grid order, so the Result is bit-identical at any worker count.
// Cancellation is checked once per parent frame inside each pricing
// pass.
func RunParallel(ctx context.Context, w *trace.Workload, s *subset.Subset, cfgs []gpu.Config, workers int) (Result, error) {
	return RunWith(ctx, nil, w, s, cfgs, nil, workers)
}

// RunWith is RunParallel for a caller that already holds a simulator
// built on w (base, on any config: it is only derived from; nil builds
// one on cfgs[0]) and, when parentNs is non-nil, the parent's total
// time on every config in grid order, priced in its own pass. Without
// parentNs the parent is priced here, as RunParallel prices it. Either
// way the points and statistics come from the same code, so a Result
// built from a caller's pricing is bit-identical to RunParallel's when
// the caller folded each config's total as PriceGrid does.
func RunWith(ctx context.Context, base *gpu.Simulator, w *trace.Workload, s *subset.Subset, cfgs []gpu.Config, parentNs []float64, workers int) (Result, error) {
	if len(cfgs) < 2 {
		return Result{}, fmt.Errorf("sweep: need at least 2 configs, have %d", len(cfgs))
	}
	if parentNs != nil && len(parentNs) != len(cfgs) {
		return Result{}, fmt.Errorf("sweep: %d parent totals for %d configs", len(parentNs), len(cfgs))
	}
	ctx, sp := obs.StartSpan(ctx, "validation-sweep")
	defer sp.End()
	sp.AddItems(int64(len(cfgs)))
	sp.SetWorkers(parallel.Workers(workers))
	obs.RunFromContext(ctx).Metrics().Counter("sweep.configs_priced").Add(int64(len(cfgs)))
	if base == nil {
		var err error
		if base, err = gpu.NewSimulator(cfgs[0], w); err != nil {
			return Result{}, err
		}
	}
	if parentNs == nil {
		parents, err := PriceGrid(ctx, base, w, cfgs, workers)
		if err != nil {
			return Result{}, err
		}
		parentNs = make([]float64, len(cfgs))
		for i := range parents {
			parentNs[i] = parents[i].TotalNs
		}
	}
	points, err := parallel.MapSlice(ctx, workers, cfgs, func(ctx context.Context, i int, cfg gpu.Config) (Point, error) {
		sim, err := base.WithConfig(cfg)
		if err != nil {
			return Point{}, err
		}
		return Point{Config: cfg, ParentNs: parentNs[i], SubsetNs: s.EstimateParentNs(sim)}, nil
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{Points: points}
	parent := make([]float64, len(cfgs))
	sub := make([]float64, len(cfgs))
	for i, p := range points {
		parent[i] = p.ParentNs
		sub[i] = p.SubsetNs
	}
	res.ParentSpeedups = metrics.Speedups(parent, 0)
	res.SubsetSpeedups = metrics.Speedups(sub, 0)
	res.Correlation = metrics.CurveCorrelation(res.ParentSpeedups, res.SubsetSpeedups)
	res.RankCorrelation = dcmath.Spearman(parent, sub)
	return res, nil
}

// Decision records which config each side would pick (minimum
// runtime) — the pathfinding outcome the subset must preserve.
type Decision struct {
	BestByParent int
	BestBySubset int
	Agreement    bool
}

// Decide extracts the pathfinding decision from a sweep.
func Decide(res Result) Decision {
	var d Decision
	for i, p := range res.Points {
		if p.ParentNs < res.Points[d.BestByParent].ParentNs {
			d.BestByParent = i
		}
		if p.SubsetNs < res.Points[d.BestBySubset].SubsetNs {
			d.BestBySubset = i
		}
	}
	d.Agreement = d.BestByParent == d.BestBySubset
	return d
}

// SubsetOnly prices just the subset across configs — the production
// pathfinding mode where the parent is never simulated. Returns the
// subset's parent-estimates per config.
func SubsetOnly(s *subset.Subset, cfgs []gpu.Config) ([]float64, error) {
	return SubsetOnlyContext(context.Background(), s, cfgs)
}

// SubsetOnlyContext is SubsetOnly with per-config cancellation across
// GOMAXPROCS workers; use SubsetOnlyParallel to bound the fan-out.
func SubsetOnlyContext(ctx context.Context, s *subset.Subset, cfgs []gpu.Config) ([]float64, error) {
	return SubsetOnlyParallel(ctx, s, cfgs, 0)
}

// SubsetOnlyParallel prices the subset on each config with at most
// workers goroutines (<= 0 selects GOMAXPROCS); estimates land in grid
// order.
func SubsetOnlyParallel(ctx context.Context, s *subset.Subset, cfgs []gpu.Config, workers int) ([]float64, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	base, err := gpu.NewSimulator(cfgs[0], s.Parent)
	if err != nil {
		return nil, err
	}
	return parallel.MapSlice(ctx, workers, cfgs, func(_ context.Context, i int, cfg gpu.Config) (float64, error) {
		sim, err := base.WithConfig(cfg)
		if err != nil {
			return 0, err
		}
		return s.EstimateParentNs(sim), nil
	})
}
