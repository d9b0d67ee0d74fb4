package sweep

import (
	"context"
	"fmt"

	"repro/internal/dcmath"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/subset"
	"repro/internal/trace"
)

// EnergyPoint is one configuration's performance and energy, measured
// on the parent and reconstructed from the subset.
type EnergyPoint struct {
	Config       gpu.Config
	ParentNs     float64
	SubsetNs     float64
	ParentEnergy gpu.Energy
	SubsetEnergy gpu.Energy
}

// EnergyResult is a completed energy-aware sweep.
type EnergyResult struct {
	Points []EnergyPoint
	// EDPCorrelation is the Pearson correlation of parent and subset
	// energy-delay-product curves (normalized to the first point).
	EDPCorrelation float64
	// BestByParentEDP / BestBySubsetEDP are the min-EDP picks.
	BestByParentEDP int
	BestBySubsetEDP int
	Agreement       bool
}

// RunEnergy prices the parent and the subset's reconstruction on every
// config under the power model, and compares min-EDP decisions. The
// grid fans out across GOMAXPROCS workers; use RunEnergyParallel to
// bound the fan-out or cancel mid-sweep.
func RunEnergy(w *trace.Workload, s *subset.Subset, pm gpu.PowerModel, cfgs []gpu.Config) (EnergyResult, error) {
	return RunEnergyParallel(context.Background(), w, s, pm, cfgs, 0)
}

// RunEnergyParallel is RunEnergy with cancellation and at most workers
// goroutines (<= 0 selects GOMAXPROCS); the parent is priced as in
// RunParallel. The min-EDP argmin is taken sequentially over the
// points in grid order, so the decision is bit-identical at any worker
// count.
func RunEnergyParallel(ctx context.Context, w *trace.Workload, s *subset.Subset, pm gpu.PowerModel, cfgs []gpu.Config, workers int) (EnergyResult, error) {
	if err := pm.Validate(); err != nil {
		return EnergyResult{}, err
	}
	if len(cfgs) < 2 {
		return EnergyResult{}, fmt.Errorf("sweep: need at least 2 configs, have %d", len(cfgs))
	}
	base, err := gpu.NewSimulator(cfgs[0], w)
	if err != nil {
		return EnergyResult{}, err
	}
	parents, err := PriceGrid(ctx, base, w, cfgs, workers)
	if err != nil {
		return EnergyResult{}, err
	}
	points, err := parallel.MapSlice(ctx, workers, cfgs, func(ctx context.Context, i int, cfg gpu.Config) (EnergyPoint, error) {
		sim, err := base.WithConfig(cfg)
		if err != nil {
			return EnergyPoint{}, err
		}
		priced := parents[i]
		pe := pm.Energy(cfg, priced.Totals)

		tn, cn, mn, tb := s.EstimateParentTotals(sim)
		se := pm.Energy(cfg, gpu.Totals{TotalNs: tn, ComputeNs: cn, MemoryNs: mn, TrafficBytes: tb})

		return EnergyPoint{
			Config: cfg, ParentNs: priced.TotalNs, SubsetNs: tn,
			ParentEnergy: pe, SubsetEnergy: se,
		}, nil
	})
	if err != nil {
		return EnergyResult{}, err
	}
	res := EnergyResult{Points: points}
	parentEDP := make([]float64, len(cfgs))
	subsetEDP := make([]float64, len(cfgs))
	for i, p := range points {
		parentEDP[i] = p.ParentEnergy.EDPJs
		subsetEDP[i] = p.SubsetEnergy.EDPJs
		if parentEDP[i] < parentEDP[res.BestByParentEDP] {
			res.BestByParentEDP = i
		}
		if subsetEDP[i] < subsetEDP[res.BestBySubsetEDP] {
			res.BestBySubsetEDP = i
		}
	}
	res.Agreement = res.BestByParentEDP == res.BestBySubsetEDP
	res.EDPCorrelation = dcmath.Pearson(
		metrics.Speedups(parentEDP, 0), metrics.Speedups(subsetEDP, 0))
	return res, nil
}
