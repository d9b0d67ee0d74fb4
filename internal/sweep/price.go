package sweep

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/trace"
)

// PricedParent is the cacheable product of pricing a parent workload
// on one configuration: per-frame and total nanoseconds plus the
// aggregate totals the power model consumes. Config.Name is not part
// of it — the cache key uses the config's cost-model fingerprint, so
// two differently-named but identically-priced configs share one
// entry.
type PricedParent struct {
	FrameNs []float64
	TotalNs float64
	Totals  gpu.Totals
}

// PriceKey is the content address of PriceParent's product: the cache
// key under which pricing workload fp on cfg is stored. It is exported
// because every cached pricing path stores under exactly this key —
// gpusim's single-config price and each shard task — so the paths
// must always agree on the address or a rerun would recompute the
// entries already stored.
func PriceKey(fp trace.Fingerprint, cfg gpu.Config) cache.Key {
	cfgFp := cfg.Fingerprint()
	return cache.NewKey("sweep.price", gpu.ModelVersion).
		Bytes(fp[:]).
		Bytes(cfgFp[:]).
		Sum()
}

// PriceParent prices every frame of w on the simulator, with at most
// workers goroutines (<= 0 selects GOMAXPROCS), in a one-config
// PriceGrid pass. sim must have been built on w with cfg. Every pass
// folds in the same order (gpu.Simulator.PriceGrid), so one config
// priced alone or in a grid is bit-identical at any worker count.
func PriceParent(ctx context.Context, sim *gpu.Simulator, w *trace.Workload, cfg gpu.Config, workers int) (PricedParent, error) {
	p, err := PriceGrid(ctx, sim, w, []gpu.Config{cfg}, workers)
	if err != nil {
		return PricedParent{}, err
	}
	return p[0], nil
}

// PriceConfig derives cfg's simulator from base (skipping
// re-validation) and prices the parent on it, on the calling
// goroutine. It is the compute of a cached grid's task, which stores
// one entry per config (shard.RunSequential and shard.RunShard with a
// cache), so a distributed shard can never drift from the sequential
// path's setup or fold order. i and n only shape the error context
// ("config i+1/n").
func PriceConfig(ctx context.Context, base *gpu.Simulator, w *trace.Workload, cfg gpu.Config, i, n int) (*gpu.Simulator, PricedParent, error) {
	sim, err := base.WithConfig(cfg)
	if err != nil {
		return nil, PricedParent{}, err
	}
	priced, err := PriceParent(ctx, sim, w, cfg, 1)
	if err != nil {
		return nil, PricedParent{}, fmt.Errorf("sweep: config %d/%d: %w", i+1, n, err)
	}
	return sim, priced, nil
}

// PriceGrid prices the parent w on every config of cfgs in one
// gpu.Simulator.PriceGrid pass: frames are claimed on at most workers
// goroutines (<= 0 selects GOMAXPROCS), and each frame is priced on
// every config at once, so a draw's config-independent terms are
// computed once per pass. base must have been built on w. Results land
// in grid order and are bit-identical at any worker count. The pass is
// a price-grid span with draws x configs as its item count, and bumps
// the sweep.pricing_passes and sweep.draw_configs_priced counters,
// from which any run manifest yields ns per draw x config.
//
// It looks nothing up: a caller that caches wraps it in
// cache.GetOrCompute. A cached grid prices one config per cache entry
// (PriceConfig), so that each entry is stored as soon as its config is
// priced — the unit a shard rerun resumes from.
func PriceGrid(ctx context.Context, base *gpu.Simulator, w *trace.Workload, cfgs []gpu.Config, workers int) ([]PricedParent, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	ctx, sp := obs.StartSpan(ctx, "price-grid")
	defer sp.End()
	runs, err := base.PriceGrid(ctx, cfgs, workers)
	if err != nil {
		return nil, err
	}
	items := int64(w.NumDraws()) * int64(len(cfgs))
	sp.AddItems(items)
	m := obs.RunFromContext(ctx).Metrics()
	m.Counter("sweep.pricing_passes").Inc()
	m.Counter("sweep.draw_configs_priced").Add(items)
	out := make([]PricedParent, len(runs))
	for i, r := range runs {
		out[i] = PricedParent{FrameNs: r.FrameNs, TotalNs: r.TotalNs, Totals: r.Totals}
	}
	return out, nil
}

// RunResult converts the priced parent back to the simulator-level
// result shape, restoring the config name the cache key omits.
func (p PricedParent) RunResult(configName string) gpu.RunResult {
	return gpu.RunResult{ConfigName: configName, FrameNs: p.FrameNs, TotalNs: p.TotalNs}
}
