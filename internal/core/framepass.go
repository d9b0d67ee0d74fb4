package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/features"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/subset"
	"repro/internal/trace"
)

// passVersion versions the frame pass's cached product: bump it with
// any change to the clustering evaluation, to the fold, or to
// passProduct's layout.
const passVersion = 1

// passProduct is what a frame pass computes, and the one cache entry
// it stores: the clustering evaluation and, per validation config in
// grid order, the parent's total time (nil without validation).
type passProduct struct {
	Report   metrics.WorkloadReport
	ParentNs []float64
}

// passVersions are the version constants a frame pass's key carries:
// passVersion, features.SchemaVersion, subset.ClusterVersion and
// gpu.ModelVersion. They are a parameter of passKey so that its test
// can vary each one.
type passVersions [4]int

var currentVersions = passVersions{passVersion, features.SchemaVersion, subset.ClusterVersion, gpu.ModelVersion}

// passKey is the content address of a frame pass's product: the
// workload fingerprint, every clustering method field, the cost-model
// fingerprint of the oracle and of each validation config in grid
// order, the outlier threshold and the version constants. Nothing else
// in opt can change the product (Workers and Lenient cannot, and
// Config.Name prices nothing), so nothing else is in the key.
func passKey(fp trace.Fingerprint, opt Options, cfgs []gpu.Config, v passVersions) cache.Key {
	b := cache.NewKey("core.framepass", v[0])
	for _, x := range v[1:] {
		b.Int(int64(x))
	}
	b.Bytes(fp[:])
	opt.Subset.Method.KeyInto(b)
	ofp := opt.Oracle.Fingerprint()
	b.Bytes(ofp[:])
	for _, c := range cfgs {
		cfp := c.Fingerprint()
		b.Bytes(cfp[:])
	}
	return b.Float(opt.OutlierThreshold).Sum()
}

// framePass is the clustering-eval stage. With a cache bound to ctx
// (cache.WithWorkload) its whole product is one entry under passKey;
// otherwise, and on a miss, evaluateFrames computes it. sim must be
// built on opt.Oracle, and fc on opt.Subset.Method.
func framePass(ctx context.Context, sim *gpu.Simulator, fc *subset.FrameClusterer, w *trace.Workload, opt Options, cfgs []gpu.Config) (passProduct, error) {
	ctx, sp := obs.StartSpan(ctx, "clustering-eval")
	defer sp.End()
	sp.AddItems(int64(len(w.Frames)))
	sp.SetWorkers(parallel.Workers(opt.Workers))
	pass := func() (passProduct, error) {
		return evaluateFrames(ctx, sim, fc, w, cfgs, opt.OutlierThreshold, opt.Workers)
	}
	c, fp, ok := cache.ForWorkload(ctx)
	if !ok {
		return pass()
	}
	return cache.GetOrCompute(ctx, c, passKey(fp, opt, cfgs, currentVersions), pass)
}

// evaluateFrames is one pass over the parent's frames on the worker
// pool. Each frame is clustered, priced on the oracle and on every
// config of cfgs in one gpu.FramePricer call, and evaluated with the
// oracle's per-draw times as its costs. The results are then folded
// strictly in frame order: the frame reports through
// metrics.Aggregate, and each config's frame times into its total as
// gpu.PriceGrid folds them. So the report equals
// metrics.EvaluateWorkloadContext's with sim as the oracle, and each
// total equals a PriceGrid pass's TotalNs, bit for bit. Its timings
// land in merged children of ctx's span.
func evaluateFrames(ctx context.Context, sim *gpu.Simulator, fc *subset.FrameClusterer, w *trace.Workload, cfgs []gpu.Config, outlierThresh float64, workers int) (passProduct, error) {
	// The oracle's column is the first config that prices exactly as
	// it does, or else one more column.
	cols := cfgs
	oracle := slices.IndexFunc(cfgs, func(c gpu.Config) bool { return samePricing(c, sim.Config()) })
	if oracle < 0 {
		oracle, cols = len(cfgs), append(slices.Clip(cfgs), sim.Config())
	}
	pricer, err := sim.NewFramePricer(cols)
	if err != nil {
		return passProduct{}, err
	}

	sp := obs.SpanFromContext(ctx)
	clusterSp, priceSp, evalSp := sp.MergedChild("clustering"), sp.MergedChild("price-grid"), sp.MergedChild("evaluation")
	type scratch struct {
		price  gpu.FrameScratch
		eval   metrics.EvalScratch
		drawNs [][]float64 // only the oracle's column is set
	}
	pool := sync.Pool{New: func() any { return &scratch{drawNs: make([][]float64, len(cols))} }}
	type frameOut struct {
		rep     metrics.FrameReport
		frameNs []float64 // per column
	}
	outs, err := parallel.Map(ctx, workers, len(w.Frames), func(_ context.Context, fi int) (frameOut, error) {
		f := &w.Frames[fi]
		t0 := time.Now()
		cf, err := fc.ClusterFrame(f, fi)
		if err != nil {
			return frameOut{}, fmt.Errorf("core: frame %d: %w", fi, err)
		}
		t1 := time.Now()
		sc := pool.Get().(*scratch)
		defer pool.Put(sc)
		costs := sc.drawNs[oracle]
		if cap(costs) < len(f.Draws) {
			costs = make([]float64, len(f.Draws))
		}
		costs = costs[:len(f.Draws)]
		sc.drawNs[oracle] = costs
		out := frameOut{frameNs: make([]float64, len(cols))}
		pricer.Price(f, &sc.price, out.frameNs, nil, sc.drawNs)
		t2 := time.Now()
		out.rep = metrics.EvaluateCosts(costs, &cf, outlierThresh, &sc.eval)
		clusterSp.AddDuration(t1.Sub(t0))
		clusterSp.AddItems(1)
		priceSp.AddDuration(t2.Sub(t1))
		priceSp.AddItems(int64(len(f.Draws)) * int64(len(cols)))
		evalSp.AddDuration(time.Since(t2))
		evalSp.AddItems(1)
		return out, nil
	})
	if err != nil {
		return passProduct{}, err
	}
	m := obs.RunFromContext(ctx).Metrics()
	m.Counter("sweep.pricing_passes").Inc()
	m.Counter("sweep.draw_configs_priced").Add(int64(w.NumDraws()) * int64(len(cols)))

	reports := make([]metrics.FrameReport, len(outs))
	var totals []float64
	if cfgs != nil {
		totals = make([]float64, len(cfgs))
	}
	for fi := range outs {
		reports[fi] = outs[fi].rep
		for c := range totals {
			totals[c] += outs[fi].frameNs[c]
		}
	}
	return passProduct{Report: metrics.Aggregate(ctx, w.Name, reports), ParentNs: totals}, nil
}

// samePricing reports whether a and b price every draw identically:
// they are equal in every field but Name, which no formula reads.
func samePricing(a, b gpu.Config) bool {
	a.Name, b.Name = "", ""
	return a == b
}
