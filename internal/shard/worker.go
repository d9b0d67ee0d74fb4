package shard

import (
	"context"

	"repro/internal/cache"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// WorkerStats accounts one RunShard.
type WorkerStats struct {
	Owned     int // tasks this shard was responsible for
	Computed  int // ... priced by this run
	CacheHits int // ... read from the cache without pricing
}

// RunShard executes one shard of a sweep: it prices every task the
// spec owns, in grid order, and emits the per-shard manifest. fp must
// be w's fingerprint (trace.Workload.Fingerprint): the caller already
// holds it, so a shard does not hash the workload again. With a cache,
// each owned task is one cache entry, so a rerun after a crash reads
// the tasks that already landed as cache hits and prices only the
// rest. The manifest depends only on (workload, grid, spec): rerunning
// a shard over any cache state, or racing it against an overlapping
// shard, yields byte-identical manifests.
func RunShard(ctx context.Context, c *cache.Cache, w *trace.Workload, fp trace.Fingerprint, cfgs []gpu.Config, spec Spec) (*Manifest, WorkerStats, error) {
	if err := spec.Validate(); err != nil {
		return nil, WorkerStats{}, err
	}
	ctx, sp := obs.StartSpan(ctx, "shard-worker")
	defer sp.End()

	tasks, grid, err := Plan(fp, cfgs)
	if err != nil {
		return nil, WorkerStats{}, err
	}
	// The base simulator validates the workload once; per-task sims
	// derive from it exactly like the sequential sweep's do.
	base, err := newSimulator(ctx, cfgs[0], w)
	if err != nil {
		return nil, WorkerStats{}, err
	}
	var owned []Task
	for _, t := range tasks {
		if spec.Owns(t.Seq) {
			owned = append(owned, t)
		}
	}
	entries, computed, err := priceTasks(ctx, c, base, w, owned)
	if err != nil {
		return nil, WorkerStats{}, err
	}
	stats := WorkerStats{Owned: len(owned), Computed: computed, CacheHits: len(owned) - computed}
	sp.AddItems(int64(stats.Owned))
	mtr := obs.RunFromContext(ctx).Metrics()
	mtr.Counter("shard.tasks_owned").Add(int64(stats.Owned))
	mtr.Counter("shard.tasks_computed").Add(int64(stats.Computed))
	mtr.Counter("shard.tasks_cache_hit").Add(int64(stats.CacheHits))
	return &Manifest{
		Version:  ManifestVersion,
		Workload: fp,
		Grid:     grid,
		GridSize: len(tasks),
		Shard:    spec,
		Entries:  entries,
	}, stats, nil
}

// fingerprint and newSimulator are a sweep's set-up, each recorded as
// a span of its own.
func fingerprint(ctx context.Context, w *trace.Workload) trace.Fingerprint {
	_, sp := obs.StartSpan(ctx, "fingerprint")
	defer sp.End()
	return w.Fingerprint()
}

func newSimulator(ctx context.Context, cfg gpu.Config, w *trace.Workload) (*gpu.Simulator, error) {
	_, sp := obs.StartSpan(ctx, "new-simulator")
	defer sp.End()
	return gpu.NewSimulator(cfg, w)
}

// newEntry records task t's priced parent as a manifest entry.
func newEntry(t Task, priced sweep.PricedParent) Entry {
	return Entry{
		Seq:          t.Seq,
		CoreClockGHz: t.Config.CoreClockGHz,
		MemClockGHz:  t.Config.MemClockGHz,
		ConfigFP:     t.Config.Fingerprint(),
		Key:          t.Key,
		Frames:       len(priced.FrameNs),
		FrameDigest:  frameDigest(priced.FrameNs),
		TotalNs:      priced.TotalNs,
		Totals:       priced.Totals,
	}
}
