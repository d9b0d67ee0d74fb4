package shard

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/cache"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// WorkerOptions configures one shard worker. The zero value of every
// field selects a safe default.
type WorkerOptions struct {
	// Cache is the shared result store workers coordinate through. A
	// disk-backed cache (Config.Dir set) is what makes the sharding
	// cross-process: entries and claims land in the shared directory.
	// Nil or memory-only degrades gracefully — the worker computes
	// everything it owns directly, which is correct but uncoordinated.
	// With no cache at all there is nothing to claim or store, so the
	// worker prices its owned tasks in one pass across all cores.
	Cache *cache.Cache

	// LeaseTTL bounds how long another worker's claim is believed
	// before it is treated as dead and taken over (default 30s). It
	// must exceed the worst-case pricing time of one config, or live
	// claims get stolen and work duplicates (results stay correct
	// regardless — duplicates are byte-identical by construction).
	LeaseTTL time.Duration

	// Poll is the wait between entry lookups while another worker
	// holds a claim (default 25ms).
	Poll time.Duration

	// Owner labels this worker's claims for diagnostics (default
	// "pid:<pid>").
	Owner string
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.Poll <= 0 {
		o.Poll = 25 * time.Millisecond
	}
	if o.Owner == "" {
		o.Owner = fmt.Sprintf("pid:%d", os.Getpid())
	}
	return o
}

// WorkerStats accounts one Run.
type WorkerStats struct {
	Owned      int // tasks this shard was responsible for
	Computed   int // ... priced by this worker (under a claim when it has a cache)
	CacheHits  int // ... resolved from the shared cache without pricing
	ClaimWaits int // poll cycles spent behind another worker's claim
}

// Worker executes one shard of a sweep. Construct with NewWorker; a
// Worker is single-use per Run but stateless between runs.
type Worker struct {
	opt WorkerOptions

	// hookAfterClaim, when set by tests in this package, runs after a
	// claim is acquired and before pricing; returning an error aborts
	// the run WITHOUT releasing the claim — the crash-injection point
	// for the determinism suite's kill-and-resume scenario.
	hookAfterClaim func(seq int) error
}

// NewWorker builds a worker.
func NewWorker(opt WorkerOptions) *Worker {
	return &Worker{opt: opt.withDefaults()}
}

// Run executes the shard: for every owned task in grid order, resolve
// the priced parent — from the shared cache if any worker already
// stored it, otherwise by claiming the key and pricing it — and emit
// the per-shard manifest. Without a cache it prices every owned task
// in one priceTasks call, as RunSequential does. The manifest depends
// only on (workload, grid, spec): re-running a shard over any cache
// state, or racing it against an overlapping shard, yields
// byte-identical manifests.
func (wk *Worker) Run(ctx context.Context, w *trace.Workload, cfgs []gpu.Config, spec Spec) (*Manifest, WorkerStats, error) {
	var stats WorkerStats
	if err := spec.Validate(); err != nil {
		return nil, stats, err
	}
	ctx, sp := obs.StartSpan(ctx, "shard-worker")
	defer sp.End()

	fp := w.Fingerprint()
	tasks, grid, err := Plan(fp, cfgs)
	if err != nil {
		return nil, stats, err
	}
	// The base simulator validates the workload once; per-task sims
	// derive from it exactly like the sequential sweep's do.
	base, err := gpu.NewSimulator(cfgs[0], w)
	if err != nil {
		return nil, stats, err
	}
	m := &Manifest{
		Version:  ManifestVersion,
		Workload: fp,
		Grid:     grid,
		GridSize: len(tasks),
		Shard:    spec,
	}
	if wk.opt.Cache == nil {
		var owned []Task
		for _, t := range tasks {
			if spec.Owns(t.Seq) {
				owned = append(owned, t)
			}
		}
		if m.Entries, err = priceTasks(ctx, base, w, owned); err != nil {
			return nil, stats, err
		}
		stats.Owned, stats.Computed = len(owned), len(owned)
	} else {
		cctx := cache.WithWorkload(ctx, wk.opt.Cache, fp)
		for _, t := range tasks {
			if !spec.Owns(t.Seq) {
				continue
			}
			stats.Owned++
			priced, computed, err := wk.resolve(cctx, base, w, t, len(tasks), &stats)
			if err != nil {
				return nil, stats, err
			}
			if computed {
				stats.Computed++
			} else {
				stats.CacheHits++
			}
			m.Entries = append(m.Entries, newEntry(t, priced))
		}
	}
	sp.AddItems(int64(stats.Owned))
	mtr := obs.RunFromContext(ctx).Metrics()
	mtr.Counter("shard.tasks_owned").Add(int64(stats.Owned))
	mtr.Counter("shard.tasks_computed").Add(int64(stats.Computed))
	mtr.Counter("shard.tasks_cache_hit").Add(int64(stats.CacheHits))
	mtr.Counter("shard.claim_waits").Add(int64(stats.ClaimWaits))
	return m, stats, nil
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

// resolve produces the priced parent for one task. Fast path: the
// entry is already in the shared cache (another shard, a previous
// attempt of this one, or a warm sequential run computed it). Slow
// path: claim the key, price it (PriceConfig stores through the cache)
// and release the claim — deferred, so cancellation and pricing errors
// release it too; only a crash leaves a claim behind, and the
// staleness sweep in cache.TryClaim reclaims those. Losing the claim
// race means polling for the winner's entry, re-running the staleness
// check each cycle.
func (wk *Worker) resolve(ctx context.Context, base *gpu.Simulator, w *trace.Workload, t Task, n int, stats *WorkerStats) (sweep.PricedParent, bool, error) {
	c := wk.opt.Cache
	for {
		if v, ok := cache.Lookup[sweep.PricedParent](ctx, c, t.Key); ok {
			return v, false, nil
		}
		if err := ctx.Err(); err != nil {
			return sweep.PricedParent{}, false, fmt.Errorf("shard: canceled at task %d/%d: %w", t.Seq+1, n, err)
		}
		state, holder := c.TryClaim(ctx, t.Key, wk.opt.Owner, wk.opt.LeaseTTL)
		if state == cache.ClaimAcquired {
			if wk.hookAfterClaim != nil {
				if err := wk.hookAfterClaim(t.Seq); err != nil {
					return sweep.PricedParent{}, false, err
				}
			}
			priced, err := func() (sweep.PricedParent, error) {
				defer c.ReleaseClaim(t.Key)
				_, p, err := sweep.PriceConfig(ctx, base, w, t.Config, t.Seq, n)
				return p, err
			}()
			if err != nil {
				return sweep.PricedParent{}, false, err
			}
			return priced, true, nil
		}
		stats.ClaimWaits++
		obs.RunFromContext(ctx).Logger().Debug("waiting on claim",
			"key", t.Key.String(), "holder", holder, "seq", t.Seq)
		select {
		case <-ctx.Done():
			return sweep.PricedParent{}, false, fmt.Errorf("shard: canceled waiting on claim for task %d/%d: %w", t.Seq+1, n, ctx.Err())
		case <-time.After(wk.opt.Poll):
		}
	}
}
