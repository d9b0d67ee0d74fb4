package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/tracetest"
)

// detProfiles is the three-game corpus at determinism-test scale.
func detProfiles() []synth.Profile {
	ps := synth.SuiteProfiles()
	for i := range ps {
		ps[i].Frames = 16
		ps[i].MaterialsPerScene = 30
		ps[i].SharedMaterials = 8
		ps[i].Textures = 60
		ps[i].VSPool = 6
		ps[i].PSPool = 12
	}
	return ps
}

// sweepShards runs one worker per shard concurrently over a shared
// cache directory and merges their manifests. Each worker opens its
// OWN cache handle on the directory — the cross-process topology,
// in-process, which is exactly what the race detector needs to see.
func sweepShards(t testing.TB, w *trace.Workload, cfgs []gpu.Config, n int, cacheDir string) (*RunManifest, []WorkerStats) {
	t.Helper()
	manifests := make([]*Manifest, n)
	stats := make([]WorkerStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := cache.New(cache.Config{Dir: cacheDir})
			if err != nil {
				errs[i] = err
				return
			}
			manifests[i], stats[i], errs[i] = RunShard(context.Background(), c, w, w.Fingerprint(), cfgs, Spec{Index: i, Count: n})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i+1, n, err)
		}
	}
	rm, err := Merge(manifests)
	if err != nil {
		t.Fatalf("merge %d shards: %v", n, err)
	}
	return rm, stats
}

// newDiskCache opens a cache handle on dir, as one worker process would.
func newDiskCache(t testing.TB, dir string) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func encodeRM(t testing.TB, rm *RunManifest) []byte {
	t.Helper()
	data, err := rm.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestShardedSweepByteIdenticalToSequential is the shard layer's
// headline contract: for every corpus profile and seed, partitioning
// the sweep across 1, 2, 4 or 8 workers sharing one cache directory
// and merging their manifests yields a run manifest byte-identical to
// the uncached sequential fold — and a byte-identical rendered table.
func TestShardedSweepByteIdenticalToSequential(t *testing.T) {
	cfgs := testGrid(4, 2)
	for _, p := range detProfiles() {
		for _, seed := range []uint64{7, 1234} {
			t.Run(fmt.Sprintf("%s/seed%d", p.Name, seed), func(t *testing.T) {
				w, err := tracetest.CachedWorkload(p, seed)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := RunSequential(context.Background(), nil, w, cfgs)
				if err != nil {
					t.Fatal(err)
				}
				refBytes := encodeRM(t, ref)
				var refTable bytes.Buffer
				ref.Render(&refTable)
				for _, n := range []int{1, 2, 4, 8} {
					cacheDir := t.TempDir()
					rm, stats := sweepShards(t, w, cfgs, n, cacheDir)
					if got := encodeRM(t, rm); !bytes.Equal(got, refBytes) {
						t.Fatalf("%d shards: merged manifest differs from sequential\nseq:    %s\nmerged: %s", n, refBytes, got)
					}
					var table bytes.Buffer
					rm.Render(&table)
					if table.String() != refTable.String() {
						t.Fatalf("%d shards: rendered table differs from sequential", n)
					}
					owned := 0
					for _, s := range stats {
						owned += s.Owned
					}
					if owned != len(cfgs) {
						t.Fatalf("%d shards own %d tasks, grid has %d", n, owned, len(cfgs))
					}
				}
			})
		}
	}
}

// TestKilledShardResumesByRerun: a worker killed mid-shard leaves
// behind the cache entries of the owned tasks it finished, a prefix in
// grid order. For every such prefix, rerunning the shard on a fresh
// handle over the same directory reads the prefix as cache hits,
// prices only the rest, and merges to the sequential run's bytes.
func TestKilledShardResumesByRerun(t *testing.T) {
	w := testWorkload(t, 7)
	cfgs := testGrid(4, 2)
	spec := Spec{Index: 0, Count: 2}
	ref, err := RunSequential(context.Background(), nil, w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := RunShard(context.Background(), nil, w, w.Fingerprint(), cfgs, Spec{Index: 1, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	tasks, _, err := Plan(w.Fingerprint(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	var owned []gpu.Config
	for _, task := range tasks {
		if spec.Owns(task.Seq) {
			owned = append(owned, task.Config)
		}
	}
	base, err := gpu.NewSimulator(cfgs[0], w)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= len(owned); k++ {
		cacheDir := t.TempDir()
		killed := newDiskCache(t, cacheDir)
		if _, _, err := priceTasks(context.Background(), killed, base, w, w.Fingerprint, owned[:k]); err != nil {
			t.Fatal(err)
		}
		killed.Flush()
		m, st, err := RunShard(context.Background(), newDiskCache(t, cacheDir), w, w.Fingerprint(), cfgs, spec)
		if err != nil {
			t.Fatal(err)
		}
		if want := (WorkerStats{Owned: len(owned), Computed: len(owned) - k, CacheHits: k}); st != want {
			t.Fatalf("rerun after %d stored tasks: stats %+v, want %+v", k, st, want)
		}
		rm, err := Merge([]*Manifest{m, other})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeRM(t, rm), encodeRM(t, ref)) {
			t.Fatalf("rerun after %d stored tasks: merge differs from sequential", k)
		}
	}
}

// TestOneCacheMissPerColdTask: a cold cached sweep counts one cache
// miss per task, sharded or sequential, on a disk cache and on a
// memory-only one, and a rerun on the same cache reads every task as a
// hit and prices none.
func TestOneCacheMissPerColdTask(t *testing.T) {
	w := testWorkload(t, 7)
	cfgs := testGrid(4, 2)
	n := int64(len(cfgs))
	for _, disk := range []bool{false, true} {
		for _, sharded := range []bool{false, true} {
			var cfg cache.Config
			if disk {
				cfg.Dir = t.TempDir()
			}
			c, err := cache.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var st [2]WorkerStats
			for run := range st {
				if sharded {
					_, st[run], err = RunShard(context.Background(), c, w, w.Fingerprint(), cfgs, Spec{Index: 0, Count: 1})
				} else {
					_, err = RunSequential(context.Background(), c, w, cfgs)
				}
				if err != nil {
					t.Fatal(err)
				}
				if got := c.Stats(); got.Misses != n || got.Hits != int64(run)*n {
					t.Errorf("disk %v, sharded %v, run %d: %d misses and %d hits in all, want %d and %d",
						disk, sharded, run+1, got.Misses, got.Hits, n, int64(run)*n)
				}
			}
			cold, warm := WorkerStats{Owned: len(cfgs), Computed: len(cfgs)}, WorkerStats{Owned: len(cfgs), CacheHits: len(cfgs)}
			if sharded && (st[0] != cold || st[1] != warm) {
				t.Errorf("disk %v: shard stats %+v then %+v, want %+v then %+v", disk, st[0], st[1], cold, warm)
			}
		}
	}
}

// TestOverlappingShardsAgree races two workers over the SAME full-grid
// shard on one cache directory, each through its own cache handle, so
// both price every task and store the same entries. Both must emit
// byte-identical manifests, and the merge of the pair must equal the
// sequential run. Run under -race, this is the shared directory's
// data-race proof.
func TestOverlappingShardsAgree(t *testing.T) {
	w := testWorkload(t, 1234)
	cfgs := testGrid(4, 2)
	cacheDir := t.TempDir()
	full := Spec{Index: 0, Count: 1}

	manifests := make([]*Manifest, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := cache.New(cache.Config{Dir: cacheDir})
			if err != nil {
				errs[i] = err
				return
			}
			manifests[i], _, errs[i] = RunShard(context.Background(), c, w, w.Fingerprint(), cfgs, full)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("twin %d: %v", i, err)
		}
	}
	b0, err := manifests[0].Encode()
	if err != nil {
		t.Fatal(err)
	}
	b1, err := manifests[1].Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b0, b1) {
		t.Fatal("racing twins emitted different manifests")
	}
	rm, err := Merge(manifests)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunSequential(context.Background(), nil, w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeRM(t, rm), encodeRM(t, ref)) {
		t.Fatal("merged twins differ from sequential")
	}
}

// TestWorkerWithoutCache: no cache at all prices each shard's owned
// tasks in one batched call, with results identical to the sequential
// run with and without a cache — sharding never depends on the cache
// for correctness.
func TestWorkerWithoutCache(t *testing.T) {
	w := testWorkload(t, 7)
	cfgs := testGrid(3, 2)
	ref, err := RunSequential(context.Background(), nil, w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := RunSequential(context.Background(), c, w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := encodeRM(t, ref)
	if !bytes.Equal(encodeRM(t, cached), refBytes) {
		t.Fatal("cached sequential run differs from the cache-free one")
	}
	for n := 1; n <= 4; n++ {
		var manifests []*Manifest
		for i := 0; i < n; i++ {
			m, st, err := RunShard(context.Background(), nil, w, w.Fingerprint(), cfgs, Spec{Index: i, Count: n})
			if err != nil {
				t.Fatal(err)
			}
			if st.Owned != st.Computed || st.CacheHits != 0 || len(m.Entries) != st.Owned {
				t.Fatalf("%d shards, shard %d: cacheless worker stats %+v with %d entries: everything should be computed",
					n, i+1, st, len(m.Entries))
			}
			manifests = append(manifests, m)
		}
		rm, err := Merge(manifests)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeRM(t, rm), refBytes) {
			t.Fatalf("%d cacheless shards differ from sequential", n)
		}
	}
}

// TestWorkerWithoutCacheCanceled: a cache-free shard on a canceled
// context returns the cancellation and no manifest.
func TestWorkerWithoutCacheCanceled(t *testing.T) {
	w := testWorkload(t, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, _, err := RunShard(ctx, nil, w, w.Fingerprint(), testGrid(4, 2), Spec{Index: 0, Count: 2})
	if !errors.Is(err, context.Canceled) || m != nil {
		t.Fatalf("canceled cacheless worker: manifest %v, err %v; want none and context.Canceled", m, err)
	}
}

// cancelAtMiss is a context that cancels itself the first time Err is
// consulted once its cache has counted n misses: with n = 2, a shard
// over a cold cache prices and stores its first owned task, then sees
// a dead context right after the second task's lookup misses.
type cancelAtMiss struct {
	context.Context
	c      *cache.Cache
	n      int64
	cancel context.CancelFunc
}

func (x cancelAtMiss) Err() error {
	if x.c.Stats().Misses >= x.n {
		x.cancel()
	}
	return x.Context.Err()
}

// TestCanceledWorkerReleasesClaims: cancellation is not a crash. A
// shard canceled mid-run over a disk cache returns the cancellation
// and no manifest, and holds nothing in the cache directory afterwards
// but the whole entry of the task it finished (no temp files or other
// debris for the next run to trip over). A rerun on the same directory
// reads that entry as a hit, prices the rest, and merges to the
// sequential run's bytes.
func TestCanceledWorkerReleasesClaims(t *testing.T) {
	w := testWorkload(t, 7)
	cfgs := testGrid(4, 2)
	full := Spec{Index: 0, Count: 1}
	cacheDir := t.TempDir()
	c := newDiskCache(t, cacheDir)
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, _, err := RunShard(cancelAtMiss{inner, c, 2, cancel}, c, w, w.Fingerprint(), cfgs, full)
	if !errors.Is(err, context.Canceled) || m != nil {
		t.Fatalf("canceled worker: manifest %v, err %v; want none and context.Canceled", m, err)
	}
	c.Flush()
	var left []string
	err = filepath.WalkDir(cacheDir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			left = append(left, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 || filepath.Ext(left[0]) != ".s3dc" {
		t.Fatalf("cancellation after one priced task left %v in the cache directory, want one whole entry", left)
	}
	m, st, err := RunShard(context.Background(), newDiskCache(t, cacheDir), w, w.Fingerprint(), cfgs, full)
	if err != nil {
		t.Fatal(err)
	}
	if want := (WorkerStats{Owned: len(cfgs), Computed: len(cfgs) - 1, CacheHits: 1}); st != want {
		t.Fatalf("rerun after a canceled shard: stats %+v, want %+v", st, want)
	}
	rm, err := Merge([]*Manifest{m})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunSequential(context.Background(), nil, w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeRM(t, rm), encodeRM(t, ref)) {
		t.Fatal("rerun after a canceled shard differs from sequential")
	}
}

// TestPricingPassesPerPath counts sweep.pricing_passes: a cache-free
// RunSequential prices its grid in one pass, a cache-free worker its
// owned tasks likewise, and a cached RunSequential one config per
// pass, so that every pass is one cache entry.
func TestPricingPassesPerPath(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	w := testWorkload(t, 7)
	cfgs := testGrid(4, 2)
	passes := func(run func(ctx context.Context) error) int64 {
		t.Helper()
		r := obs.NewRun("test")
		if err := run(r.Context(context.Background())); err != nil {
			t.Fatal(err)
		}
		return r.Metrics().Counter("sweep.pricing_passes").Value()
	}
	if got := passes(func(ctx context.Context) error {
		_, err := RunSequential(ctx, nil, w, cfgs)
		return err
	}); got != 1 {
		t.Errorf("cache-free RunSequential of %d configs: %d passes, want 1", len(cfgs), got)
	}
	for _, tc := range []struct {
		spec Spec
		want int64
	}{{Spec{Index: 0, Count: 1}, 1}, {Spec{Index: 1, Count: 4}, 1}, {Spec{Index: 0, Count: 8}, 1}} {
		if got := passes(func(ctx context.Context) error {
			_, _, err := RunShard(ctx, nil, w, w.Fingerprint(), cfgs, tc.spec)
			return err
		}); got != tc.want {
			t.Errorf("cache-free worker %s: %d passes, want %d", tc.spec, got, tc.want)
		}
	}
	c, err := cache.New(cache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if got := passes(func(ctx context.Context) error {
		_, err := RunSequential(ctx, c, w, cfgs)
		return err
	}); got != int64(len(cfgs)) {
		t.Errorf("cached RunSequential of %d configs: %d passes, want one per config", len(cfgs), got)
	}
}

// TestSequentialWarmsShardsAndViceVersa: a sequential run and a
// sharded run share cache entries in both directions — the key schema
// is one and the same.
func TestSequentialWarmsShardsAndViceVersa(t *testing.T) {
	w := testWorkload(t, 7)
	cfgs := testGrid(2, 2)
	cacheDir := t.TempDir()
	c, err := cache.New(cache.Config{Dir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunSequential(context.Background(), c, w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	c.Flush()
	m, st, err := RunShard(context.Background(), c, w, w.Fingerprint(), cfgs, Spec{Index: 0, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Computed != 0 || st.CacheHits != st.Owned {
		t.Fatalf("worker over a warm cache stats %+v: everything should be a hit", st)
	}
	rm, err := Merge([]*Manifest{m})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeRM(t, rm), encodeRM(t, ref)) {
		t.Fatal("warm-cache shard differs from the sequential run that warmed it")
	}
}
