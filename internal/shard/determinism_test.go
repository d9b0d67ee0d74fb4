package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

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

// claimFiles lists leftover *.claim markers under a cache directory.
func claimFiles(t testing.TB, cacheDir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(cacheDir, "*", "*.claim"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
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
			wk := NewWorker(WorkerOptions{
				Cache: c,
				Owner: fmt.Sprintf("worker-%d", i),
				Poll:  time.Millisecond,
			})
			manifests[i], stats[i], errs[i] = wk.Run(context.Background(), w, cfgs, Spec{Index: i, Count: n})
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
					if left := claimFiles(t, cacheDir); len(left) != 0 {
						t.Fatalf("%d shards left claims behind: %v", n, left)
					}
				}
			})
		}
	}
}

// TestCrashedWorkerResumedViaStaleClaim kills a worker mid-shard —
// after it has claimed a task but before it prices it, the one window
// where state leaks — then restarts it against the same cache
// directory. The restart must detect the dead claim (counted in
// Stats.StaleClaims), take the task over, and the final merge must
// still be byte-identical to the sequential run.
func TestCrashedWorkerResumedViaStaleClaim(t *testing.T) {
	w := testWorkload(t, 7)
	cfgs := testGrid(4, 2)
	cacheDir := t.TempDir()

	crashed := errors.New("simulated crash")
	c1, err := cache.New(cache.Config{Dir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	victim := NewWorker(WorkerOptions{Cache: c1, Owner: "victim"})
	var claims int
	victim.hookAfterClaim = func(seq int) error {
		claims++
		if claims == 2 {
			return crashed // die holding the second claim
		}
		return nil
	}
	spec := Spec{Index: 0, Count: 2}
	if _, _, err := victim.Run(context.Background(), w, cfgs, spec); !errors.Is(err, crashed) {
		t.Fatalf("victim run: %v, want simulated crash", err)
	}
	if left := claimFiles(t, cacheDir); len(left) != 1 {
		t.Fatalf("crash should leave exactly the held claim, found %v", left)
	}

	// Restart: a short lease makes the debris immediately stale.
	time.Sleep(20 * time.Millisecond)
	c2, err := cache.New(cache.Config{Dir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	restarted := NewWorker(WorkerOptions{Cache: c2, Owner: "restart", LeaseTTL: time.Millisecond})
	m0, st, err := restarted.Run(context.Background(), w, cfgs, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Stats().StaleClaims; got < 1 {
		t.Fatalf("restart observed %d stale claims, want >= 1", got)
	}
	// The task priced before the crash is served from cache, not
	// repriced.
	if st.CacheHits < 1 {
		t.Fatalf("restart stats %+v: expected at least one cache hit from pre-crash work", st)
	}
	if left := claimFiles(t, cacheDir); len(left) != 0 {
		t.Fatalf("claims left after restart: %v", left)
	}

	// The other shard, then the byte-identity check.
	c3, err := cache.New(cache.Config{Dir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	other := NewWorker(WorkerOptions{Cache: c3, Owner: "other"})
	m1, _, err := other.Run(context.Background(), w, cfgs, Spec{Index: 1, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := Merge([]*Manifest{m0, m1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunSequential(context.Background(), nil, w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeRM(t, rm), encodeRM(t, ref)) {
		t.Fatal("merge after crash+restart differs from sequential")
	}
}

// TestCanceledWorkerReleasesClaims: cancellation is not a crash — the
// deferred release must clean the in-flight claim up, so a canceled
// sweep leaves the cache directory claim-free (satellite: no stale
// debris to age out on the next run).
func TestCanceledWorkerReleasesClaims(t *testing.T) {
	w := testWorkload(t, 7)
	cfgs := testGrid(4, 2)
	cacheDir := t.TempDir()
	c, err := cache.New(cache.Config{Dir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wk := NewWorker(WorkerOptions{Cache: c, Owner: "canceled"})
	wk.hookAfterClaim = func(seq int) error {
		cancel() // the claim is held; pricing will see a dead context
		return nil
	}
	_, _, err = wk.Run(ctx, w, cfgs, Spec{Index: 0, Count: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: %v, want context.Canceled", err)
	}
	if left := claimFiles(t, cacheDir); len(left) != 0 {
		t.Fatalf("cancellation leaked claims: %v", left)
	}
	if got := c.Stats().StaleClaims; got != 0 {
		t.Fatalf("clean cancellation should not count stale claims, got %d", got)
	}
}

// TestOverlappingShardsAgree races two workers over the SAME full-grid
// shard on one cache directory — every task double-claimed, every
// lookup contended. Both must emit byte-identical manifests, and the
// merge of the pair must equal the sequential run. Run under -race,
// this is the claim protocol's data-race proof.
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
			wk := NewWorker(WorkerOptions{
				Cache: c,
				Owner: fmt.Sprintf("twin-%d", i),
				Poll:  time.Millisecond,
			})
			manifests[i], _, errs[i] = wk.Run(context.Background(), w, cfgs, full)
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
			wk := NewWorker(WorkerOptions{})
			m, st, err := wk.Run(context.Background(), w, cfgs, Spec{Index: i, Count: n})
			if err != nil {
				t.Fatal(err)
			}
			if st.Owned != st.Computed || st.CacheHits != 0 || st.ClaimWaits != 0 || len(m.Entries) != st.Owned {
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

// TestWorkerWithoutCacheCanceled: a cache-free worker on a canceled
// context returns the cancellation and no manifest.
func TestWorkerWithoutCacheCanceled(t *testing.T) {
	w := testWorkload(t, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, _, err := NewWorker(WorkerOptions{}).Run(ctx, w, testGrid(4, 2), Spec{Index: 0, Count: 2})
	if !errors.Is(err, context.Canceled) || m != nil {
		t.Fatalf("canceled cacheless worker: manifest %v, err %v; want none and context.Canceled", m, err)
	}
}

// TestPricingPassesPerPath counts sweep.pricing_passes: a cache-free
// RunSequential prices its grid in GOMAXPROCS chunks, a cache-free
// worker its owned tasks likewise, and a cached RunSequential one
// config per pass, so that every pass is one cache entry.
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
	}); got != 3 {
		t.Errorf("cache-free RunSequential of %d configs: %d passes, want 3", len(cfgs), got)
	}
	for _, tc := range []struct {
		spec Spec
		want int64
	}{{Spec{Index: 0, Count: 1}, 3}, {Spec{Index: 1, Count: 4}, 2}, {Spec{Index: 0, Count: 8}, 1}} {
		if got := passes(func(ctx context.Context) error {
			_, _, err := NewWorker(WorkerOptions{}).Run(ctx, w, cfgs, tc.spec)
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
	wk := NewWorker(WorkerOptions{Cache: c, Owner: "warmed"})
	m, st, err := wk.Run(context.Background(), w, cfgs, Spec{Index: 0, Count: 1})
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
