// Benchmarks for the content-addressed result cache, recorded by
// `make bench-cache` in BENCH_cache.json.
//
// BenchmarkCacheSweep prices the same 6-config validation sweep with an
// empty cache (mode=cold, every parent priced from scratch) and with a
// fully populated one (mode=warm, every parent price served by
// fingerprint); warm_speedup_vs_cold records cold/warm, which clears
// 2x by a wide margin because a warm sweep skips parent pricing — the
// dominant cost — entirely.
//
// BenchmarkCachePass is the pipeline-level ledger: one core.RunContext
// pass with no cache (mode=uncached), into an empty disk cache
// (mode=cold), and over the directory a previous pass filled, through
// a fresh handle as a new process would open it (mode=warm).
// time_vs_uncached records the cold and warm passes as multiples of
// the uncached one: the cache pays for itself when cold stays near 1
// and warm falls well below it.
package repro_test

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/subset"
	"repro/internal/sweep"
)

func BenchmarkCachePass(b *testing.B) {
	w := suite(b)[0]
	pass := func(b *testing.B, c *cache.Cache) {
		opt := core.DefaultOptions()
		opt.Workers = 1
		opt.Cache = c
		s, err := core.New(opt)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.RunContext(context.Background(), w); err != nil {
			b.Fatal(err)
		}
	}
	openDir := func(b *testing.B, dir string) *cache.Cache {
		c, err := cache.New(cache.Config{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		return c
	}

	b.Run("mode=uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pass(b, nil)
		}
	})

	b.Run("mode=cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := openDir(b, b.TempDir())
			b.StartTimer()
			pass(b, c)
		}
	})

	b.Run("mode=warm", func(b *testing.B) {
		dir := b.TempDir()
		pass(b, openDir(b, dir))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := openDir(b, dir)
			b.StartTimer()
			pass(b, c)
		}
	})
}

func BenchmarkCacheSweep(b *testing.B) {
	w := suite(b)[0]
	sub, err := subset.Build(w, subset.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	cfgs := sweep.CoreClockSweep(gpu.BaseConfig(), []float64{0.6, 0.8, 1.0, 1.2, 1.6, 2.0})
	fp := w.Fingerprint()

	b.Run("mode=cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c, err := cache.New(cache.Config{Dir: b.TempDir(), MaxMemBytes: 256 << 20})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			ctx := cache.WithWorkload(context.Background(), c, fp)
			if _, err := sweep.RunParallel(ctx, w, sub, cfgs, 1); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("mode=warm", func(b *testing.B) {
		c, err := cache.New(cache.Config{Dir: b.TempDir(), MaxMemBytes: 256 << 20})
		if err != nil {
			b.Fatal(err)
		}
		ctx := cache.WithWorkload(context.Background(), c, fp)
		if _, err := sweep.RunParallel(ctx, w, sub, cfgs, 1); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sweep.RunParallel(ctx, w, sub, cfgs, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
