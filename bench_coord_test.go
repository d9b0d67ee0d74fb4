// Scaling benchmark for the multi-worker sweep coordinator: the same
// 32-config grid as BenchmarkShardSweep, priced sequentially in
// process (path=naive) versus coordinated over 1, 2 and 3 real
// subsetd-equivalent HTTP workers (real serve.Server handlers behind
// real loopback listeners). The coordinated arms report the
// DISTRIBUTED CRITICAL PATH: MaxInflight=1 serializes dispatches so no
// worker's busy time includes another's pricing on the shared host,
// and the reported ns/op is max(per-worker busy time) + merge — what a
// wall clock would show with one machine per worker. The metric does
// not depend on the host's core count, so the BENCH_coord.json gate
// transfers across CI hosts. `make bench-coord` records speedup_vs_naive per
// fleet width; the acceptance floor is >= 1.7x at 3 workers (HTTP,
// JSON and per-dispatch planning overhead bound it away from ideal).
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/coord"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/sweep"
	"repro/internal/trace"
)

func BenchmarkCoordSweep(b *testing.B) {
	w := suite(b)[0]
	core := []float64{0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7, 2.0}
	mem := []float64{0.6, 0.8, 1.0, 1.2}
	cfgs := sweep.Grid(gpu.BaseConfig(), core, mem)
	var buf bytes.Buffer
	if err := trace.EncodeStream(&buf, w); err != nil {
		b.Fatal(err)
	}
	traceBuf := buf.Bytes()

	b.Run("path=naive", func(b *testing.B) {
		var total time.Duration
		for i := 0; i < b.N; i++ {
			c, err := cache.New(cache.Config{Dir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			t0 := time.Now()
			if _, err := shard.RunSequential(context.Background(), c, w, cfgs); err != nil {
				b.Fatal(err)
			}
			c.Flush()
			total += time.Since(t0)
		}
		b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "ns/op")
	})

	for _, n := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("path=workers%d", n), func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				// Fresh cold workers per iteration, mirroring the naive
				// arm's cold cache: each worker is a real serve.Server on
				// its own loopback listener with its own cache directory.
				urls := make([]string, n)
				servers := make([]*httptest.Server, n)
				for j := 0; j < n; j++ {
					c, err := cache.New(cache.Config{Dir: b.TempDir()})
					if err != nil {
						b.Fatal(err)
					}
					s := serve.New(serve.Options{Cache: c, Run: obs.NewRun("bench-coord-worker")})
					servers[j] = httptest.NewServer(s.Handler())
					urls[j] = servers[j].URL
				}
				co, err := coord.New(coord.Options{
					Workers:      urls,
					Shards:       n, // one shard per worker: clean critical-path attribution
					MaxInflight:  1, // serialize attempts so busy times don't overlap
					ShardTimeout: 5 * time.Minute,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := co.Register(context.Background(), traceBuf); err != nil {
					b.Fatal(err)
				}
				_, st, err := co.Sweep(context.Background(), core, mem)
				if err != nil {
					b.Fatal(err)
				}
				var critical int64
				for _, wc := range st.PerWorker {
					if wc.BusyNs > critical {
						critical = wc.BusyNs
					}
				}
				total += time.Duration(critical + st.MergeNs)
				for _, ts := range servers {
					ts.Close()
				}
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "ns/op")
		})
	}
}
