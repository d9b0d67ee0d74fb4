// Shared inputs of the root benchmarks (the parallel engine, the
// result cache, the clustering hot path, the shard and coord sweeps):
// the reduced three-game corpus at 32 frames per game and the base
// oracle. The experiments themselves are benchmarked once, from their
// registry, by cmd/experiments' BenchmarkExperiments.
package repro_test

import (
	"sync"
	"testing"

	"repro/internal/gpu"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/tracetest"
)

const benchSeed = 42

var (
	benchOnce  sync.Once
	benchSuite []*trace.Workload
)

// suite returns the reduced three-game corpus shared by all benchmarks.
func suite(b *testing.B) []*trace.Workload {
	b.Helper()
	benchOnce.Do(func() {
		for i, p := range synth.SuiteProfiles() {
			p.Frames = 32
			w, err := tracetest.CachedWorkload(p, benchSeed+uint64(i)*0x9e3779b97f4a7c15)
			if err != nil {
				panic(err)
			}
			benchSuite = append(benchSuite, w)
		}
	})
	return benchSuite
}

func oracle(b *testing.B, w *trace.Workload) *gpu.Simulator {
	b.Helper()
	sim, err := gpu.NewSimulator(gpu.BaseConfig(), w)
	if err != nil {
		b.Fatal(err)
	}
	return sim
}
