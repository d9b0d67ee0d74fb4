package repro_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/features"
	"repro/internal/linalg"
	"repro/internal/shader"
	"repro/internal/subset"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/tracetest"
)

// hotpathWorkload is one reduced game (single-thread benchmark target:
// the per-draw hot path, not the fan-out).
func hotpathWorkload(b testing.TB) *trace.Workload {
	b.Helper()
	p := synth.Bioshock1Profile()
	p.Frames = 8
	w, err := tracetest.CachedWorkload(p, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// naiveDrawInto freezes the pre-optimization per-draw extraction as
// the regression reference: shader-mix map probes, error-checked
// registry lookups and Log1p recomputation per draw, exactly as the
// extractor worked before the flat lookup tables. Column order differs
// from the real schema, which is irrelevant here: L2 distances — and
// therefore the clustering — are invariant under column permutation.
func naiveDrawInto(w *trace.Workload, mixes map[shader.ID]shader.Mix, d *trace.DrawCall, dst []float64) {
	vsMix, ok := mixes[d.VS]
	if !ok {
		panic("unknown VS")
	}
	psMix, ok := mixes[d.PS]
	if !ok {
		panic("unknown PS")
	}
	rt, err := w.RenderTarget(d.RT)
	if err != nil {
		panic(err)
	}
	dst[0] = math.Log1p(float64(d.TotalVertices()))
	dst[1] = math.Log1p(float64(d.TotalPrimitives()))
	dst[2] = math.Log1p(float64(d.InstanceCount))
	dst[3] = float64(vsMix.Count(shader.OpALU))
	dst[4] = float64(vsMix.Count(shader.OpSFU))
	dst[5] = float64(vsMix.Count(shader.OpInterp))
	dst[6] = float64(vsMix.Count(shader.OpMem))
	dst[7] = float64(vsMix.Count(shader.OpCF))
	dst[8] = float64(psMix.Count(shader.OpALU))
	dst[9] = float64(psMix.Count(shader.OpSFU))
	dst[10] = float64(psMix.Count(shader.OpTex))
	dst[11] = float64(psMix.Count(shader.OpInterp))
	dst[12] = float64(psMix.Count(shader.OpMem))
	dst[13] = float64(psMix.Count(shader.OpCF))
	var ws float64
	texCount := 0
	for _, tid := range d.Textures {
		if tid == 0 {
			continue
		}
		tex, err := w.Texture(tid)
		if err != nil {
			panic(err)
		}
		ws += float64(tex.Footprint())
		texCount++
	}
	dst[14] = float64(texCount)
	dst[15] = math.Log1p(ws * d.TexLocality)
	dst[16] = d.TexLocality
	pixels := d.CoverageFrac * float64(rt.Pixels())
	dst[17] = math.Log1p(pixels * d.Overdraw)
	dst[18] = d.Overdraw
	dst[19] = math.Log1p(float64(rt.Pixels()))
	if d.BlendEnable {
		dst[20] = 1
	}
	if d.DepthEnable {
		dst[21] = 1
	}
	if d.Topology == trace.TriangleList {
		dst[22] = 1
	}
}

// naiveLeader freezes exact leader clustering as the linear scan it
// was before the norm-sorted leader index: every draw is compared with
// every live leader in founding order, then centroids are member
// means. cluster.Leader returns the same bits faster, so the naive arm
// must not call it.
func naiveLeader(x *linalg.Matrix, threshold float64) cluster.Result {
	limit := threshold * threshold
	assign := make([]int, x.Rows)
	var leaders []int
	for i := range assign {
		row := x.Row(i)
		best := -1
		bestD := limit
		for c, li := range leaders {
			lrow := x.Row(li)
			var d float64
			for j, v := range row {
				diff := v - lrow[j]
				d += diff * diff
				if d > bestD {
					break
				}
			}
			if d <= bestD {
				best = c
				bestD = d
			}
		}
		if best == -1 {
			best = len(leaders)
			leaders = append(leaders, i)
		}
		assign[i] = best
	}
	k := len(leaders)
	cent := linalg.NewMatrix(k, x.Cols)
	counts := make([]float64, k)
	for i, c := range assign {
		crow := cent.Row(c)
		for j, v := range x.Row(i) {
			crow[j] += v
		}
		counts[c]++
	}
	for c := 0; c < k; c++ {
		linalg.Scale(1/counts[c], cent.Row(c))
	}
	return cluster.Result{Assign: assign, K: k, Centroids: cent}
}

// TestNaiveLeaderMatchesLeader keeps the frozen naive arm a faithful
// replica: on the hot-path corpus it must cluster exactly as
// cluster.Leader does, or the speedup ratios compare different work.
func TestNaiveLeaderMatchesLeader(t *testing.T) {
	w := hotpathWorkload(t)
	ex, err := features.NewExtractor(w)
	if err != nil {
		t.Fatal(err)
	}
	for fi := range w.Frames {
		x := ex.Frame(&w.Frames[fi])
		var z linalg.ZScore
		z.Fit(x)
		for i := 0; i < x.Rows; i++ {
			z.Apply(x.Row(i))
		}
		want, err := cluster.Leader(x, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		got := naiveLeader(x, 0.5)
		if got.K != want.K || !slices.Equal(got.Assign, want.Assign) || !slices.Equal(got.Centroids.Data, want.Centroids.Data) {
			t.Fatalf("frame %d: naive leader differs from cluster.Leader (K %d vs %d)", fi, got.K, want.K)
		}
	}
}

// naiveClusterFrames is the frozen pre-optimization per-frame path: a
// fresh feature matrix per frame filled by naiveDrawInto, batch
// z-score, exact leader clustering by linear scan, medoids. It exists
// to stay slow the way the code used to be, so BENCH_hotpath.json's
// speedup ratios measure real improvement machine-independently.
func naiveClusterFrames(b *testing.B, w *trace.Workload, mixes map[shader.ID]shader.Mix, threshold float64) int {
	b.Helper()
	clusters := 0
	for fi := range w.Frames {
		f := &w.Frames[fi]
		m := linalg.NewMatrix(len(f.Draws), features.NumFeatures)
		for i := range f.Draws {
			naiveDrawInto(w, mixes, &f.Draws[i], m.Row(i))
		}
		var z linalg.ZScore
		z.Fit(m)
		for i := 0; i < m.Rows; i++ {
			z.Apply(m.Row(i))
		}
		res := naiveLeader(m, threshold)
		res.Medoids(m)
		clusters += res.K
	}
	return clusters
}

// BenchmarkHotPath measures single-thread per-draw clustering
// throughput on two arms:
//
//	path=naive  frozen pre-optimization reference (per-draw allocs,
//	            exact leader by linear scan)
//	path=exact  current path (flat extraction, scratch reuse, the
//	            exact leader index)
//
// `make bench-hotpath` renders this into BENCH_hotpath.json; the
// speedup_vs_naive ratios are the tracked result, and
// cmd/benchguard gates CI on them.
func BenchmarkHotPath(b *testing.B) {
	w := hotpathWorkload(b)
	draws := float64(w.NumDraws())
	const threshold = 0.5

	b.Run("path=naive", func(b *testing.B) {
		mixes := make(map[shader.ID]shader.Mix, w.Shaders.Len())
		for _, p := range w.Shaders.Programs() {
			mixes[p.ID] = p.Analyze()
		}
		clusters := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clusters = naiveClusterFrames(b, w, mixes, threshold)
		}
		b.StopTimer()
		b.ReportMetric(float64(clusters), "clusters")
		b.ReportMetric(draws*float64(b.N)/b.Elapsed().Seconds(), "draws/s")
	})

	b.Run("path=exact", func(b *testing.B) {
		fc, err := subset.NewFrameClusterer(w, subset.Method{Algo: subset.AlgoLeader, Threshold: threshold, Normalizer: "zscore"})
		if err != nil {
			b.Fatal(err)
		}
		clusters := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clusters = 0
			for fi := range w.Frames {
				cf, err := fc.ClusterFrame(&w.Frames[fi], fi)
				if err != nil {
					b.Fatal(err)
				}
				clusters += cf.Result.K
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(clusters), "clusters")
		b.ReportMetric(draws*float64(b.N)/b.Elapsed().Seconds(), "draws/s")
	})
}
