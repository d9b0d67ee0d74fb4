package sweep

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/gpu"
	"repro/internal/subset"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/tracetest"
)

func sweepGame(t *testing.T) (*trace.Workload, *subset.Subset) {
	t.Helper()
	p := synth.Bioshock1Profile()
	p.Name = "sweeptest"
	p.Frames = 64
	p.MaterialsPerScene = 40
	p.SharedMaterials = 8
	p.Textures = 80
	p.VSPool = 6
	p.PSPool = 16
	w, err := tracetest.CachedWorkload(p, 41)
	if err != nil {
		t.Fatal(err)
	}
	s, err := subset.Build(w, subset.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return w, s
}

func TestSweepConstructors(t *testing.T) {
	base := gpu.BaseConfig()
	cs := CoreClockSweep(base, DefaultCoreClocks())
	if len(cs) != 9 {
		t.Fatalf("core sweep size %d", len(cs))
	}
	for i, c := range cs {
		if c.CoreClockGHz != DefaultCoreClocks()[i] {
			t.Errorf("config %d clock %v", i, c.CoreClockGHz)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("config %d invalid: %v", i, err)
		}
	}
	ms := MemClockSweep(base, DefaultMemClocks())
	if len(ms) != 7 {
		t.Fatalf("mem sweep size %d", len(ms))
	}
	grid := Grid(base, []float64{1, 2}, []float64{0.5, 1, 2})
	if len(grid) != 6 {
		t.Fatalf("grid size %d", len(grid))
	}
	if grid[0].CoreClockGHz != 1 || grid[0].MemClockGHz != 0.5 {
		t.Error("grid order wrong")
	}
}

func TestRunCoreSweep(t *testing.T) {
	w, s := sweepGame(t)
	res, err := Run(w, s, CoreClockSweep(gpu.BaseConfig(), []float64{0.5, 1.0, 2.0}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Higher clock must not be slower for either side.
	for i := 1; i < 3; i++ {
		if res.Points[i].ParentNs > res.Points[i-1].ParentNs {
			t.Error("parent slowed down with higher clock")
		}
		if res.Points[i].SubsetNs > res.Points[i-1].SubsetNs {
			t.Error("subset slowed down with higher clock")
		}
	}
	// Speedups are relative to point 0.
	if res.ParentSpeedups[0] != 1 || res.SubsetSpeedups[0] != 1 {
		t.Error("speedups not normalized to first point")
	}
	if res.Correlation < 0.99 {
		t.Errorf("correlation = %v", res.Correlation)
	}
	if res.RankCorrelation < 0.99 {
		t.Errorf("rank correlation = %v", res.RankCorrelation)
	}
}

func TestRunNeedsTwoConfigs(t *testing.T) {
	w, s := sweepGame(t)
	if _, err := Run(w, s, CoreClockSweep(gpu.BaseConfig(), []float64{1.0})); err == nil {
		t.Error("single-config sweep accepted")
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	w, s := sweepGame(t)
	bad := gpu.BaseConfig()
	bad.CoreClockGHz = -1
	if _, err := Run(w, s, []gpu.Config{bad, gpu.BaseConfig()}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestDecide(t *testing.T) {
	res := Result{Points: []Point{
		{ParentNs: 100, SubsetNs: 95},
		{ParentNs: 80, SubsetNs: 78},
		{ParentNs: 120, SubsetNs: 130},
	}}
	d := Decide(res)
	if d.BestByParent != 1 || d.BestBySubset != 1 || !d.Agreement {
		t.Errorf("decision = %+v", d)
	}
	res.Points[2].SubsetNs = 10 // subset now disagrees
	d = Decide(res)
	if d.BestBySubset != 2 || d.Agreement {
		t.Errorf("decision = %+v", d)
	}
}

func TestDecisionAgreementOnRealSweep(t *testing.T) {
	w, s := sweepGame(t)
	grid := Grid(gpu.BaseConfig(), []float64{0.5, 1.0, 2.0}, []float64{0.5, 1.0})
	res, err := Run(w, s, grid)
	if err != nil {
		t.Fatal(err)
	}
	d := Decide(res)
	if !d.Agreement {
		t.Errorf("subset picked config %d, parent %d", d.BestBySubset, d.BestByParent)
	}
}

func TestSubsetOnlyMatchesRun(t *testing.T) {
	w, s := sweepGame(t)
	cfgs := CoreClockSweep(gpu.BaseConfig(), []float64{0.5, 1.0})
	res, err := Run(w, s, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	only, err := SubsetOnly(s, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range only {
		if math.Abs(only[i]-res.Points[i].SubsetNs) > 1e-6 {
			t.Errorf("point %d: SubsetOnly %v != Run %v", i, only[i], res.Points[i].SubsetNs)
		}
	}
}

func TestMemSweepShapesDiffer(t *testing.T) {
	// Core and memory sweeps must produce different speedup shapes
	// (compute- vs memory-bound sensitivity) — otherwise the two
	// domains are degenerate and E11 is meaningless.
	w, s := sweepGame(t)
	core, err := Run(w, s, CoreClockSweep(gpu.BaseConfig(), []float64{0.5, 1.0, 2.0}))
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Run(w, s, MemClockSweep(gpu.BaseConfig(), []float64{0.5, 1.0, 2.0}))
	if err != nil {
		t.Fatal(err)
	}
	coreGain := core.ParentSpeedups[2]
	memGain := mem.ParentSpeedups[2]
	if math.Abs(coreGain-memGain) < 0.02 {
		t.Errorf("core gain %v ~= mem gain %v; domains degenerate", coreGain, memGain)
	}
}

// TestPricingDeterministicAcrossPathsAndWorkers: the parent priced on a
// grid in one PriceGrid pass with its frames on 1, 2 or 3 goroutines,
// and one PriceConfig per config through cache.GetOrCompute under
// PriceKey, cold and then read back from disk by a fresh cache, is the
// same bits on every path, and each config's Totals.TotalNs is its
// TotalNs. So a cached and a cache-free sweep hand the power model and
// the shard manifests the same totals.
func TestPricingDeterministicAcrossPathsAndWorkers(t *testing.T) {
	w, _ := sweepGame(t)
	cfgs := Grid(gpu.BaseConfig(), []float64{0.6, 1.4}, []float64{0.8, 1.2})
	base, err := gpu.NewSimulator(cfgs[0], w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := PriceGrid(context.Background(), base, w, cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	check := func(path string, got []PricedParent) {
		t.Helper()
		for i := range cfgs {
			g, r := got[i], want[i]
			if !same(g.Totals.TotalNs, g.TotalNs) {
				t.Errorf("%s config %d: Totals.TotalNs %v, TotalNs %v", path, i, g.Totals.TotalNs, g.TotalNs)
			}
			if len(g.FrameNs) != len(r.FrameNs) || !same(g.TotalNs, r.TotalNs) || g.Totals != r.Totals {
				t.Errorf("%s config %d: total %v totals %+v, want %v %+v", path, i, g.TotalNs, g.Totals, r.TotalNs, r.Totals)
			}
			for f := range g.FrameNs {
				if !same(g.FrameNs[f], r.FrameNs[f]) {
					t.Errorf("%s config %d frame %d: %v, want %v", path, i, f, g.FrameNs[f], r.FrameNs[f])
					break
				}
			}
		}
	}
	check("PriceGrid workers 1", want)
	for _, workers := range []int{2, 3} {
		got, err := PriceGrid(context.Background(), base, w, cfgs, workers)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("PriceGrid workers %d", workers), got)
	}
	dir := t.TempDir()
	for _, path := range []string{"cold PriceConfig", "warm PriceConfig"} {
		c, err := cache.New(cache.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ctx, fp := context.Background(), w.Fingerprint()
		got := make([]PricedParent, len(cfgs))
		for i, cfg := range cfgs {
			got[i], err = cache.GetOrCompute(ctx, c, PriceKey(fp, cfg), func() (PricedParent, error) {
				_, p, err := PriceConfig(ctx, base, w, cfg, i, len(cfgs))
				return p, err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if st := c.Stats(); path == "warm PriceConfig" && st.DiskHits != int64(len(cfgs)) {
			t.Fatalf("warm pass: %+v, want %d disk hits", st, len(cfgs))
		}
		check(path, got)
	}
}
