package gpu_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gpu"
	"repro/internal/shader"
	"repro/internal/sweep"
	"repro/internal/synth"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/tracetest"
)

// mixedGrid is a differential grid that varies every config-dependent
// input of the cost model: both clocks, the texture-cache geometry
// (capacity and line size, so a pass evaluates several geometries),
// the device tier, and noise on and off.
func mixedGrid() []gpu.Config {
	base := gpu.BaseConfig()
	smallCache := base.WithCoreClock(1.4)
	smallCache.TexCacheKB, smallCache.TexCacheLineB, smallCache.TexCacheWays = 32, 128, 4
	quiet := base.WithMemClock(0.6)
	quiet.NoiseAmp = 0
	wideLine := gpu.EnthusiastConfig().WithCoreClock(0.8)
	wideLine.TexCacheLineB = 256
	return []gpu.Config{
		base,
		base.WithCoreClock(0.4).WithMemClock(1.75),
		smallCache,
		quiet,
		gpu.LowPowerConfig(),
		wideLine,
		base.WithCoreClock(2.0),
	}
}

// diffProfiles is the three-game corpus trimmed to test scale.
func diffProfiles() []synth.Profile {
	ps := synth.SuiteProfiles()
	for i := range ps {
		ps[i].Frames = 10
		ps[i].MaterialsPerScene = 30
		ps[i].SharedMaterials = 8
		ps[i].Textures = 60
		ps[i].VSPool = 6
		ps[i].PSPool = 12
	}
	return ps
}

// bits maps floats to their IEEE-754 bit patterns, so == on the
// result is bit equality (negative zero and NaN payloads included).
func bits(xs ...float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

func sameBits(a, b []float64) bool { return slices.Equal(bits(a...), bits(b...)) }

func sameTotals(a, b gpu.Totals) bool {
	return sameBits([]float64{a.TotalNs, a.ComputeNs, a.MemoryNs, a.TrafficBytes},
		[]float64{b.TotalNs, b.ComputeNs, b.MemoryNs, b.TrafficBytes})
}

func sameDrawCost(a, b gpu.DrawCost) bool {
	fields := func(dc gpu.DrawCost) []float64 {
		return []float64{dc.VSCycles, dc.SetupCycles, dc.RasterCycles, dc.PSCycles, dc.ROPCycles,
			dc.CoreCycles, dc.VertexBytes, dc.TexBytes, dc.RTBytes, dc.DepthBytes, dc.ShadedPixels,
			dc.TexHitRate, dc.ComputeNs, dc.MemoryNs, dc.OverheadNs, dc.TotalNs}
	}
	return a.MemoryBound == b.MemoryBound && sameBits(fields(a), fields(b))
}

// checkAgainstReference asserts that one PriceGrid pass over cfgs
// agrees bit for bit with the frozen reference priced one config at a
// time — per draw (DrawCost) and per run (FrameNs, TotalNs, Totals).
func checkAgainstReference(t *testing.T, w *trace.Workload, cfgs []gpu.Config) {
	t.Helper()
	base, err := gpu.NewSimulator(cfgs[0], w)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := base.PriceGrid(context.Background(), cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for c, cfg := range cfgs {
		ref := gpu.NewReferenceSim(cfg, w)
		frameNs, totalNs, totals := ref.PriceParent()
		got := runs[c]
		if got.ConfigName != cfg.Name || !sameBits(got.FrameNs, frameNs) ||
			!sameBits([]float64{got.TotalNs}, []float64{totalNs}) || !sameTotals(got.Totals, totals) {
			t.Fatalf("config %d (%s): kernel total %v totals %+v, reference total %v totals %+v",
				c, cfg.Name, got.TotalNs, got.Totals, totalNs, totals)
		}
		sim, err := base.WithConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for fi := range w.Frames {
			for di := range w.Frames[fi].Draws {
				d := &w.Frames[fi].Draws[di]
				if g, r := sim.DrawCost(d), ref.DrawCost(d); !sameDrawCost(g, r) {
					t.Fatalf("config %d frame %d draw %d: DrawCost %+v, reference %+v", c, fi, di, g, r)
				}
			}
		}
	}
}

func TestPriceGridMatchesReference(t *testing.T) {
	for _, p := range diffProfiles() {
		for _, seed := range []uint64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", p.Name, seed), func(t *testing.T) {
				w, err := tracetest.CachedWorkload(p, seed)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstReference(t, w, mixedGrid())
			})
		}
	}
}

// TestFramePricerDrawColumnsEqualDrawNs is the frame pass's oracle
// contract: every per-draw column the kernel writes equals DrawNs on a
// simulator for that column's config, bit for bit, for every draw of
// all three profiles (at test scale). The columns are the default
// validation sweep plus the oracle appended as a column of its own,
// and the mixed grid; the frame times must equal FrameNs, and a
// one-config PriceGrid must equal RunContext at several frame-worker
// counts.
func TestFramePricerDrawColumnsEqualDrawNs(t *testing.T) {
	grids := [][]gpu.Config{
		append(sweep.CoreClockSweep(gpu.BaseConfig(), sweep.DefaultCoreClocks()), gpu.BaseConfig()),
		mixedGrid(),
	}
	for _, p := range diffProfiles() {
		for _, seed := range []uint64{1, 2} {
			w, err := tracetest.CachedWorkload(p, seed)
			if err != nil {
				t.Fatal(err)
			}
			base, err := gpu.NewSimulator(gpu.BaseConfig(), w)
			if err != nil {
				t.Fatal(err)
			}
			for gi, cfgs := range grids {
				pricer, err := base.NewFramePricer(cfgs)
				if err != nil {
					t.Fatal(err)
				}
				sims := make([]*gpu.Simulator, len(cfgs))
				for c := range cfgs {
					if sims[c], err = base.WithConfig(cfgs[c]); err != nil {
						t.Fatal(err)
					}
				}
				var sc gpu.FrameScratch
				frameNs := make([]float64, len(cfgs))
				drawNs := make([][]float64, len(cfgs))
				for fi := range w.Frames {
					f := &w.Frames[fi]
					for c := range drawNs {
						drawNs[c] = make([]float64, len(f.Draws))
					}
					pricer.Price(f, &sc, frameNs, nil, drawNs)
					for c, sim := range sims {
						for di := range f.Draws {
							if got, want := drawNs[c][di], sim.DrawNs(&f.Draws[di]); !sameBits([]float64{got}, []float64{want}) {
								t.Fatalf("%s seed %d grid %d config %d frame %d draw %d: column %v, DrawNs %v",
									p.Name, seed, gi, c, fi, di, got, want)
							}
						}
						if got, want := frameNs[c], sim.FrameNs(f); !sameBits([]float64{got}, []float64{want}) {
							t.Fatalf("%s seed %d grid %d config %d frame %d: frame time %v, FrameNs %v",
								p.Name, seed, gi, c, fi, got, want)
						}
					}
				}
			}
			want, err := base.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				runs, err := base.PriceGrid(context.Background(), []gpu.Config{base.Config()}, workers)
				if err != nil {
					t.Fatal(err)
				}
				got := runs[0].RunResult
				if got.ConfigName != want.ConfigName || !sameBits(got.FrameNs, want.FrameNs) ||
					!sameBits([]float64{got.TotalNs}, []float64{want.TotalNs}) {
					t.Fatalf("%s seed %d: PriceGrid at %d workers differs from RunContext", p.Name, seed, workers)
				}
			}
		}
	}
}

// bandwidthTwins returns two adjacent memory clocks near m whose
// bandwidths on cfg round to one number.
func bandwidthTwins(t *testing.T, cfg gpu.Config, m float64) (float64, float64) {
	t.Helper()
	a := m
	for range 1000 {
		b := math.Nextafter(a, math.Inf(1))
		if cfg.WithMemClock(a).BandwidthGBs() == cfg.WithMemClock(b).BandwidthGBs() {
			return a, b
		}
		a = b
	}
	t.Fatalf("no two adjacent memory clocks above %v share a bandwidth", m)
	return 0, 0
}

// TestFramePricerColumnsPerClassAndDivisor prices, in one pass, two
// architecture classes on the same clocks (a BaseConfig family and a
// LowPowerConfig family, each with repeated core clocks, repeated
// memory clocks and two memory clocks whose bandwidths round to one
// number) and a third class holding a single config. A column shared
// across classes, or across configs whose divisors differ, would time
// a config on another's cycles, traffic or clock. Each config's
// PricedRun must equal the frozen reference priced alone, at 1, 2 and
// 3 workers, and each per-draw column DrawNs.
func TestFramePricerColumnsPerClassAndDivisor(t *testing.T) {
	twinA, twinB := bandwidthTwins(t, gpu.BaseConfig(), 1.5)
	var cfgs []gpu.Config
	for _, family := range []gpu.Config{gpu.BaseConfig(), gpu.LowPowerConfig()} {
		cfgs = append(cfgs, sweep.Grid(family, []float64{0.6, 1.0, 1.4}, []float64{0.75, 1.0})...)
		cfgs = append(cfgs, family.WithMemClock(twinA), family.WithMemClock(twinB))
	}
	cfgs = append(cfgs, gpu.EnthusiastConfig().WithCoreClock(1.0))
	for _, p := range diffProfiles() {
		w, err := tracetest.CachedWorkload(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		base, err := gpu.NewSimulator(cfgs[0], w)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3} {
			runs, err := base.PriceGrid(context.Background(), cfgs, workers)
			if err != nil {
				t.Fatal(err)
			}
			for c, cfg := range cfgs {
				frameNs, totalNs, totals := gpu.NewReferenceSim(cfg, w).PriceParent()
				got := runs[c]
				if got.ConfigName != cfg.Name || !sameBits(got.FrameNs, frameNs) ||
					!sameBits([]float64{got.TotalNs}, []float64{totalNs}) || !sameTotals(got.Totals, totals) {
					t.Fatalf("%s workers %d config %d (%s): total %v totals %+v, reference %v %+v",
						p.Name, workers, c, cfg.Name, got.TotalNs, got.Totals, totalNs, totals)
				}
			}
		}
		pricer, err := base.NewFramePricer(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		var sc gpu.FrameScratch
		frameNs := make([]float64, len(cfgs))
		drawNs := make([][]float64, len(cfgs))
		for fi := range w.Frames {
			f := &w.Frames[fi]
			for c := range drawNs {
				drawNs[c] = make([]float64, len(f.Draws))
			}
			pricer.Price(f, &sc, frameNs, nil, drawNs)
			for c, cfg := range cfgs {
				sim, err := base.WithConfig(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for di := range f.Draws {
					if got, want := drawNs[c][di], sim.DrawNs(&f.Draws[di]); !sameBits([]float64{got}, []float64{want}) {
						t.Fatalf("%s config %d (%s) frame %d draw %d: column %v, DrawNs %v", p.Name, c, cfg.Name, fi, di, got, want)
					}
				}
			}
		}
	}
}

// TestPriceGridChunkingsMatchReference prices a 9-config sweep through
// sweep.PriceGrid with its frames claimed on 1, 2, 4 and 9 goroutines
// and checks every config against the reference.
func TestPriceGridChunkingsMatchReference(t *testing.T) {
	w, err := tracetest.CachedWorkload(diffProfiles()[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := sweep.CoreClockSweep(gpu.BaseConfig(), sweep.DefaultCoreClocks())
	cfgs[4].NoiseAmp = 0
	cfgs[6].TexCacheKB, cfgs[6].TexCacheLineB = 64, 32
	type want struct {
		frameNs []float64
		totalNs float64
		totals  gpu.Totals
	}
	refs := make([]want, len(cfgs))
	for i, cfg := range cfgs {
		refs[i].frameNs, refs[i].totalNs, refs[i].totals = gpu.NewReferenceSim(cfg, w).PriceParent()
	}
	base, err := gpu.NewSimulator(cfgs[0], w)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 9} {
		got, err := sweep.PriceGrid(context.Background(), base, w, cfgs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(cfgs) {
			t.Fatalf("workers %d: %d results for %d configs", workers, len(got), len(cfgs))
		}
		for i := range cfgs {
			if !sameBits(got[i].FrameNs, refs[i].frameNs) || !sameBits([]float64{got[i].TotalNs}, []float64{refs[i].totalNs}) ||
				!sameTotals(got[i].Totals, refs[i].totals) {
				t.Fatalf("workers %d config %d: total %v, reference %v", workers, i, got[i].TotalNs, refs[i].totalNs)
			}
		}
	}
}

// TestPriceGridDeterministicAcrossWorkers is the driver's fold
// contract: on every game and seed of the differential corpus and the
// mixed grid, PriceGrid returns the same bits with its frames claimed
// on 1, 2, 3 or 8 goroutines, and every config's Totals.TotalNs is its
// TotalNs, because both fold the same frame sums in frame order.
func TestPriceGridDeterministicAcrossWorkers(t *testing.T) {
	for _, p := range diffProfiles() {
		for _, seed := range []uint64{1, 2} {
			w, err := tracetest.CachedWorkload(p, seed)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := gpu.NewSimulator(gpu.BaseConfig(), w)
			if err != nil {
				t.Fatal(err)
			}
			var want []gpu.PricedRun
			for _, workers := range []int{1, 2, 3, 8} {
				runs, err := sim.PriceGrid(context.Background(), mixedGrid(), workers)
				if err != nil {
					t.Fatal(err)
				}
				for c, r := range runs {
					if !sameBits([]float64{r.Totals.TotalNs}, []float64{r.TotalNs}) {
						t.Fatalf("%s seed %d workers %d config %d: Totals.TotalNs %v, TotalNs %v",
							p.Name, seed, workers, c, r.Totals.TotalNs, r.TotalNs)
					}
				}
				if want == nil {
					want = runs
					continue
				}
				for c := range runs {
					g, r := runs[c], want[c]
					if g.ConfigName != r.ConfigName || !sameBits(g.FrameNs, r.FrameNs) ||
						!sameBits([]float64{g.TotalNs}, []float64{r.TotalNs}) || !sameTotals(g.Totals, r.Totals) {
						t.Fatalf("%s seed %d config %d: %d workers differ from 1", p.Name, seed, c, workers)
					}
				}
			}
		}
	}
}

// TestPriceGridClassKeyCoversEveryField prices, in one pass, a grid of
// BaseConfig and one variant per Config field other than Name, each
// differing from BaseConfig in that field alone, with a base-class
// config at another clock after each variant. A class key that left
// out a field the architecture half reads would price that variant
// with BaseConfig's cycles or traffic and break bit equality with the
// reference.
func TestPriceGridClassKeyCoversEveryField(t *testing.T) {
	variants := map[string]func(c *gpu.Config){
		"CoreClockGHz":     func(c *gpu.Config) { c.CoreClockGHz = 1.3 },
		"MemClockGHz":      func(c *gpu.Config) { c.MemClockGHz = 0.7 },
		"NumEUs":           func(c *gpu.Config) { c.NumEUs = 12 },
		"SIMDWidth":        func(c *gpu.Config) { c.SIMDWidth = 16 },
		"PrimSetupRate":    func(c *gpu.Config) { c.PrimSetupRate = 2 },
		"RasterRate":       func(c *gpu.Config) { c.RasterRate = 4 },
		"ROPRate":          func(c *gpu.Config) { c.ROPRate = 16 },
		"TexCacheKB":       func(c *gpu.Config) { c.TexCacheKB = 64 },
		"TexCacheLineB":    func(c *gpu.Config) { c.TexCacheLineB = 128 },
		"TexCacheWays":     func(c *gpu.Config) { c.TexCacheWays = 4 },
		"DRAMBytesPerClk":  func(c *gpu.Config) { c.DRAMBytesPerClk = 12.8 },
		"DrawOverheadNs":   func(c *gpu.Config) { c.DrawOverheadNs = 900 },
		"OverlapBeta":      func(c *gpu.Config) { c.OverlapBeta = 0.5 },
		"VertexSizeB":      func(c *gpu.Config) { c.VertexSizeB = 48 },
		"ColorCompression": func(c *gpu.Config) { c.ColorCompression = 1 },
		"DepthCompression": func(c *gpu.Config) { c.DepthCompression = 0.5 },
		"NoiseAmp":         func(c *gpu.Config) { c.NoiseAmp = 0.2 },
		"NoiseRefNs":       func(c *gpu.Config) { c.NoiseRefNs = 20000 },
	}
	rt := reflect.TypeOf(gpu.Config{})
	if len(variants) != rt.NumField()-1 {
		t.Fatalf("%d variants for %d Config fields other than Name: extend the table", len(variants), rt.NumField()-1)
	}
	base := gpu.BaseConfig()
	grid := []gpu.Config{base}
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		if name == "Name" {
			continue
		}
		mutate, ok := variants[name]
		if !ok {
			t.Fatalf("no variant for field %s", name)
		}
		v := base
		mutate(&v)
		v.Name = "vary-" + name
		bv, vv := reflect.ValueOf(base), reflect.ValueOf(v)
		for j := 0; j < rt.NumField(); j++ {
			if differs := bv.Field(j).Interface() != vv.Field(j).Interface(); differs != (j == i || j == 0) {
				t.Fatalf("variant %s: field %s differs = %v", name, rt.Field(j).Name, differs)
			}
		}
		if err := v.Validate(); err != nil {
			t.Fatalf("variant %s: %v", name, err)
		}
		grid = append(grid, v, base.WithCoreClock(0.5+0.05*float64(i)))
	}
	w, err := tracetest.CachedWorkload(diffProfiles()[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, w, grid)
}

// TestDrawNsDoesNotAllocate: clustering evaluation prices every parent
// draw through DrawNs, so it must not allocate.
func TestDrawNsDoesNotAllocate(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	w := tracetest.Tiny()
	sim, err := gpu.NewSimulator(gpu.BaseConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	d := &w.Frames[0].Draws[0]
	if n := testing.AllocsPerRun(100, func() { sim.DrawNs(d) }); n != 0 {
		t.Fatalf("DrawNs allocates %v times per call, want 0", n)
	}
}

// TestPriceGridAllocsFlatInFrames guards subsetd's /v1/price miss
// path, a one-config PriceGrid on one goroutine: everything it
// allocates is sized once per call (the pricer, one scratch for the
// largest frame, the config-major result arrays), so a parent twice as
// long makes as many allocations, and a 48-frame bioshock1 parent
// costs at most 32 KB.
func TestPriceGridAllocsFlatInFrames(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	measure := func(frames int) (allocs float64, bytes uint64) {
		p := synth.Bioshock1Profile()
		p.Frames = frames
		w, err := tracetest.CachedWorkload(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := gpu.NewSimulator(gpu.BaseConfig(), w)
		if err != nil {
			t.Fatal(err)
		}
		cfgs := []gpu.Config{gpu.BaseConfig()}
		price := func() {
			if _, err := sim.PriceGrid(context.Background(), cfgs, 1); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(5, price)
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			price()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	a48, b48 := measure(48)
	a96, b96 := measure(96)
	t.Logf("48 frames: %v allocs, %d B; 96 frames: %v allocs, %d B", a48, b48, a96, b96)
	if a48 != a96 {
		t.Errorf("allocations grow with the parent: %v at 48 frames, %v at 96", a48, a96)
	}
	if b48 > 32<<10 {
		t.Errorf("48-frame pass allocates %d B, want at most %d", b48, 32<<10)
	}
}

func TestPriceGridCancellation(t *testing.T) {
	w := tracetest.Tiny()
	sim, err := gpu.NewSimulator(gpu.BaseConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		runs, err := sim.PriceGrid(ctx, mixedGrid(), workers)
		if err == nil || runs != nil {
			t.Fatalf("workers %d: canceled pass returned %d runs, err %v; want no result and an error", workers, len(runs), err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: error %v does not wrap context.Canceled", workers, err)
		}
	}
	bad := gpu.BaseConfig()
	bad.TexCacheLineB = 0
	if _, err := sim.PriceGrid(context.Background(), []gpu.Config{gpu.BaseConfig(), bad}, 1); err == nil {
		t.Fatal("invalid config priced")
	}
}

// TestPriceGridPanicsOnDanglingRefs: the kernel panics like DrawCost on
// a dangling reference, including an unregistered shader id inside the
// dense id range, on the caller's goroutine at any worker count.
func TestPriceGridPanicsOnDanglingRefs(t *testing.T) {
	for name, mutate := range map[string]func(d *trace.DrawCall, w *trace.Workload){
		"VS in dense range": func(d *trace.DrawCall, w *trace.Workload) { d.VS = shader.ID(w.Shaders.Len() + 2) },
		"PS reserved id":    func(d *trace.DrawCall, _ *trace.Workload) { d.PS = 0 },
		"RT":                func(d *trace.DrawCall, _ *trace.Workload) { d.RT = 7 },
		"texture":           func(d *trace.DrawCall, _ *trace.Workload) { d.Textures = []trace.TextureID{1, 9} },
	} {
		t.Run(name, func(t *testing.T) {
			w := tracetest.Tiny()
			sim, err := gpu.NewSimulator(gpu.BaseConfig(), w)
			if err != nil {
				t.Fatal(err)
			}
			mutate(&w.Frames[1].Draws[0], w)
			for _, workers := range []int{1, 2} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("workers %d: dangling reference priced without a panic", workers)
						}
					}()
					_, _ = sim.PriceGrid(context.Background(), mixedGrid(), workers)
				}()
			}
		})
	}
}

// FuzzPriceGrid prices one fuzzed draw (added to the fixture's first
// frame) on the mixed grid plus two configs with fuzzed clocks — one in
// BaseConfig's architecture class, one of LowPowerConfig's with a
// fuzzed draw overhead as well — and checks the kernel against the
// reference bit for bit. The flags byte selects blending, depth, the
// textured or the texture-free pixel shader, and whether the textures
// are bound. Fuzzed configs that Validate rejects are skipped.
func FuzzPriceGrid(f *testing.F) {
	f.Add(uint32(3000), uint8(1), uint8(0), 0.3, 1.4, 0.5, uint8(0b0111), 1.0, 1.0, 500.0)
	f.Add(uint32(60), uint8(4), uint8(1), 0.0, 1.0, 1.0, uint8(0b0000), 1.0, 1.0, 500.0)
	f.Add(uint32(9), uint8(2), uint8(3), 1.0, 1.0, 0.01, uint8(0b1111), 1.0, 1.0, 500.0)
	// Memory-bound: a full-screen blended, depth-tested, textured draw
	// on a fast core and a slow memory clock.
	f.Add(uint32(6), uint8(1), uint8(0), 1.0, 4.0, 1.0, uint8(0b1111), 3.0, 0.2, 100.0)
	// Compute-bound: a vertex-heavy draw covering almost nothing, on a
	// slow core and a fast memory clock.
	f.Add(uint32(900000), uint8(8), uint8(0), 0.001, 1.0, 1.0, uint8(0b0000), 0.2, 3.0, 100.0)
	// Capped sigma: a near-free draw with no overhead prices far below
	// NoiseRefNs*(2*NoiseAmp)^2, so the noise sigma is capped at 0.5.
	f.Add(uint32(3), uint8(1), uint8(0), 0.0, 1.0, 1.0, uint8(0b0000), 2.0, 2.0, 0.0)
	f.Fuzz(func(t *testing.T, verts uint32, instances, topo uint8, coverage, overdraw, locality float64, flags uint8,
		core, mem, overhead float64) {
		w := tracetest.Tiny()
		d := w.Frames[0].Draws[0] // textured PS with both slots bound
		d.VertexCount = int(verts % (1 << 20))
		d.InstanceCount = int(instances)
		d.Topology = trace.Topology(topo % 4)
		d.CoverageFrac, d.Overdraw, d.TexLocality = coverage, overdraw, locality
		d.BlendEnable = flags&1 != 0
		d.DepthEnable = flags&2 != 0
		if flags&4 == 0 {
			d.PS = w.Frames[0].Draws[2].PS // ALU-only PS: no samples
		}
		if flags&8 == 0 && flags&4 == 0 {
			d.Textures = nil
		}
		w.Frames[0].Draws = append(w.Frames[0].Draws, d)
		if err := w.Validate(); err != nil {
			t.Skip(err)
		}
		sameClass := gpu.BaseConfig()
		sameClass.Name, sameClass.CoreClockGHz, sameClass.MemClockGHz = "fuzz-base", core, mem
		other := gpu.LowPowerConfig()
		other.Name, other.CoreClockGHz, other.MemClockGHz, other.DrawOverheadNs = "fuzz-other", core, mem, overhead
		for _, c := range []gpu.Config{sameClass, other} {
			if err := c.Validate(); err != nil {
				t.Skip(err)
			}
		}
		checkAgainstReference(t, w, append(mixedGrid(), sameClass, other))
	})
}
