package gpu_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
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
	runs, err := base.PriceGrid(context.Background(), cfgs)
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

// TestPriceGridChunkingsMatchReference prices a 9-config sweep through
// sweep.PriceGrid at every chunking the workers knob produces — one
// pass of 9, 2 passes (4+5), 4 passes (2+2+2+3) and 9 one-config
// passes — and checks every config against the reference.
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

func TestPriceGridCancellation(t *testing.T) {
	w := tracetest.Tiny()
	sim, err := gpu.NewSimulator(gpu.BaseConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runs, err := sim.PriceGrid(ctx, mixedGrid())
	if err == nil || runs != nil {
		t.Fatalf("canceled pass returned %d runs, err %v; want no result and an error", len(runs), err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	bad := gpu.BaseConfig()
	bad.TexCacheLineB = 0
	if _, err := sim.PriceGrid(context.Background(), []gpu.Config{gpu.BaseConfig(), bad}); err == nil {
		t.Fatal("invalid config priced")
	}
}

// TestPriceGridPanicsOnDanglingRefs: the kernel panics like DrawCost on
// a dangling reference, including an unregistered shader id inside the
// dense id range.
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
			defer func() {
				if recover() == nil {
					t.Error("dangling reference priced without a panic")
				}
			}()
			_, _ = sim.PriceGrid(context.Background(), mixedGrid())
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
