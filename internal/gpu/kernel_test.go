package gpu_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/gpu"
	"repro/internal/shader"
	"repro/internal/sweep"
	"repro/internal/synth"
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
// frame) on the mixed grid and checks the kernel against the reference
// bit for bit. The flags byte selects blending, depth, the textured or
// the texture-free pixel shader, and whether the textures are bound.
func FuzzPriceGrid(f *testing.F) {
	f.Add(uint32(3000), uint8(1), uint8(0), 0.3, 1.4, 0.5, uint8(0b0111))
	f.Add(uint32(60), uint8(4), uint8(1), 0.0, 1.0, 1.0, uint8(0b0000))
	f.Add(uint32(9), uint8(2), uint8(3), 1.0, 1.0, 0.01, uint8(0b1111))
	f.Fuzz(func(t *testing.T, verts uint32, instances, topo uint8, coverage, overdraw, locality float64, flags uint8) {
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
		checkAgainstReference(t, w, mixedGrid())
	})
}
