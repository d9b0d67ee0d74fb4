package gpu

import (
	"context"
	"fmt"
	"math"

	"repro/internal/shader"
	"repro/internal/trace"
)

// tables are the per-workload lookup tables every pricing call reads:
// program cost by shader id, and float64 resource facts by resource id
// (entry 0 unused). NewSimulator builds them once; WithConfig shares
// them, since none depends on the config.
type tables struct {
	progs    *shader.Table[programCost]
	texFoot  []float64 // float64(Texture.Footprint()), by TextureID
	rtPixels []float64 // float64(RenderTarget.Pixels()), by RTID
	rtBPP    []float64 // float64(RenderTarget.BytesPerPixel), by RTID
	rtDepth  []bool    // RenderTarget.HasDepth, by RTID
}

func newTables(w *trace.Workload) *tables {
	t := &tables{
		progs:    shader.NewTable(w.Shaders, analyzeProgram),
		texFoot:  make([]float64, len(w.Textures)+1),
		rtPixels: make([]float64, len(w.RenderTargets)+1),
		rtBPP:    make([]float64, len(w.RenderTargets)+1),
		rtDepth:  make([]bool, len(w.RenderTargets)+1),
	}
	for i, tex := range w.Textures {
		t.texFoot[i+1] = float64(tex.Footprint())
	}
	for i, rt := range w.RenderTargets {
		t.rtPixels[i+1] = float64(rt.Pixels())
		t.rtBPP[i+1] = float64(rt.BytesPerPixel)
		t.rtDepth[i+1] = rt.HasDepth
	}
	return t
}

// drawTerms are the config-independent quantities of one draw: the
// half of DrawCost that no config changes. Each field is computed with
// the same operations in the same operand order as the one-config
// expression it was split from, so pricing through the split changes
// no bit of any result.
type drawTerms struct {
	verts      float64 // vertices across instances
	prims      float64 // primitives across instances
	vsWork     float64 // verts * VS clocks per element
	shaded     float64 // covered pixels * overdraw
	psWork     float64 // shaded * PS clocks per element
	ropPixels  float64 // shaded, doubled by blending's read-modify-write
	samples    float64 // shaded * PS texture samples per element
	ws         float64 // texture working set in bytes (0 without samples)
	rtBytes    float64 // uncompressed color traffic
	depthBytes float64 // uncompressed depth traffic (0 without a depth test)
	noiseZ     float64 // drawNoiseZ
}

// terms computes d's config-independent terms into t, overwriting
// every field. It panics on dangling VS/PS/RT/texture references, as
// DrawCost always has: they indicate a corrupted subset, not a runtime
// condition.
func (tb *tables) terms(d *trace.DrawCall, t *drawTerms) {
	vsPC := tb.progs.Get(d.VS)
	if vsPC == nil {
		panic(fmt.Sprintf("gpu: draw references unknown VS %d", d.VS))
	}
	psPC := tb.progs.Get(d.PS)
	if psPC == nil {
		panic(fmt.Sprintf("gpu: draw references unknown PS %d", d.PS))
	}
	if d.RT == 0 || int(d.RT) >= len(tb.rtPixels) {
		panic(fmt.Sprintf("gpu: trace: render target id %d out of range [1, %d]", d.RT, len(tb.rtPixels)-1))
	}

	t.verts = float64(d.TotalVertices())
	t.prims = float64(d.TotalPrimitives())
	t.vsWork = t.verts * vsPC.clocksPerElem
	covered := d.CoverageFrac * tb.rtPixels[d.RT]
	t.shaded = covered * d.Overdraw
	t.psWork = t.shaded * psPC.clocksPerElem
	t.ropPixels = t.shaded
	if d.BlendEnable {
		t.ropPixels *= 2 // read-modify-write
	}
	t.samples = t.shaded * psPC.texPerElem
	t.ws = 0
	if t.samples > 0 {
		for _, tid := range d.Textures {
			if tid == 0 {
				continue
			}
			if int(tid) >= len(tb.texFoot) {
				panic(fmt.Sprintf("gpu: trace: texture id %d out of range [1, %d]", tid, len(tb.texFoot)-1))
			}
			t.ws += tb.texFoot[tid]
		}
		t.ws *= d.TexLocality
		// A draw cannot touch more unique texels than it samples: cap
		// the working set by the sample count (at ~1 texel per sample;
		// bilinear neighbours share cache lines). Without this cap,
		// small-coverage draws bound to large textures are charged for
		// footprints they never touch.
		if maxWS := t.samples * texelBytes; t.ws > maxWS {
			t.ws = maxWS
		}
	}
	t.rtBytes = covered * tb.rtBPP[d.RT]
	if d.BlendEnable {
		t.rtBytes *= 2 // destination read + write
	}
	t.depthBytes = 0
	if d.DepthEnable && tb.rtDepth[d.RT] {
		t.depthBytes = t.shaded * 4 * 2 // 32-bit Z read + write
	}
	t.noiseZ = drawNoiseZ(d)
}

// texTraffic is the draw's texture traffic on one cache geometry. It
// is split from arch because it depends on the config only through
// the geometry, which a grid sweep rarely varies: a pass evaluates it
// once per distinct geometry, not once per architecture class.
func (t *drawTerms) texTraffic(cacheBytes, lineB int) texTraffic {
	if t.samples > 0 {
		return modelTexTraffic(t.samples, t.ws, cacheBytes, lineB)
	}
	return texTraffic{HitRate: 1}
}

// arch is the architecture half of pricing: it fills dc's stage
// cycles, CoreCycles, ShadedPixels and traffic fields from the draw's
// terms on cfg, given the draw's texture traffic on cfg's cache
// geometry. No clock enters it, so configs that differ only in their
// clocks share its result. The clock half (clock) turns CoreCycles and
// the traffic into time.
func (cfg *Config) arch(t *drawTerms, tex *texTraffic, dc *DrawCost) {
	dc.ShadedPixels = t.shaded

	// Core domain: each stage is a throughput; the pipeline runs at the
	// rate of its slowest stage.
	rate := cfg.shaderRate()
	dc.VSCycles = t.vsWork / rate
	dc.SetupCycles = t.prims / cfg.PrimSetupRate
	dc.RasterCycles = t.shaded / cfg.RasterRate
	dc.PSCycles = t.psWork / rate
	dc.ROPCycles = t.ropPixels / cfg.ROPRate
	dc.CoreCycles = max5(dc.VSCycles, dc.SetupCycles, dc.RasterCycles, dc.PSCycles, dc.ROPCycles)

	// Memory domain.
	dc.VertexBytes = t.verts * float64(cfg.VertexSizeB)
	dc.TexBytes = tex.Bytes
	dc.TexHitRate = tex.HitRate
	dc.RTBytes = t.rtBytes * cfg.ColorCompression
	dc.DepthBytes = t.depthBytes * cfg.DepthCompression
}

// clock is the clock half of pricing: it times a draw of the given
// core cycles and DRAM traffic on cfg — compute and memory time, their
// partially overlapped combination plus the draw overhead, and the
// noise factor for the draw's drawNoiseZ z. memoryBound reports which
// domain dominated.
func (cfg *Config) clock(cycles, traffic, z float64) (computeNs, memoryNs, totalNs float64, memoryBound bool) {
	computeNs = cycles / cfg.CoreClockGHz
	memoryNs = traffic / cfg.bandwidth() // GB/s == bytes/ns

	// Bottleneck combination with partial overlap.
	tc, tm := computeNs, memoryNs
	if tm > tc {
		memoryBound = true
		tc, tm = tm, tc
	}
	totalNs = tc + cfg.OverlapBeta*tm + cfg.DrawOverheadNs
	if cfg.NoiseAmp > 0 {
		sigma := cfg.NoiseAmp * math.Sqrt(cfg.NoiseRefNs/totalNs)
		if sigma > 0.5 {
			sigma = 0.5
		}
		totalNs *= math.Exp(sigma * z)
	}
	return computeNs, memoryNs, totalNs, memoryBound
}

// finalize times dc on cfg from its CoreCycles and traffic fields
// through the clock half, overwriting ComputeNs, MemoryNs, OverheadNs,
// TotalNs and MemoryBound. DrawCost calls it after arch; the
// shared-cache detailed path calls it again after overriding TexBytes
// with measured traffic. z is the draw's drawNoiseZ.
func (cfg *Config) finalize(dc *DrawCost, z float64) {
	dc.ComputeNs, dc.MemoryNs, dc.TotalNs, dc.MemoryBound = cfg.clock(dc.CoreCycles, dc.traffic(), z)
	dc.OverheadNs = cfg.DrawOverheadNs
}

// price prices d on the simulator's own config into dc, leaving d's
// terms in t for callers that reuse them (FrameDetailed).
func (s *Simulator) price(d *trace.DrawCall, t *drawTerms, dc *DrawCost) {
	s.t.terms(d, t)
	tex := t.texTraffic(s.cfg.TexCacheKB*1024, s.cfg.TexCacheLineB)
	s.cfg.arch(t, &tex, dc)
	s.cfg.finalize(dc, t.noiseZ)
}

// clockFrame runs cfg's clock half over one frame's draws, given each
// draw's core cycles and traffic on cfg's architecture class and its
// noise z. It folds every draw into tot in draw order and returns the
// frame's time, summed in the same order.
func (cfg *Config) clockFrame(cycles, traffic, z []float64, tot *Totals) (frameNs float64) {
	traffic, z = traffic[:len(cycles)], z[:len(cycles)]
	acc := *tot
	for di, cyc := range cycles {
		computeNs, memoryNs, totalNs, _ := cfg.clock(cyc, traffic[di], z[di])
		frameNs += totalNs
		acc.TotalNs += totalNs
		acc.ComputeNs += computeNs
		acc.MemoryNs += memoryNs
		acc.TrafficBytes += traffic[di]
	}
	*tot = acc
	return frameNs
}

// PricedRun is one config's share of a PriceGrid pass: the run result
// plus the aggregate totals the power model consumes.
type PricedRun struct {
	RunResult
	Totals Totals
}

// PriceGrid prices every frame of the simulator's workload on each of
// cfgs in one pass over the draws. Configs that differ only in Name
// and clocks form one architecture class. Per frame, each draw's
// config-independent terms are computed once, its texture traffic once
// per distinct cache geometry, and its core cycles and traffic (arch)
// once per class, into frame-sized scratch. Then, per config, the
// clock half runs over the frame's draws in draw order.
//
// Fold-order contract: for each config, a frame's time sums its draws'
// TotalNs in draw order, TotalNs sums frames in frame order, and each
// Totals field sums the draws in workload order — exactly the
// accumulation of pricing that config alone, so every result is
// bit-identical to a one-config pass, and to DrawCost summed by hand.
//
// Cancellation is checked once per frame; a canceled pass returns the
// wrapped ctx.Err() and no partial result.
func (s *Simulator) PriceGrid(ctx context.Context, cfgs []Config) ([]PricedRun, error) {
	type geometry struct{ cacheBytes, lineB int }
	var geoms []geometry
	geomIndex := map[geometry]int{}
	// A class key is the config with Name and clocks cleared; Validate
	// keeps NaN, which is unequal to itself, out of the keys.
	type class struct {
		cfg  *Config // the first config of the class
		geom int
	}
	var classes []class
	classIndex := map[Config]int{}
	classOf := make([]int, len(cfgs))
	for c := range cfgs {
		cfg := &cfgs[c]
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		key := *cfg
		key.Name, key.CoreClockGHz, key.MemClockGHz = "", 0, 0
		k, ok := classIndex[key]
		if !ok {
			g := geometry{cfg.TexCacheKB * 1024, cfg.TexCacheLineB}
			gi, ok := geomIndex[g]
			if !ok {
				gi = len(geoms)
				geomIndex[g] = gi
				geoms = append(geoms, g)
			}
			k = len(classes)
			classIndex[key] = k
			classes = append(classes, class{cfg: cfg, geom: gi})
		}
		classOf[c] = k
	}

	frames := s.w.Frames
	maxDraws := 0
	for i := range frames {
		maxDraws = max(maxDraws, len(frames[i].Draws))
	}
	runs := make([]PricedRun, len(cfgs))
	for c := range runs {
		runs[c].ConfigName = cfgs[c].Name
		runs[c].FrameNs = make([]float64, len(frames))
	}
	// Frame-sized scratch: each class's core cycles and traffic per
	// draw, class-major, and each draw's noise z.
	cycles := make([]float64, len(classes)*maxDraws)
	traffic := make([]float64, len(classes)*maxDraws)
	noiseZ := make([]float64, maxDraws)
	tex := make([]texTraffic, len(geoms))
	var t drawTerms
	var dc DrawCost
	for i := range frames {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("gpu: pricing canceled at frame %d/%d: %w", i, len(frames), err)
		}
		draws := frames[i].Draws
		for di := range draws {
			s.t.terms(&draws[di], &t)
			for g := range geoms {
				tex[g] = t.texTraffic(geoms[g].cacheBytes, geoms[g].lineB)
			}
			for k := range classes {
				classes[k].cfg.arch(&t, &tex[classes[k].geom], &dc)
				cycles[k*maxDraws+di] = dc.CoreCycles
				traffic[k*maxDraws+di] = dc.traffic()
			}
			noiseZ[di] = t.noiseZ
		}
		n := len(draws)
		for c := range cfgs {
			off := classOf[c] * maxDraws
			run := &runs[c]
			run.FrameNs[i] = cfgs[c].clockFrame(cycles[off:off+n], traffic[off:off+n], noiseZ[:n], &run.Totals)
			run.TotalNs += run.FrameNs[i]
		}
	}
	return runs, nil
}
