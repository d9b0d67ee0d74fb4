package gpu

import (
	"context"
	"fmt"

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
// is split from cost because it depends on the config only through
// the geometry, which a grid sweep rarely varies: a pass evaluates it
// once per distinct geometry, not once per config.
func (t *drawTerms) texTraffic(cacheBytes, lineB int) texTraffic {
	if t.samples > 0 {
		return modelTexTraffic(t.samples, t.ws, cacheBytes, lineB)
	}
	return texTraffic{HitRate: 1}
}

// cost is the per-config half of DrawCost: it prices a draw's terms on
// cfg, given the draw's texture traffic on cfg's cache geometry, into
// dc, overwriting every field.
func (cfg *Config) cost(t *drawTerms, tex *texTraffic, dc *DrawCost) {
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
	dc.ComputeNs = dc.CoreCycles / cfg.CoreClockGHz

	// Memory domain.
	dc.VertexBytes = t.verts * float64(cfg.VertexSizeB)
	dc.TexBytes = tex.Bytes
	dc.TexHitRate = tex.HitRate
	dc.RTBytes = t.rtBytes * cfg.ColorCompression
	dc.DepthBytes = t.depthBytes * cfg.DepthCompression
	cfg.finalize(dc, t.noiseZ)
}

// price prices d on the simulator's own config into dc, leaving d's
// terms in t for callers that reuse them (FrameDetailed).
func (s *Simulator) price(d *trace.DrawCall, t *drawTerms, dc *DrawCost) {
	s.t.terms(d, t)
	tex := t.texTraffic(s.cfg.TexCacheKB*1024, s.cfg.TexCacheLineB)
	s.cfg.cost(t, &tex, dc)
}

// PricedRun is one config's share of a PriceGrid pass: the run result
// plus the aggregate totals the power model consumes.
type PricedRun struct {
	RunResult
	Totals Totals
}

// PriceGrid prices every frame of the simulator's workload on each of
// cfgs in one pass over the draws. A draw's config-independent terms
// are computed once per pass and its texture traffic once per distinct
// cache geometry; only the per-config cost runs once per draw x
// config, with the config loop innermost.
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
	geomOf := make([]int, len(cfgs))
	for c := range cfgs {
		if err := cfgs[c].Validate(); err != nil {
			return nil, err
		}
		g := geometry{cfgs[c].TexCacheKB * 1024, cfgs[c].TexCacheLineB}
		i, ok := geomIndex[g]
		if !ok {
			i = len(geoms)
			geomIndex[g] = i
			geoms = append(geoms, g)
		}
		geomOf[c] = i
	}

	frames := s.w.Frames
	runs := make([]PricedRun, len(cfgs))
	for c := range runs {
		runs[c].ConfigName = cfgs[c].Name
		runs[c].FrameNs = make([]float64, len(frames))
	}
	frameNs := make([]float64, len(cfgs))
	tex := make([]texTraffic, len(geoms))
	var t drawTerms
	var dc DrawCost
	for i := range frames {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("gpu: pricing canceled at frame %d/%d: %w", i, len(frames), err)
		}
		clear(frameNs)
		draws := frames[i].Draws
		for di := range draws {
			s.t.terms(&draws[di], &t)
			for g := range geoms {
				tex[g] = t.texTraffic(geoms[g].cacheBytes, geoms[g].lineB)
			}
			for c := range cfgs {
				cfgs[c].cost(&t, &tex[geomOf[c]], &dc)
				frameNs[c] += dc.TotalNs
				tot := &runs[c].Totals
				tot.TotalNs += dc.TotalNs
				tot.ComputeNs += dc.ComputeNs
				tot.MemoryNs += dc.MemoryNs
				tot.TrafficBytes += dc.traffic()
			}
		}
		for c := range runs {
			runs[c].FrameNs[i] = frameNs[c]
			runs[c].TotalNs += frameNs[c]
		}
	}
	return runs, nil
}
