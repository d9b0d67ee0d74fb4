package gpu

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/dcmath"
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
		totalNs *= dcmath.Exp(sigma * z)
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

// clockDraws is clockFrame for a column whose per-draw times are
// wanted instead of its Totals: it writes each draw's time into
// drawNs. It is a loop of its own so that the Totals loop, the inner
// loop of every grid, carries no per-draw branch or store.
func (cfg *Config) clockDraws(cycles, traffic, z, drawNs []float64) (frameNs float64) {
	traffic, z, drawNs = traffic[:len(cycles)], z[:len(cycles)], drawNs[:len(cycles)]
	for di, cyc := range cycles {
		_, _, totalNs, _ := cfg.clock(cyc, traffic[di], z[di])
		frameNs += totalNs
		drawNs[di] = totalNs
	}
	return frameNs
}

// FramePricer is the per-frame pricing kernel: it prices one frame of
// its simulator's workload on a fixed list of configs. Configs that
// differ only in Name and clocks form one architecture class. Per
// frame, each draw's config-independent terms are computed once, its
// texture traffic once per distinct cache geometry, and its core
// cycles and traffic (arch) once per class, into frame-sized scratch;
// then, per config, the clock half runs over the frame's draws in
// draw order.
//
// A FramePricer is read-only once built, so frames may be priced
// concurrently, each goroutine with its own FrameScratch.
type FramePricer struct {
	t       *tables
	cfgs    []Config
	geoms   []geometry
	classes []priceClass
	classOf []int // per config: its class
}

type geometry struct{ cacheBytes, lineB int }

type priceClass struct {
	cfg  *Config // the first config of the class
	geom int
}

// FrameScratch is one goroutine's working memory for
// FramePricer.Price. The zero value is ready; it grows to the largest
// frame priced through it.
type FrameScratch struct {
	cycles, traffic []float64 // per class and draw, class-major
	noiseZ          []float64 // per draw
	tex             []texTraffic
}

func growTo(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// grow sizes sc for a frame of n draws on p's classes and geometries.
// Sized once for a workload's largest frame, it prices every frame
// without allocating.
func (sc *FrameScratch) grow(p *FramePricer, n int) {
	sc.cycles = growTo(sc.cycles, len(p.classes)*n)
	sc.traffic = growTo(sc.traffic, len(p.classes)*n)
	sc.noiseZ = growTo(sc.noiseZ, n)
	if len(sc.tex) < len(p.geoms) {
		sc.tex = make([]texTraffic, len(p.geoms))
	}
}

// NewFramePricer validates cfgs and groups them into architecture
// classes and cache geometries. The pricer keeps its own copy of cfgs.
func (s *Simulator) NewFramePricer(cfgs []Config) (*FramePricer, error) {
	cfgs = slices.Clone(cfgs)
	p := &FramePricer{t: s.t, cfgs: cfgs, classOf: make([]int, len(cfgs))}
	geomIndex := map[geometry]int{}
	// A class key is the config with Name and clocks cleared; Validate
	// keeps NaN, which is unequal to itself, out of the keys.
	classIndex := map[Config]int{}
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
				gi = len(p.geoms)
				geomIndex[g] = gi
				p.geoms = append(p.geoms, g)
			}
			k = len(p.classes)
			classIndex[key] = k
			p.classes = append(p.classes, priceClass{cfg: cfg, geom: gi})
		}
		p.classOf[c] = k
	}
	return p, nil
}

// Price prices the draws of f, a frame of the simulator's workload, on
// every config of the pricer. frameNs[c] receives config c's frame
// time: its draws' TotalNs summed in draw order. A non-nil tot has
// every draw folded into tot[c] in draw order onto what tot[c] holds,
// so pricing a workload's frames in frame order accumulates Totals
// exactly as a one-config pass does. A non-nil drawNs[c] receives
// config c's per-draw TotalNs instead, each bit-identical to DrawNs on
// a simulator for config c: both run terms, arch and clock on the same
// operands in the same order. No caller needs both for one config, so
// such a config's Totals are not folded.
//
// Price panics on dangling VS/PS/RT/texture references, as DrawCost
// does.
func (p *FramePricer) Price(f *trace.Frame, sc *FrameScratch, frameNs []float64, tot []Totals, drawNs [][]float64) {
	draws := f.Draws
	n := len(draws)
	sc.grow(p, n)
	cycles, traffic, noiseZ, tex := sc.cycles, sc.traffic, sc.noiseZ, sc.tex
	var t drawTerms
	var dc DrawCost
	for di := range draws {
		p.t.terms(&draws[di], &t)
		for g := range p.geoms {
			tex[g] = t.texTraffic(p.geoms[g].cacheBytes, p.geoms[g].lineB)
		}
		for k := range p.classes {
			p.classes[k].cfg.arch(&t, &tex[p.classes[k].geom], &dc)
			cycles[k*n+di] = dc.CoreCycles
			traffic[k*n+di] = dc.traffic()
		}
		noiseZ[di] = t.noiseZ
	}
	var discard Totals
	for c := range p.cfgs {
		off := p.classOf[c] * n
		cy, tr := cycles[off:off+n], traffic[off:off+n]
		if drawNs != nil && drawNs[c] != nil {
			frameNs[c] = p.cfgs[c].clockDraws(cy, tr, noiseZ, drawNs[c])
			continue
		}
		ct := &discard
		if tot != nil {
			ct = &tot[c]
		}
		frameNs[c] = p.cfgs[c].clockFrame(cy, tr, noiseZ, ct)
	}
}

// PricedRun is one config's share of a PriceGrid pass: the run result
// plus the aggregate totals the power model consumes.
type PricedRun struct {
	RunResult
	Totals Totals
}

// PriceGrid prices every frame of the simulator's workload on each of
// cfgs in one pass over the draws: the FramePricer kernel, run over
// the frames in frame order on one goroutine.
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
	p, err := s.NewFramePricer(cfgs)
	if err != nil {
		return nil, err
	}
	frames := s.w.Frames
	runs := make([]PricedRun, len(cfgs))
	for c := range runs {
		runs[c].ConfigName = cfgs[c].Name
		runs[c].FrameNs = make([]float64, len(frames))
	}
	frameNs := make([]float64, len(cfgs))
	tot := make([]Totals, len(cfgs))
	maxDraws := 0
	for i := range frames {
		maxDraws = max(maxDraws, len(frames[i].Draws))
	}
	var sc FrameScratch
	sc.grow(p, maxDraws)
	for i := range frames {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("gpu: pricing canceled at frame %d/%d: %w", i, len(frames), err)
		}
		p.Price(&frames[i], &sc, frameNs, tot, nil)
		for c := range runs {
			runs[c].FrameNs[i] = frameNs[c]
			runs[c].TotalNs += frameNs[c]
		}
	}
	for c := range runs {
		runs[c].Totals = tot[c]
	}
	return runs, nil
}
