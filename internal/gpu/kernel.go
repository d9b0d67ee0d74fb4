package gpu

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/dcmath"
	"repro/internal/parallel"
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
	t.shaded = float64(covered * d.Overdraw)
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
	t.rtBytes = float64(covered * tb.rtBPP[d.RT])
	if d.BlendEnable {
		t.rtBytes *= 2 // destination read + write
	}
	t.depthBytes = 0
	if d.DepthEnable && tb.rtDepth[d.RT] {
		t.depthBytes = float64(t.shaded*4) * 2 // 32-bit Z read + write
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
// core cycles and DRAM traffic on cfg — compute and memory time, then
// their combination (combine). memoryBound reports which domain
// dominated. The kernel makes the same two divisions once per column
// (FramePricer) and then calls combine, so every path shares one
// formula.
func (cfg *Config) clock(cycles, traffic, z float64) (computeNs, memoryNs, totalNs float64, memoryBound bool) {
	computeNs = cycles / cfg.CoreClockGHz
	memoryNs = traffic / cfg.bandwidth() // GB/s == bytes/ns
	totalNs, memoryBound = cfg.combine(computeNs, memoryNs, z)
	return computeNs, memoryNs, totalNs, memoryBound
}

// combine is the rest of the clock half: the partially overlapped
// combination of a draw's compute and memory time plus the draw
// overhead, scaled by the noise factor for the draw's drawNoiseZ z.
func (cfg *Config) combine(computeNs, memoryNs, z float64) (totalNs float64, memoryBound bool) {
	// Bottleneck combination with partial overlap.
	tc, tm := computeNs, memoryNs
	if tm > tc {
		memoryBound = true
		tc, tm = tm, tc
	}
	totalNs = tc + float64(cfg.OverlapBeta*tm) + cfg.DrawOverheadNs
	if cfg.NoiseAmp > 0 {
		sigma := cfg.NoiseAmp * math.Sqrt(cfg.NoiseRefNs/totalNs)
		if sigma > 0.5 {
			sigma = 0.5
		}
		totalNs *= dcmath.Exp(sigma * z)
	}
	return totalNs, memoryBound
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

// clockFrame runs the rest of cfg's clock half (combine) over one
// frame's draws, given each draw's compute and memory time on cfg and
// its noise z, and returns the frame's time: the draws' TotalNs summed
// in draw order.
func (cfg *Config) clockFrame(computeNs, memoryNs, z []float64) (frameNs float64) {
	memoryNs, z = memoryNs[:len(computeNs)], z[:len(computeNs)]
	for di, cn := range computeNs {
		totalNs, _ := cfg.combine(cn, memoryNs[di], z[di])
		frameNs += totalNs
	}
	return frameNs
}

// clockDraws is clockFrame that also writes each draw's time into
// drawNs. It is a loop of its own so that clockFrame, the inner loop
// of every grid, carries no per-draw branch or store.
func (cfg *Config) clockDraws(computeNs, memoryNs, z, drawNs []float64) (frameNs float64) {
	memoryNs, z, drawNs = memoryNs[:len(computeNs)], z[:len(computeNs)], drawNs[:len(computeNs)]
	for di, cn := range computeNs {
		totalNs, _ := cfg.combine(cn, memoryNs[di], z[di])
		frameNs += totalNs
		drawNs[di] = totalNs
	}
	return frameNs
}

// divide sets dst[i] = src[i] / div, the clock half's division, and
// returns the sums of src and of dst, each in order. dst may be src.
func divide(dst, src []float64, div float64) (srcSum, dstSum float64) {
	src = src[:len(dst)]
	for i, x := range src {
		q := x / div
		dst[i] = q
		srcSum += x
		dstSum += q
	}
	return srcSum, dstSum
}

// FramePricer is the per-frame pricing kernel: it prices one frame of
// its simulator's workload on a fixed list of configs. Configs that
// differ only in Name and clocks form one architecture class. Per
// frame, each draw's config-independent terms are computed once, its
// texture traffic once per distinct cache geometry, and its core
// cycles and traffic (arch) once per class, into frame-sized scratch.
// Then the clock half's two divisions run once per column: a compute
// column divides a class's cycles by one of its distinct core clocks,
// a memory column its traffic by one of its distinct bandwidths. Last,
// per config, the rest of the clock half (combine) runs over the
// frame's draws in draw order, reading the config's two columns.
//
// A FramePricer is read-only once built, so frames may be priced
// concurrently, each goroutine with its own FrameScratch.
type FramePricer struct {
	t       *tables
	cfgs    []Config
	geoms   []geometry
	classes []priceClass
	cols    []column    // in the order found; Price divides them in reverse
	uses    []configUse // per config
	slots   int         // frame-sized scratch slots: two per class, one per column that does not divide in place
}

type geometry struct{ cacheBytes, lineB int }

type priceClass struct {
	cfg             *Config // the first config of the class
	geom            int
	cycles, traffic int // scratch slots arch fills
}

// A column divides the draws in scratch slot src by div into slot dst.
// A slot's first column divides it in place; the others, found after
// it, run before it and write slots of their own.
type column struct {
	src, dst int
	div      float64
}

// configUse is where a config's clock half reads: its compute and
// memory columns' slots and its class's traffic slot.
type configUse struct{ compute, memory, traffic int }

// FrameScratch is one goroutine's working memory for
// FramePricer.Price. The zero value is ready; it grows to the largest
// frame priced through it.
type FrameScratch struct {
	slots  []float64 // per slot and draw, slot-major
	sums   []float64 // per slot: its column's sum over the frame's draws, in draw order
	raw    []float64 // per slot: its sum before division, in draw order
	noiseZ []float64 // per draw
	tex    []texTraffic
}

func growTo(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// grow sizes sc for a frame of n draws on p's columns and geometries.
// Sized once for a workload's largest frame, it prices every frame
// without allocating.
func (sc *FrameScratch) grow(p *FramePricer, n int) {
	sc.slots = growTo(sc.slots, p.slots*n)
	sc.sums = growTo(sc.sums, p.slots)
	sc.raw = growTo(sc.raw, p.slots)
	sc.noiseZ = growTo(sc.noiseZ, n)
	if len(sc.tex) < len(p.geoms) {
		sc.tex = make([]texTraffic, len(p.geoms))
	}
}

// NewFramePricer validates cfgs and groups them into architecture
// classes, cache geometries and columns. The pricer keeps its own copy
// of cfgs.
func (s *Simulator) NewFramePricer(cfgs []Config) (*FramePricer, error) {
	cfgs = slices.Clone(cfgs)
	p := &FramePricer{t: s.t, cfgs: cfgs, uses: make([]configUse, len(cfgs))}
	geomIndex := map[geometry]int{}
	// A class key is the config with Name and clocks cleared; Validate
	// keeps NaN, which is unequal to itself, out of the keys.
	classIndex := map[Config]int{}
	// columnOf returns the slot of the column that divides slot src by
	// div, adding the column if it is new. The source slot names the
	// class, and the divisor is compared by value: two memory clocks
	// whose bandwidths round to one number share a column, since their
	// divisions have equal operands.
	columnOf := func(src int, div float64) int {
		inPlace := true
		for _, c := range p.cols {
			if c.src == src && c.div == div {
				return c.dst
			}
			inPlace = inPlace && c.src != src
		}
		col := column{src: src, dst: src, div: div}
		if !inPlace {
			col.dst = p.slots
			p.slots++
		}
		p.cols = append(p.cols, col)
		return col.dst
	}
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
			p.classes = append(p.classes, priceClass{cfg: cfg, geom: gi, cycles: p.slots, traffic: p.slots + 1})
			p.slots += 2
		}
		cl := &p.classes[k]
		p.uses[c] = configUse{
			compute: columnOf(cl.cycles, cfg.CoreClockGHz),
			memory:  columnOf(cl.traffic, cfg.bandwidth()),
			traffic: cl.traffic,
		}
	}
	return p, nil
}

// Price prices the draws of f, a frame of the simulator's workload, on
// every config of the pricer. frameNs[c] receives config c's frame
// time: its draws' TotalNs summed in draw order. A non-nil tot has
// tot[c] overwritten with the frame's own Totals on config c, every
// field summed in draw order, so tot[c].TotalNs is frameNs[c]. A
// non-nil drawNs[c] receives config c's per-draw TotalNs instead, each
// bit-identical to DrawNs on a simulator for config c: both run terms,
// arch and the clock half on the same operands in the same order. No
// caller needs both for one config, so such a config's tot[c] is not
// written.
//
// Price panics on dangling VS/PS/RT/texture references, as DrawCost
// does.
func (p *FramePricer) Price(f *trace.Frame, sc *FrameScratch, frameNs []float64, tot []Totals, drawNs [][]float64) {
	draws := f.Draws
	n := len(draws)
	sc.grow(p, n)
	slots, noiseZ, tex := sc.slots, sc.noiseZ, sc.tex
	slot := func(i int) []float64 { return slots[i*n : (i+1)*n] }
	var t drawTerms
	var dc DrawCost
	for di := range draws {
		p.t.terms(&draws[di], &t)
		for g := range p.geoms {
			tex[g] = t.texTraffic(p.geoms[g].cacheBytes, p.geoms[g].lineB)
		}
		for k := range p.classes {
			cl := &p.classes[k]
			cl.cfg.arch(&t, &tex[cl.geom], &dc)
			slots[cl.cycles*n+di] = dc.CoreCycles
			slots[cl.traffic*n+di] = dc.traffic()
		}
		noiseZ[di] = t.noiseZ
	}
	for i := len(p.cols) - 1; i >= 0; i-- {
		col := &p.cols[i]
		sc.raw[col.src], sc.sums[col.dst] = divide(slot(col.dst), slot(col.src), col.div)
	}
	for c := range p.cfgs {
		u := &p.uses[c]
		cn, mn := slot(u.compute), slot(u.memory)
		if drawNs != nil && drawNs[c] != nil {
			frameNs[c] = p.cfgs[c].clockDraws(cn, mn, noiseZ, drawNs[c])
			continue
		}
		frameNs[c] = p.cfgs[c].clockFrame(cn, mn, noiseZ)
		if tot != nil {
			tot[c] = Totals{TotalNs: frameNs[c], ComputeNs: sc.sums[u.compute], MemoryNs: sc.sums[u.memory], TrafficBytes: sc.raw[u.traffic]}
		}
	}
}

// PricedRun is one config's share of a PriceGrid pass: the run result
// plus the aggregate totals the power model consumes.
type PricedRun struct {
	RunResult
	Totals Totals
}

// PriceGrid prices every frame of the simulator's workload on each of
// cfgs: the multi-frame driver of the FramePricer kernel. Frames are
// claimed on up to workers goroutines (<= 0 selects GOMAXPROCS), each
// task borrowing one of a fixed set of FrameScratches sized once for
// the largest frame. Each frame's Totals per config land in a
// config-major array allocated up front, and are folded strictly in
// frame order once every frame is priced; a frame's time is its
// Totals' TotalNs.
//
// Fold-order contract: for each config, a frame's time and each of
// its Totals fields sum its draws in draw order, and TotalNs and every
// Totals field sum the frames in frame order. So Totals.TotalNs equals
// TotalNs bit for bit, every result is the same at any worker count,
// and each config's result is that of pricing it alone.
//
// Cancellation is checked once per frame; a canceled pass returns the
// wrapped ctx.Err() and no partial result. A dangling VS/PS/RT/texture
// reference panics on the caller's goroutine, as DrawCost does.
func (s *Simulator) PriceGrid(ctx context.Context, cfgs []Config, workers int) ([]PricedRun, error) {
	p, err := s.NewFramePricer(cfgs)
	if err != nil {
		return nil, err
	}
	frames := s.w.Frames
	nf, nc := len(frames), len(cfgs)
	maxDraws := 0
	for i := range frames {
		maxDraws = max(maxDraws, len(frames[i].Draws))
	}
	type slot struct {
		sc      FrameScratch
		frameNs []float64 // per config: the frame being priced
		tot     []Totals
	}
	// free holds the slots no task is using. At most w tasks run at
	// once, so a task's receive never waits.
	w := min(parallel.Workers(workers), nf)
	free := make(chan *slot, w)
	for range w {
		sl := &slot{frameNs: make([]float64, nc), tot: make([]Totals, nc)}
		sl.sc.grow(p, maxDraws)
		free <- sl
	}
	frameTot := make([]Totals, nc*nf) // config c's frames at [c*nf, (c+1)*nf)
	err = parallel.ForEach(ctx, w, nf, func(_ context.Context, i int) error {
		sl := <-free
		p.Price(&frames[i], &sl.sc, sl.frameNs, sl.tot, nil)
		for c, ft := range sl.tot {
			frameTot[c*nf+i] = ft
		}
		free <- sl
		return nil
	})
	if err != nil {
		var pe *parallel.PanicError
		if errors.As(err, &pe) {
			panic(pe.Value)
		}
		return nil, fmt.Errorf("gpu: pricing canceled: %w", err)
	}
	frameNs := make([]float64, nc*nf)
	runs := make([]PricedRun, nc)
	for c := range runs {
		r := &runs[c]
		r.ConfigName = cfgs[c].Name
		r.FrameNs = frameNs[c*nf : (c+1)*nf : (c+1)*nf]
		for i, ft := range frameTot[c*nf : (c+1)*nf] {
			r.FrameNs[i] = ft.TotalNs
			r.Totals.TotalNs += ft.TotalNs
			r.Totals.ComputeNs += ft.ComputeNs
			r.Totals.MemoryNs += ft.MemoryNs
			r.Totals.TrafficBytes += ft.TrafficBytes
		}
		r.TotalNs = r.Totals.TotalNs
	}
	return runs, nil
}
