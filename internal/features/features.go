// Package features extracts micro-architecture independent (MAI)
// characteristics from draw calls.
//
// This is the heart of the paper's clustering step: draw calls are
// grouped by similarity of properties that describe the *work
// submitted* (geometry size, shader instruction mix, texture working
// set, raster state) rather than how any particular GPU executes it.
// Clusters formed on MAI features therefore transfer across
// architecture configurations — the property that lets one subset
// stand in for the parent workload over a whole pathfinding sweep.
package features

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/cache"
	"repro/internal/linalg"
	"repro/internal/shader"
	"repro/internal/trace"
)

// SchemaVersion versions the feature vector definition: the constant
// index order below, the per-feature transforms, and NumFeatures. The
// result cache mixes it into every cached feature matrix's key, so
// changing what a feature means invalidates cached matrices instead
// of silently serving stale ones. Bump it with any change to the
// extraction.
const SchemaVersion = 1

// Feature indices of the default schema. Order is load-bearing: the
// extractor writes by these indices and group ablations slice by them.
const (
	fGeomLogVerts = iota
	fGeomLogPrims
	fGeomLogInstances
	fVSALU
	fVSSFU
	fVSInterp
	fVSMem
	fVSCF
	fPSALU
	fPSSFU
	fPSTex
	fPSInterp
	fPSMem
	fPSCF
	fTexCount
	fTexLogWS
	fTexLocality
	fRasterLogPixels
	fRasterOverdraw
	fRasterLogRTPixels
	fStateBlend
	fStateDepth
	fStateTriList
	numFeatures
)

// NumFeatures is the dimensionality of the default feature vector.
const NumFeatures = numFeatures

// featureNames, indexed by the constants above.
var featureNames = [numFeatures]string{
	"geom.logverts", "geom.logprims", "geom.loginstances",
	"vs.alu", "vs.sfu", "vs.interp", "vs.mem", "vs.cf",
	"ps.alu", "ps.sfu", "ps.tex", "ps.interp", "ps.mem", "ps.cf",
	"tex.count", "tex.logws", "tex.locality",
	"raster.logpixels", "raster.overdraw", "raster.logrtpixels",
	"state.blend", "state.depth", "state.trilist",
}

// groups maps ablation-group names to their feature indices.
var groups = map[string][]int{
	"geometry": {fGeomLogVerts, fGeomLogPrims, fGeomLogInstances},
	"vshader":  {fVSALU, fVSSFU, fVSInterp, fVSMem, fVSCF},
	"pshader":  {fPSALU, fPSSFU, fPSTex, fPSInterp, fPSMem, fPSCF},
	"texture":  {fTexCount, fTexLogWS, fTexLocality},
	"raster":   {fRasterLogPixels, fRasterOverdraw, fRasterLogRTPixels},
	"state":    {fStateBlend, fStateDepth, fStateTriList},
}

// Names returns the feature names in index order.
func Names() []string {
	out := make([]string, numFeatures)
	copy(out[:], featureNames[:])
	return out
}

// GroupNames returns the ablation group names, sorted.
func GroupNames() []string {
	out := make([]string, 0, len(groups))
	for g := range groups {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// GroupIndices returns the feature indices belonging to the named
// groups, sorted ascending. Unknown group names are an error.
func GroupIndices(names ...string) ([]int, error) {
	var idx []int
	for _, n := range names {
		g, ok := groups[n]
		if !ok {
			return nil, fmt.Errorf("features: unknown group %q (have %v)", n, GroupNames())
		}
		idx = append(idx, g...)
	}
	sort.Ints(idx)
	return idx, nil
}

// Extractor computes feature vectors for the draws of one workload.
// Shader mixes are analyzed once per program; extraction is then O(1)
// per draw. Safe for concurrent use after construction.
//
// Construction flattens every per-draw lookup into tables indexed by
// resource id — shader op counts, texture footprints, render-target
// pixel counts and their log transforms — so the per-draw inner loop
// is pure arithmetic with no interface calls. The shader table is
// dense unless a workload's shader ids are pathologically sparse
// (hostile uploads), where it falls back to a map (shader.Table).
type Extractor struct {
	w *trace.Workload

	// Lookup tables, indexed by id (entry 0 unused for textures and
	// render targets), precomputed so extraction never allocates.
	shaderOps   *shader.Table[[shader.NumOpKinds]float64]
	texFoot     []float64 // float64(Texture.Footprint()), by TextureID
	rtPixels    []float64 // float64(RenderTarget.Pixels()), by RTID
	rtLogPixels []float64 // math.Log1p(rtPixels), by RTID
}

// NewExtractor validates the workload and pre-analyzes its shaders.
func NewExtractor(w *trace.Workload) (*Extractor, error) {
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("features: %w", err)
	}
	return NewShellExtractor(w)
}

// NewShellExtractor builds an extractor against a workload that may
// have no frames — the streaming case, where the shell carries only
// resource tables and frames arrive one at a time. Per-draw resource
// references are still checked (DrawInto panics on dangling ones); the
// whole-workload validation that requires frames is skipped.
func NewShellExtractor(w *trace.Workload) (*Extractor, error) {
	if w.Shaders == nil {
		return nil, fmt.Errorf("features: workload %q has nil shader registry", w.Name)
	}
	e := &Extractor{w: w, shaderOps: shader.NewTable(w.Shaders, func(p *shader.Program) (ops [shader.NumOpKinds]float64) {
		mix := p.Analyze()
		for op := range ops {
			ops[op] = float64(mix.Count(shader.Op(op)))
		}
		return ops
	})}
	e.texFoot = make([]float64, len(w.Textures)+1)
	for i, tex := range w.Textures {
		e.texFoot[i+1] = float64(tex.Footprint())
	}
	e.rtPixels = make([]float64, len(w.RenderTargets)+1)
	e.rtLogPixels = make([]float64, len(w.RenderTargets)+1)
	for i, rt := range w.RenderTargets {
		px := float64(rt.Pixels())
		e.rtPixels[i+1] = px
		e.rtLogPixels[i+1] = math.Log1p(px)
	}
	return e, nil
}

// Draw returns the MAI feature vector of one draw call. The draw must
// reference resources of the extractor's workload; dangling references
// panic (corrupted subset, not a runtime condition).
func (e *Extractor) Draw(d *trace.DrawCall) []float64 {
	v := make([]float64, numFeatures)
	e.DrawInto(d, v)
	return v
}

// DrawInto writes the feature vector into dst, which must have length
// NumFeatures. Use this form in per-frame loops to avoid allocation —
// the steady state is allocation-free, an invariant the allocation
// tests pin.
func (e *Extractor) DrawInto(d *trace.DrawCall, dst []float64) {
	if len(dst) != numFeatures {
		panic(fmt.Sprintf("features: DrawInto dst length %d, want %d", len(dst), numFeatures))
	}
	vsOps := e.ops(d.VS, "VS")
	psOps := e.ops(d.PS, "PS")
	if d.RT == 0 || int(d.RT) >= len(e.rtPixels) {
		panic(fmt.Sprintf("features: trace: render target id %d out of range [1, %d]", d.RT, len(e.rtPixels)-1))
	}

	dst[fGeomLogVerts] = math.Log1p(float64(d.TotalVertices()))
	dst[fGeomLogPrims] = math.Log1p(float64(d.TotalPrimitives()))
	dst[fGeomLogInstances] = math.Log1p(float64(d.InstanceCount))

	dst[fVSALU] = vsOps[shader.OpALU]
	dst[fVSSFU] = vsOps[shader.OpSFU]
	dst[fVSInterp] = vsOps[shader.OpInterp]
	dst[fVSMem] = vsOps[shader.OpMem]
	dst[fVSCF] = vsOps[shader.OpCF]

	dst[fPSALU] = psOps[shader.OpALU]
	dst[fPSSFU] = psOps[shader.OpSFU]
	dst[fPSTex] = psOps[shader.OpTex]
	dst[fPSInterp] = psOps[shader.OpInterp]
	dst[fPSMem] = psOps[shader.OpMem]
	dst[fPSCF] = psOps[shader.OpCF]

	var ws float64
	texCount := 0
	for _, tid := range d.Textures {
		if tid == 0 {
			continue
		}
		if int(tid) >= len(e.texFoot) {
			panic(fmt.Sprintf("features: trace: texture id %d out of range [1, %d]", tid, len(e.texFoot)-1))
		}
		ws += e.texFoot[tid]
		texCount++
	}
	dst[fTexCount] = float64(texCount)
	dst[fTexLogWS] = math.Log1p(ws * d.TexLocality)
	dst[fTexLocality] = d.TexLocality

	pixels := d.CoverageFrac * e.rtPixels[d.RT]
	dst[fRasterLogPixels] = math.Log1p(pixels * d.Overdraw)
	dst[fRasterOverdraw] = d.Overdraw
	dst[fRasterLogRTPixels] = e.rtLogPixels[d.RT]

	dst[fStateBlend] = b2f(d.BlendEnable)
	dst[fStateDepth] = b2f(d.DepthEnable)
	dst[fStateTriList] = b2f(d.Topology == trace.TriangleList)
}

// ops resolves a shader id to its precomputed per-category op counts.
// A dangling reference is a corrupted subset, not a runtime condition:
// it panics.
func (e *Extractor) ops(id shader.ID, stage string) *[shader.NumOpKinds]float64 {
	ops := e.shaderOps.Get(id)
	if ops == nil {
		panic(fmt.Sprintf("features: draw references unknown %s %d", stage, id))
	}
	return ops
}

// Frame returns the feature matrix of a frame: one row per draw, in
// draw order, as one contiguous allocation.
func (e *Extractor) Frame(f *trace.Frame) *linalg.Matrix {
	return e.FrameInto(f, nil)
}

// FrameInto is Frame with scratch reuse: when m's backing array is
// large enough the matrix is resized in place and no allocation
// happens; otherwise (or when m is nil) a new matrix is allocated.
// Either way the returned matrix is the one filled — per-frame loops
// keep one scratch matrix alive instead of allocating per frame.
func (e *Extractor) FrameInto(f *trace.Frame, m *linalg.Matrix) *linalg.Matrix {
	n := len(f.Draws)
	if m == nil || cap(m.Data) < n*numFeatures {
		m = linalg.NewMatrix(n, numFeatures)
	} else {
		m.Rows, m.Cols = n, numFeatures
		m.Data = m.Data[:n*numFeatures]
	}
	for i := range f.Draws {
		e.DrawInto(&f.Draws[i], m.Row(i))
	}
	return m
}

// FrameContext is Frame through the result cache: when ctx carries a
// cache binding (cache.WithWorkload), the frame's feature matrix is
// served content-addressed under (workload fingerprint, frame index,
// feature schema version) and computed at most once per key across
// the process — concurrent stages clustering the same frame share one
// extraction. Without a binding it computes directly. The returned
// matrix is always private to the caller (cache hits decode a fresh
// copy), so in-place normalization downstream stays safe.
func (e *Extractor) FrameContext(ctx context.Context, f *trace.Frame, frameIndex int) (*linalg.Matrix, error) {
	c, fp, ok := cache.ForWorkload(ctx)
	if !ok {
		return e.Frame(f), nil
	}
	key := cache.NewKey("features.frame", SchemaVersion).
		Bytes(fp[:]).
		Int(int64(frameIndex)).
		Sum()
	return cache.GetOrCompute(ctx, c, key, func() (*linalg.Matrix, error) {
		return e.Frame(f), nil
	})
}

// Select returns a copy of m keeping only the given feature columns,
// in the given order. Used by the feature-group ablation.
func Select(m *linalg.Matrix, idx []int) *linalg.Matrix {
	out := linalg.NewMatrix(m.Rows, len(idx))
	for i := 0; i < m.Rows; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		for j, k := range idx {
			dst[j] = src[k]
		}
	}
	return out
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
