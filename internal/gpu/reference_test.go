package gpu

import (
	"fmt"
	"math"

	"repro/internal/dcmath"
	"repro/internal/shader"
	"repro/internal/trace"
)

// ReferenceSim is the pricing path the PriceGrid kernel replaced,
// frozen as the differential oracle: a per-simulator map of program
// costs, per-draw resource lookups through the workload, every term
// recomputed for every config, and sweep pricing as one full walk per
// config folding DrawTotals the way the sweep layer used to. The
// kernel must agree with it bit for bit. It is exported to the
// external test package only.
type ReferenceSim struct {
	cfg   Config
	w     *trace.Workload
	progs map[shader.ID]programCost
}

// NewReferenceSim builds the reference for an already-validated
// workload.
func NewReferenceSim(cfg Config, w *trace.Workload) *ReferenceSim {
	progs := make(map[shader.ID]programCost, w.Shaders.Len())
	for _, p := range w.Shaders.Programs() {
		progs[p.ID] = analyzeProgram(p)
	}
	return &ReferenceSim{cfg: cfg, w: w, progs: progs}
}

// DrawCost is the frozen one-config draw pricing.
func (s *ReferenceSim) DrawCost(d *trace.DrawCall) DrawCost {
	cfg := &s.cfg
	vsPC, ok := s.progs[d.VS]
	if !ok {
		panic(fmt.Sprintf("gpu: draw references unknown VS %d", d.VS))
	}
	psPC, ok := s.progs[d.PS]
	if !ok {
		panic(fmt.Sprintf("gpu: draw references unknown PS %d", d.PS))
	}
	rt, err := s.w.RenderTarget(d.RT)
	if err != nil {
		panic(fmt.Sprintf("gpu: %v", err))
	}

	var dc DrawCost
	verts := float64(d.TotalVertices())
	prims := float64(d.TotalPrimitives())
	covered := d.CoverageFrac * float64(rt.Pixels())
	dc.ShadedPixels = covered * d.Overdraw

	rate := cfg.ShaderRate()
	dc.VSCycles = verts * vsPC.clocksPerElem / rate
	dc.SetupCycles = prims / cfg.PrimSetupRate
	dc.RasterCycles = dc.ShadedPixels / cfg.RasterRate
	dc.PSCycles = dc.ShadedPixels * psPC.clocksPerElem / rate
	ropPixels := dc.ShadedPixels
	if d.BlendEnable {
		ropPixels *= 2
	}
	dc.ROPCycles = ropPixels / cfg.ROPRate
	dc.CoreCycles = max5(dc.VSCycles, dc.SetupCycles, dc.RasterCycles, dc.PSCycles, dc.ROPCycles)
	dc.ComputeNs = dc.CoreCycles / cfg.CoreClockGHz

	dc.VertexBytes = verts * float64(cfg.VertexSizeB)
	samples := dc.ShadedPixels * psPC.texPerElem
	if samples > 0 {
		var ws float64
		for _, tid := range d.Textures {
			if tid == 0 {
				continue
			}
			tex, err := s.w.Texture(tid)
			if err != nil {
				panic(fmt.Sprintf("gpu: %v", err))
			}
			ws += float64(tex.Footprint())
		}
		ws *= d.TexLocality
		if maxWS := samples * texelBytes; ws > maxWS {
			ws = maxWS
		}
		tt := modelTexTraffic(samples, ws, cfg.TexCacheKB*1024, cfg.TexCacheLineB)
		dc.TexBytes = tt.Bytes
		dc.TexHitRate = tt.HitRate
	} else {
		dc.TexHitRate = 1
	}
	rtBytes := covered * float64(rt.BytesPerPixel)
	if d.BlendEnable {
		rtBytes *= 2
	}
	dc.RTBytes = rtBytes * cfg.ColorCompression
	if d.DepthEnable && rt.HasDepth {
		dc.DepthBytes = dc.ShadedPixels * 4 * 2 * cfg.DepthCompression
	}

	dc.MemoryNs = dc.TrafficBytes() / cfg.BandwidthGBs()
	tc, tm := dc.ComputeNs, dc.MemoryNs
	dc.MemoryBound = false
	if tm > tc {
		dc.MemoryBound = true
		tc, tm = tm, tc
	}
	dc.OverheadNs = cfg.DrawOverheadNs
	dc.TotalNs = tc + cfg.OverlapBeta*tm + dc.OverheadNs
	if cfg.NoiseAmp > 0 {
		sigma := cfg.NoiseAmp * math.Sqrt(cfg.NoiseRefNs/dc.TotalNs)
		if sigma > 0.5 {
			sigma = 0.5
		}
		dc.TotalNs *= dcmath.Exp(sigma * drawNoiseZ(d))
	}
	return dc
}

// PriceParent is the frozen one-config sweep pricing pass: per-frame
// times sum draws in order, the total sums frames in order, and the
// totals fold per draw.
func (s *ReferenceSim) PriceParent() (frameNs []float64, totalNs float64, totals Totals) {
	frameNs = make([]float64, len(s.w.Frames))
	for i := range s.w.Frames {
		f := &s.w.Frames[i]
		var fns float64
		for di := range f.Draws {
			dc := s.DrawCost(&f.Draws[di])
			tn, cn, mn, tb := dc.TotalNs, dc.ComputeNs, dc.MemoryNs, dc.TrafficBytes()
			fns += tn
			totals.TotalNs += tn
			totals.ComputeNs += cn
			totals.MemoryNs += mn
			totals.TrafficBytes += tb
		}
		frameNs[i] = fns
		totalNs += fns
	}
	return frameNs, totalNs, totals
}
