package gpu

import (
	"fmt"

	"repro/internal/dcmath"
	"repro/internal/trace"
)

// DetailedFrameResult is a frame priced with a texture cache shared
// across draws — the context-dependent mode that the context-free cost
// oracle approximates.
type DetailedFrameResult struct {
	// TotalNs is the in-context frame cost.
	TotalNs float64
	// DrawNs holds the in-context per-draw costs.
	DrawNs []float64
	// ContextFreeNs is the same frame priced draw-by-draw in isolation
	// (the oracle the subsetting pipeline uses).
	ContextFreeNs float64
	// SharedHitRate is the shared cache's overall hit rate.
	SharedHitRate float64
}

// FrameDetailed prices a frame with one texture cache shared across
// all draws, so a draw whose textures were just touched by an earlier
// draw of the same material starts warm. This is the cross-draw
// context dependence the paper's per-draw methodology deliberately
// ignores; experiment E13 uses this mode to measure what that
// assumption costs.
//
// Each distinct texture occupies its own address region, so cross-draw
// reuse happens exactly when draws bind the same textures. Replay per
// draw is capped at maxSamplesPerDraw accesses (traffic scales up
// proportionally), keeping frame replay tractable.
func (s *Simulator) FrameDetailed(f *trace.Frame, maxSamplesPerDraw int) (DetailedFrameResult, error) {
	if maxSamplesPerDraw <= 0 {
		return DetailedFrameResult{}, fmt.Errorf("gpu: maxSamplesPerDraw %d <= 0", maxSamplesPerDraw)
	}
	cache, err := NewTexCache(s.cfg.TexCacheKB, s.cfg.TexCacheLineB, s.cfg.TexCacheWays)
	if err != nil {
		return DetailedFrameResult{}, err
	}
	res := DetailedFrameResult{DrawNs: make([]float64, len(f.Draws))}

	// Per-texture address bases: 256 MB regions keyed by texture id.
	const regionBytes = 256 << 20

	for di := range f.Draws {
		d := &f.Draws[di]
		var t drawTerms
		var dc DrawCost // analytic stage costs + isolated texture model
		s.price(d, &t, &dc)
		res.ContextFreeNs += dc.TotalNs

		if t.samples > 0 {
			measured, err := s.replayShared(cache, d, t.samples, maxSamplesPerDraw, regionBytes)
			if err != nil {
				return DetailedFrameResult{}, err
			}
			dc.TexBytes = measured
			s.cfg.finalize(&dc, t.noiseZ)
		}
		res.DrawNs[di] = dc.TotalNs
		res.TotalNs += dc.TotalNs
	}
	res.SharedHitRate = cache.HitRate()
	return res, nil
}

// replayShared streams one draw's texture accesses through the shared
// cache and returns the measured DRAM bytes (scaled if capped).
func (s *Simulator) replayShared(cache *TexCache, d *trace.DrawCall, samples float64, maxSamples int, regionBytes uint64) (float64, error) {
	// Collect bound textures and their touched extents.
	type region struct {
		base   uint64
		texels uint64
	}
	var regions []region
	var totalTexels uint64
	for _, tid := range d.Textures {
		if tid == 0 {
			continue
		}
		tex, err := s.w.Texture(tid)
		if err != nil {
			return 0, err
		}
		touched := float64(tex.Footprint()) * d.TexLocality
		texels := uint64(float64(touched / texelBytes))
		if texels == 0 {
			continue
		}
		regions = append(regions, region{base: uint64(tid) * regionBytes, texels: texels})
		totalTexels += texels
	}
	if len(regions) == 0 {
		return 0, nil
	}
	// Cap the touched extent by the samples the draw actually issues
	// (same rule as the analytic model).
	if maxT := uint64(samples); totalTexels > maxT && maxT > 0 {
		scale := float64(maxT) / float64(totalTexels)
		totalTexels = 0
		for i := range regions {
			regions[i].texels = uint64(float64(float64(regions[i].texels) * scale))
			if regions[i].texels == 0 {
				regions[i].texels = 1
			}
			totalTexels += regions[i].texels
		}
	}

	replay := int(samples)
	scale := 1.0
	if replay > maxSamples {
		scale = samples / float64(maxSamples)
		replay = maxSamples
	}
	seed := uint64(d.VS)<<40 ^ uint64(d.PS)<<20 ^ uint64(d.VertexCount) ^ uint64(d.MaterialID)<<8
	rng := dcmath.NewRNG(seed)

	missesBefore := cache.Misses()
	ri := 0
	pos := uint64(0)
	for i := 0; i < replay; i++ {
		if !rng.Bool(sequentialRunProb) {
			ri = rng.Intn(len(regions))
			pos = rng.Uint64() % regions[ri].texels
		}
		r := regions[ri]
		cache.Access(r.base + (pos%r.texels)*texelBytes)
		pos++
	}
	return float64(cache.Misses()-missesBefore) * float64(s.cfg.TexCacheLineB) * scale, nil
}
