package gpu

import (
	"fmt"

	"repro/internal/dcmath"
	"repro/internal/shader"
	"repro/internal/trace"
)

// DetailedTexResult is the outcome of replaying a draw's texture
// accesses through the exact LRU cache.
type DetailedTexResult struct {
	Samples   int
	HitRate   float64
	DRAMBytes float64 // scaled back up when the stream was capped
}

// sequentialRunProb is the chance each access continues the current
// spatial run instead of jumping; screen-space texture access is highly
// coherent, which is why texture caches work at all.
const sequentialRunProb = 0.85

// DetailedTexTraffic replays a deterministic synthetic access stream
// for the draw through an exact set-associative LRU cache and measures
// hit rate and DRAM traffic. The stream mimics rasterization-order
// texture access: mostly sequential texel runs with occasional jumps
// across the working set.
//
// maxSamples caps the replay length for tractability; when the draw
// issues more samples than the cap, measured traffic is scaled
// proportionally. This is the "detailed mode" counterpart of the
// analytic model in memmodel.go; tests use it to validate the analytic
// model's direction, and callers can use it to spot-check individual
// draws.
func (s *Simulator) DetailedTexTraffic(d *trace.DrawCall, maxSamples int) (DetailedTexResult, error) {
	if maxSamples <= 0 {
		return DetailedTexResult{}, fmt.Errorf("gpu: maxSamples %d <= 0", maxSamples)
	}
	if err := s.checkRefs(d); err != nil {
		return DetailedTexResult{}, err
	}
	// The samples and working set the analytic model prices.
	var t drawTerms
	s.t.terms(d, &t)
	samples, ws := t.samples, t.ws
	if samples <= 0 || ws <= 0 {
		return DetailedTexResult{Samples: 0, HitRate: 1}, nil
	}

	replay := int(samples)
	scale := 1.0
	if replay > maxSamples {
		scale = samples / float64(maxSamples)
		replay = maxSamples
	}

	cache, err := NewTexCache(s.cfg.TexCacheKB, s.cfg.TexCacheLineB, s.cfg.TexCacheWays)
	if err != nil {
		return DetailedTexResult{}, err
	}
	// Seed from draw content so replays are reproducible per draw.
	seed := uint64(d.VS)<<40 ^ uint64(d.PS)<<20 ^ uint64(d.VertexCount) ^ uint64(d.MaterialID)<<8
	rng := dcmath.NewRNG(seed)

	wsTexels := uint64(ws / texelBytes)
	if wsTexels == 0 {
		wsTexels = 1
	}
	pos := uint64(0)
	for i := 0; i < replay; i++ {
		if !rng.Bool(sequentialRunProb) {
			pos = rng.Uint64() % wsTexels
		}
		cache.Access(pos * texelBytes)
		pos = (pos + 1) % wsTexels
	}
	return DetailedTexResult{
		Samples:   replay,
		HitRate:   cache.HitRate(),
		DRAMBytes: float64(cache.Misses()) * float64(s.cfg.TexCacheLineB) * scale,
	}, nil
}

// checkRefs returns, as an error, each dangling shader, render-target
// or texture reference of d that terms would panic on.
func (s *Simulator) checkRefs(d *trace.DrawCall) error {
	for _, id := range [...]shader.ID{d.VS, d.PS} {
		if s.t.progs.Get(id) == nil {
			return fmt.Errorf("gpu: draw references unknown shader %d", id)
		}
	}
	if _, err := s.w.RenderTarget(d.RT); err != nil {
		return err
	}
	for _, tid := range d.Textures {
		if tid == 0 {
			continue
		}
		if _, err := s.w.Texture(tid); err != nil {
			return err
		}
	}
	return nil
}
