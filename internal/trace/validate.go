package trace

import (
	"fmt"
	"math"

	"repro/internal/shader"
)

// Validate checks referential and value integrity of the workload:
// every draw references registered shaders of the right stage, valid
// resource ids, and carries in-range screen-space measurements.
// The first problem found is returned with its frame/draw coordinates.
func (w *Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("trace: workload has empty name")
	}
	if w.Shaders == nil {
		return fmt.Errorf("trace: workload %q has nil shader registry", w.Name)
	}
	if len(w.Frames) == 0 {
		return fmt.Errorf("trace: workload %q has no frames", w.Name)
	}
	c := w.newDrawChecker()
	for fi := range w.Frames {
		f := &w.Frames[fi]
		if len(f.Draws) == 0 {
			return fmt.Errorf("trace: %q frame %d has no draws", w.Name, fi)
		}
		for di := range f.Draws {
			if err := c.check(&f.Draws[di]); err != nil {
				return fmt.Errorf("trace: %q frame %d draw %d: %w", w.Name, fi, di, err)
			}
		}
	}
	return nil
}

// drawChecker validates draws against one workload's resource tables
// through an index of every program's stage and texture slots, built
// once per validation call. Resolving a pixel shader's slots per draw
// costs a map build and a sort; through the index the per-draw check
// is table lookups. The index is per call, never stored on the
// workload, so it can never go stale when a caller edits the exported
// Frames or registry between validations.
type drawChecker struct {
	w     *Workload
	progs *shader.Table[progFacts]
}

// progFacts is what draw validation needs to know about one program.
type progFacts struct {
	stage shader.Stage
	slots []int // TextureSlots
}

func (w *Workload) newDrawChecker() drawChecker {
	return drawChecker{w: w, progs: shader.NewTable(w.Shaders, func(p *shader.Program) progFacts {
		return progFacts{stage: p.Stage, slots: p.TextureSlots()}
	})}
}

func (c drawChecker) check(d *DrawCall) error {
	w := c.w
	if d.VertexCount <= 0 {
		return fmt.Errorf("vertex count %d <= 0", d.VertexCount)
	}
	if d.InstanceCount <= 0 {
		return fmt.Errorf("instance count %d <= 0", d.InstanceCount)
	}
	vs := c.progs.Get(d.VS)
	if vs == nil {
		_, err := w.Shaders.Lookup(d.VS)
		return fmt.Errorf("vertex shader: %w", err)
	}
	if vs.stage != shader.StageVertex {
		return fmt.Errorf("shader %d bound as VS has stage %v", d.VS, vs.stage)
	}
	ps := c.progs.Get(d.PS)
	if ps == nil {
		_, err := w.Shaders.Lookup(d.PS)
		return fmt.Errorf("pixel shader: %w", err)
	}
	if ps.stage != shader.StagePixel {
		return fmt.Errorf("shader %d bound as PS has stage %v", d.PS, ps.stage)
	}
	// Every texture slot the pixel shader samples must be bound.
	for _, slot := range ps.slots {
		if slot >= len(d.Textures) || d.Textures[slot] == 0 {
			return fmt.Errorf("pixel shader %d samples slot %d which is unbound", d.PS, slot)
		}
	}
	// Resource ids are range-checked inline; the lookups run only to
	// word the error.
	for slot, tid := range d.Textures {
		if int(tid) > len(w.Textures) {
			_, err := w.Texture(tid)
			return fmt.Errorf("slot %d: %w", slot, err)
		}
	}
	if d.RT == 0 || int(d.RT) > len(w.RenderTargets) {
		_, err := w.RenderTarget(d.RT)
		return err
	}
	// Every comparison with NaN is false, so each range is written to
	// fail for NaN.
	if !(d.CoverageFrac >= 0 && d.CoverageFrac <= 1) {
		return fmt.Errorf("coverage %v outside [0, 1]", d.CoverageFrac)
	}
	if !(d.Overdraw >= 1 && d.Overdraw <= math.MaxFloat64) {
		return fmt.Errorf("overdraw %v outside [1, +Inf)", d.Overdraw)
	}
	if !(d.TexLocality > 0 && d.TexLocality <= 1) {
		return fmt.Errorf("texture locality %v outside (0, 1]", d.TexLocality)
	}
	return nil
}

// sanitize removes the draws that fail validation from f in place — the
// lenient reader's repair — and returns how many it dropped.
func (c drawChecker) sanitize(f *Frame) int {
	kept := f.Draws[:0]
	for di := range f.Draws {
		if c.check(&f.Draws[di]) == nil {
			kept = append(kept, f.Draws[di])
		}
	}
	dropped := len(f.Draws) - len(kept)
	f.Draws = kept
	return dropped
}
