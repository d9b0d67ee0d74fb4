package trace_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/shader"
	"repro/internal/trace"
	"repro/internal/tracetest"
)

func TestValidateAcceptsFixture(t *testing.T) {
	if err := tracetest.Tiny().Validate(); err != nil {
		t.Fatalf("fixture should validate: %v", err)
	}
}

// corrupt applies f to a fresh fixture and asserts Validate fails with
// a message containing wantSub — the same message, byte for byte, as
// the per-draw reference validator's.
func corrupt(t *testing.T, wantSub string, f func(w *trace.Workload)) {
	t.Helper()
	w := tracetest.Tiny()
	f(w)
	err := w.Validate()
	if err == nil {
		t.Fatalf("corruption %q not detected", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not mention %q", err, wantSub)
	}
	if ref := referenceValidate(w); ref == nil || ref.Error() != err.Error() {
		t.Fatalf("corruption %q: indexed validator says %q, per-draw reference says %v", wantSub, err, ref)
	}
}

// referenceValidate is the validator the indexed one replaced, kept as
// the differential oracle: it resolves both shaders through the
// registry and recomputes the pixel shader's texture slots on every
// draw.
func referenceValidate(w *trace.Workload) error {
	if w.Name == "" {
		return fmt.Errorf("trace: workload has empty name")
	}
	if w.Shaders == nil {
		return fmt.Errorf("trace: workload %q has nil shader registry", w.Name)
	}
	if len(w.Frames) == 0 {
		return fmt.Errorf("trace: workload %q has no frames", w.Name)
	}
	for fi := range w.Frames {
		f := &w.Frames[fi]
		if len(f.Draws) == 0 {
			return fmt.Errorf("trace: %q frame %d has no draws", w.Name, fi)
		}
		for di := range f.Draws {
			if err := referenceValidateDraw(w, &f.Draws[di]); err != nil {
				return fmt.Errorf("trace: %q frame %d draw %d: %w", w.Name, fi, di, err)
			}
		}
	}
	return nil
}

func referenceValidateDraw(w *trace.Workload, d *trace.DrawCall) error {
	if d.VertexCount <= 0 {
		return fmt.Errorf("vertex count %d <= 0", d.VertexCount)
	}
	if d.InstanceCount <= 0 {
		return fmt.Errorf("instance count %d <= 0", d.InstanceCount)
	}
	vs, err := w.Shaders.Lookup(d.VS)
	if err != nil {
		return fmt.Errorf("vertex shader: %w", err)
	}
	if vs.Stage != shader.StageVertex {
		return fmt.Errorf("shader %d bound as VS has stage %v", d.VS, vs.Stage)
	}
	ps, err := w.Shaders.Lookup(d.PS)
	if err != nil {
		return fmt.Errorf("pixel shader: %w", err)
	}
	if ps.Stage != shader.StagePixel {
		return fmt.Errorf("shader %d bound as PS has stage %v", d.PS, ps.Stage)
	}
	for _, slot := range ps.TextureSlots() {
		if slot >= len(d.Textures) || d.Textures[slot] == 0 {
			return fmt.Errorf("pixel shader %d samples slot %d which is unbound", d.PS, slot)
		}
	}
	for slot, tid := range d.Textures {
		if tid == 0 {
			continue
		}
		if _, err := w.Texture(tid); err != nil {
			return fmt.Errorf("slot %d: %w", slot, err)
		}
	}
	if _, err := w.RenderTarget(d.RT); err != nil {
		return err
	}
	if !(d.CoverageFrac >= 0 && d.CoverageFrac <= 1) {
		return fmt.Errorf("coverage %v outside [0, 1]", d.CoverageFrac)
	}
	if !(d.Overdraw >= 1) || math.IsInf(d.Overdraw, 1) {
		return fmt.Errorf("overdraw %v outside [1, +Inf)", d.Overdraw)
	}
	if !(d.TexLocality > 0 && d.TexLocality <= 1) {
		return fmt.Errorf("texture locality %v outside (0, 1]", d.TexLocality)
	}
	return nil
}

func TestValidateDetectsCorruption(t *testing.T) {
	corrupt(t, "empty name", func(w *trace.Workload) { w.Name = "" })
	corrupt(t, "no frames", func(w *trace.Workload) { w.Frames = nil })
	corrupt(t, "no draws", func(w *trace.Workload) { w.Frames[1].Draws = nil })
	corrupt(t, "vertex count", func(w *trace.Workload) { w.Frames[0].Draws[0].VertexCount = 0 })
	corrupt(t, "instance count", func(w *trace.Workload) { w.Frames[0].Draws[0].InstanceCount = -1 })
	corrupt(t, "vertex shader", func(w *trace.Workload) { w.Frames[0].Draws[0].VS = 999 })
	corrupt(t, "pixel shader", func(w *trace.Workload) { w.Frames[0].Draws[0].PS = 999 })
	corrupt(t, "bound as VS", func(w *trace.Workload) {
		// Bind a pixel shader in the VS slot.
		w.Frames[0].Draws[0].VS = w.Frames[0].Draws[0].PS
	})
	corrupt(t, "unbound", func(w *trace.Workload) {
		// Draw 0 binds ps.textured which samples slots 0 and 1.
		w.Frames[0].Draws[0].Textures = nil
	})
	corrupt(t, "texture id", func(w *trace.Workload) {
		w.Frames[0].Draws[0].Textures = []trace.TextureID{1, 99}
	})
	corrupt(t, "render target", func(w *trace.Workload) { w.Frames[0].Draws[0].RT = 5 })
	corrupt(t, "coverage", func(w *trace.Workload) { w.Frames[0].Draws[0].CoverageFrac = 1.5 })
	corrupt(t, "overdraw", func(w *trace.Workload) { w.Frames[0].Draws[0].Overdraw = 0.5 })
	corrupt(t, "locality", func(w *trace.Workload) { w.Frames[0].Draws[0].TexLocality = 0 })
	// Every comparison with NaN is false: the range checks must still
	// fail it, and overdraw must be finite.
	corrupt(t, "coverage NaN", func(w *trace.Workload) { w.Frames[0].Draws[0].CoverageFrac = math.NaN() })
	corrupt(t, "overdraw NaN", func(w *trace.Workload) { w.Frames[0].Draws[0].Overdraw = math.NaN() })
	corrupt(t, "overdraw +Inf", func(w *trace.Workload) { w.Frames[0].Draws[0].Overdraw = math.Inf(1) })
	corrupt(t, "locality NaN", func(w *trace.Workload) { w.Frames[0].Draws[0].TexLocality = math.NaN() })
}

func TestValidateReportsCoordinates(t *testing.T) {
	w := tracetest.Tiny()
	w.Frames[2].Draws[3].VertexCount = -5
	err := w.Validate()
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "frame 2 draw 3") {
		t.Errorf("error lacks coordinates: %v", err)
	}
	if ref := referenceValidate(w); ref == nil || ref.Error() != err.Error() {
		t.Errorf("indexed validator says %q, per-draw reference says %v", err, ref)
	}
}

func TestValidateAllCollectsEveryViolation(t *testing.T) {
	if err := tracetest.Tiny().ValidateAll(); err != nil {
		t.Fatalf("clean fixture: ValidateAll = %v, want nil", err)
	}

	w := tracetest.Tiny()
	w.Frames[0].Draws[0].CoverageFrac = 1.5
	w.Frames[1].Draws[1].Overdraw = 0.5
	w.Frames[2].Draws[0].VS = 999
	err := w.ValidateAll()
	if err == nil {
		t.Fatal("three violations, ValidateAll = nil")
	}
	// Validate stops at the first problem; ValidateAll must name all three.
	for _, want := range []string{
		"frame 0 draw 0", "coverage 1.5",
		"frame 1 draw 1", "overdraw 0.5",
		"frame 2 draw 0", "vertex shader",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q:\n%v", want, err)
		}
	}
	first := w.Validate()
	if first == nil || strings.Contains(first.Error(), "overdraw") {
		t.Errorf("Validate should stop at the first violation, got %v", first)
	}
	if ref := referenceValidate(w); ref == nil || first == nil || ref.Error() != first.Error() {
		t.Errorf("indexed validator says %v, per-draw reference says %v", first, ref)
	}
}

func TestSanitizeFrameDropsOnlyInvalidDraws(t *testing.T) {
	w := tracetest.Tiny()
	f := &w.Frames[0]
	total := len(f.Draws)
	if total < 3 {
		t.Fatalf("fixture frame 0 has %d draws, need >= 3", total)
	}
	survivor := f.Draws[1] // untouched draw, must come through intact
	f.Draws[0].CoverageFrac = 2
	f.Draws[2].Overdraw = 0
	if err, ref := w.Validate(), referenceValidate(w); err == nil || ref == nil || err.Error() != ref.Error() {
		t.Fatalf("indexed validator says %v, per-draw reference says %v", err, ref)
	}

	dropped, err := w.SanitizeFrame(f)
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	if err == nil || !strings.Contains(err.Error(), "draw 0") || !strings.Contains(err.Error(), "draw 2") {
		t.Fatalf("joined violations should name draws 0 and 2, got %v", err)
	}
	if len(f.Draws) != total-2 {
		t.Fatalf("frame kept %d draws, want %d", len(f.Draws), total-2)
	}
	if f.Draws[0].VS != survivor.VS || f.Draws[0].CoverageFrac != survivor.CoverageFrac {
		t.Error("surviving draw was altered by sanitization")
	}
	// A sanitized frame must validate again.
	if err := w.Validate(); err != nil {
		t.Fatalf("workload invalid after sanitization: %v", err)
	}

	// Clean frames report zero drops and no error.
	dropped, err = w.SanitizeFrame(&w.Frames[1])
	if dropped != 0 || err != nil {
		t.Fatalf("clean frame: dropped=%d err=%v, want 0, nil", dropped, err)
	}
}
