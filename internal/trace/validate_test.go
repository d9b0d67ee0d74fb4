package trace_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/shader"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/traceerr"
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

// TestValidateStopsAtFirstViolation: with three violations, Validate
// names the first in frame order and agrees with the reference.
func TestValidateStopsAtFirstViolation(t *testing.T) {
	w := tracetest.Tiny()
	w.Frames[0].Draws[0].CoverageFrac = 1.5
	w.Frames[1].Draws[1].Overdraw = 0.5
	w.Frames[2].Draws[0].VS = 999
	first := w.Validate()
	if first == nil || !strings.Contains(first.Error(), "frame 0 draw 0") || strings.Contains(first.Error(), "overdraw") {
		t.Errorf("Validate should stop at the first violation, got %v", first)
	}
	if ref := referenceValidate(w); ref == nil || first == nil || ref.Error() != first.Error() {
		t.Errorf("indexed validator says %v, per-draw reference says %v", first, ref)
	}
}

// traceForms encodes w in every form a writer can still produce: a
// container, JSON and a gob .trace.
func traceForms(t *testing.T, w *trace.Workload) []struct {
	name string
	data []byte
} {
	t.Helper()
	var container bytes.Buffer
	if err := w.Encode(&container); err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		data []byte
	}{
		{"container", container.Bytes()},
		{"json", encodeJSON(t, w)},
		{"gob", encodeGobTrace(t, w)},
	}
}

// readBack is w as the strict reader returns a clean container of it:
// the reference a repaired read must equal.
func readBack(t *testing.T, w *trace.Workload) *trace.Workload {
	t.Helper()
	var buf bytes.Buffer
	if err := w.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSanitizeFrameDropsOnlyInvalidDraws: a lenient read of a frame
// with two invalid draws drops exactly those two, in every form, and
// delivers the survivors and the other frames unaltered.
func TestSanitizeFrameDropsOnlyInvalidDraws(t *testing.T) {
	w := tracetest.Tiny()
	f := &w.Frames[0]
	if len(f.Draws) < 3 {
		t.Fatalf("fixture frame 0 has %d draws, need >= 3", len(f.Draws))
	}
	f.Draws[0].CoverageFrac = 2
	f.Draws[2].Overdraw = 0
	if err, ref := w.Validate(), referenceValidate(w); err == nil || ref == nil || err.Error() != ref.Error() {
		t.Fatalf("indexed validator says %v, per-draw reference says %v", err, ref)
	}
	repaired := *w
	repaired.Frames = append([]trace.Frame{}, w.Frames...)
	repaired.Frames[0].Draws = append([]trace.DrawCall{f.Draws[1]}, f.Draws[3:]...)
	want := readBack(t, &repaired)

	for _, form := range traceForms(t, w) {
		got, diag, err := trace.ReadStream(bytes.NewReader(form.data), trace.ReaderOptions{Lenient: true})
		if err != nil {
			t.Fatalf("%s: %v", form.name, err)
		}
		if diag != (traceerr.Diagnostics{DrawsDropped: 2}) {
			t.Errorf("%s: diagnostics %+v, want 2 draws dropped", form.name, diag)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the repair dropped or altered more than the two invalid draws", form.name)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%s: workload invalid after the repair: %v", form.name, err)
		}
	}
}

// sanitizeGame is a small private game for the whole-workload repair
// tests, which damage it in place.
func sanitizeGame(t *testing.T) *trace.Workload {
	t.Helper()
	p := synth.Bioshock1Profile()
	p.Frames = 64
	p.MaterialsPerScene = 40
	p.SharedMaterials = 8
	p.Textures = 80
	p.VSPool = 6
	p.PSPool = 16
	w, err := synth.Generate(p, 51)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSanitizeRepairsDamageForAStrictRun: in every form, a lenient read
// drops exactly the invalid draws and the frame left without any, and
// the strict pipeline, which rejects the damaged workload, builds a
// subset from the repaired one. A strict read rejects the damage as an
// invalid frame.
func TestSanitizeRepairsDamageForAStrictRun(t *testing.T) {
	w := sanitizeGame(t)
	cleanDraws := w.NumDraws()
	// One rotten draw in frame 2, one frame (5) damaged beyond use.
	w.Frames[2].Draws[0].Overdraw = 0.2
	for di := range w.Frames[5].Draws {
		w.Frames[5].Draws[di].VertexCount = -1
	}
	droppedWhole := len(w.Frames[5].Draws)
	repaired := *w
	repaired.Frames = append(append([]trace.Frame{}, w.Frames[:5]...), w.Frames[6:]...)
	repaired.Frames[2].Draws = repaired.Frames[2].Draws[1:]
	want := readBack(t, &repaired)
	wantDiag := traceerr.Diagnostics{FramesSkipped: 1, DrawsDropped: droppedWhole + 1}

	opt := core.DefaultOptions()
	opt.SkipClusteringEval = true
	strict, err := core.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := strict.Run(w); err == nil {
		t.Fatal("strict run accepted damaged workload")
	}

	for _, form := range traceForms(t, w) {
		if _, err := trace.Decode(bytes.NewReader(form.data)); !errors.Is(err, traceerr.ErrInvalidFrame) {
			t.Errorf("%s: strict read: err = %v, want ErrInvalidFrame", form.name, err)
		}
		got, diag, err := trace.ReadStream(bytes.NewReader(form.data), trace.ReaderOptions{Lenient: true})
		if err != nil {
			t.Fatalf("%s: lenient read failed: %v", form.name, err)
		}
		if diag != wantDiag {
			t.Errorf("%s: diagnostics %+v, want %+v", form.name, diag, wantDiag)
		}
		if got := trace.Summarize(got).Draws; got != cleanDraws-droppedWhole-1 {
			t.Errorf("%s: summary draws = %d, want %d", form.name, got, cleanDraws-droppedWhole-1)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: repaired workload differs from the damaged one less its invalid draws and frame", form.name)
		}
	}
	rep, err := strict.Run(want)
	if err != nil {
		t.Fatalf("strict run over the repaired workload failed: %v", err)
	}
	if rep.Subset == nil || len(rep.Subset.Frames) == 0 {
		t.Fatal("no subset built from the repaired workload")
	}
}

// TestSanitizeRejectsUnusableWorkload: when no frame survives, a read
// in either mode fails as an invalid frame, in every form, instead of
// returning an empty workload.
func TestSanitizeRejectsUnusableWorkload(t *testing.T) {
	w := sanitizeGame(t)
	for fi := range w.Frames {
		for di := range w.Frames[fi].Draws {
			w.Frames[fi].Draws[di].VertexCount = -1
		}
	}
	for _, form := range traceForms(t, w) {
		for _, lenient := range []bool{false, true} {
			_, _, err := trace.ReadStream(bytes.NewReader(form.data), trace.ReaderOptions{Lenient: lenient})
			if !errors.Is(err, traceerr.ErrInvalidFrame) {
				t.Errorf("%s lenient=%v: err = %v, want ErrInvalidFrame", form.name, lenient, err)
			}
		}
	}
}
