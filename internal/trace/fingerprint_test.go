package trace_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/shader"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/tracetest"
)

func TestFingerprintDeterministic(t *testing.T) {
	a := tracetest.Tiny()
	b := tracetest.Tiny()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical workloads fingerprint differently")
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint not stable across calls")
	}
}

// fingerprintMutations changes one thing each in a tracetest.Tiny
// workload. A key "Type.Field" names the model field its mutation
// changes; TestFingerprintCoversEveryModelField holds the keys to the
// model's fields.
var fingerprintMutations = map[string]func(*trace.Workload){
	"Workload.Name":   func(w *trace.Workload) { w.Name += "x" },
	"Workload.Frames": func(w *trace.Workload) { w.Frames = w.Frames[1:] },
	"Workload.Shaders": func(w *trace.Workload) {
		if _, err := w.Shaders.Register(&shader.Program{Stage: shader.StagePixel, Name: "ps.extra", Body: []shader.Instr{{Op: shader.OpALU}}}); err != nil {
			panic(err)
		}
	},
	"Workload.Textures":      func(w *trace.Workload) { w.Textures = append(w.Textures, w.Textures[0]) },
	"Workload.RenderTargets": func(w *trace.Workload) { w.RenderTargets = append(w.RenderTargets, w.RenderTargets[0]) },
	"Frame.Scene":            func(w *trace.Workload) { w.Frames[0].Scene += "x" },
	"Frame.Draws":            func(w *trace.Workload) { w.Frames[0].Draws = w.Frames[0].Draws[1:] },
	"DrawCall.VertexCount":   func(w *trace.Workload) { w.Frames[0].Draws[0].VertexCount++ },
	"DrawCall.InstanceCount": func(w *trace.Workload) { w.Frames[0].Draws[0].InstanceCount++ },
	"DrawCall.Topology":      func(w *trace.Workload) { w.Frames[0].Draws[0].Topology ^= 1 },
	"DrawCall.VS":            func(w *trace.Workload) { w.Frames[0].Draws[0].VS ^= 3 },
	"DrawCall.PS":            func(w *trace.Workload) { w.Frames[0].Draws[0].PS ^= 7 },
	"DrawCall.Textures": func(w *trace.Workload) {
		ts := w.Frames[0].Draws[0].Textures
		ts[0], ts[1] = ts[1], ts[0]
	},
	"DrawCall.RT":           func(w *trace.Workload) { w.Frames[0].Draws[0].RT ^= 1 },
	"DrawCall.BlendEnable":  func(w *trace.Workload) { w.Frames[0].Draws[0].BlendEnable = !w.Frames[0].Draws[0].BlendEnable },
	"DrawCall.DepthEnable":  func(w *trace.Workload) { w.Frames[0].Draws[0].DepthEnable = !w.Frames[0].Draws[0].DepthEnable },
	"DrawCall.CoverageFrac": func(w *trace.Workload) { w.Frames[0].Draws[0].CoverageFrac *= 0.5 },
	"DrawCall.Overdraw":     func(w *trace.Workload) { w.Frames[0].Draws[0].Overdraw += 0.25 },
	"DrawCall.TexLocality":  func(w *trace.Workload) { w.Frames[0].Draws[0].TexLocality *= 0.5 },
	"DrawCall.MaterialID":   func(w *trace.Workload) { w.Frames[0].Draws[0].MaterialID++ },
	"Texture.Width":         func(w *trace.Workload) { w.Textures[0].Width *= 2 },
	"Texture.Height":        func(w *trace.Workload) { w.Textures[0].Height *= 2 },
	"Texture.BytesPerTexel": func(w *trace.Workload) { w.Textures[0].BytesPerTexel *= 2 },
	"Texture.MipLevels":     func(w *trace.Workload) { w.Textures[0].MipLevels++ },
	"RenderTarget.Width":    func(w *trace.Workload) { w.RenderTargets[0].Width *= 2 },
	"RenderTarget.Height":   func(w *trace.Workload) { w.RenderTargets[0].Height *= 2 },
	"RenderTarget.BytesPerPixel": func(w *trace.Workload) {
		w.RenderTargets[0].BytesPerPixel *= 2
	},
	"RenderTarget.HasDepth": func(w *trace.Workload) { w.RenderTargets[0].HasDepth = !w.RenderTargets[0].HasDepth },
	"Program.ID":            func(w *trace.Workload) { w.Shaders.MustLookup(4).ID = 9 },
	"Program.Stage":         func(w *trace.Workload) { w.Shaders.MustLookup(1).Stage = shader.StagePixel },
	"Program.Name":          func(w *trace.Workload) { w.Shaders.MustLookup(1).Name += "x" },
	"Program.Body": func(w *trace.Workload) {
		p := w.Shaders.MustLookup(1)
		p.Body = append(p.Body, shader.Instr{Op: shader.OpALU})
	},
	"Instr.Op":   func(w *trace.Workload) { w.Shaders.MustLookup(1).Body[1].Op = shader.OpSFU },
	"Instr.Slot": func(w *trace.Workload) { w.Shaders.MustLookup(4).Body[1].Slot = 2 },

	"dropped last draw":  func(w *trace.Workload) { w.Frames[2].Draws = w.Frames[2].Draws[:3] },
	"dropped last frame": func(w *trace.Workload) { w.Frames = w.Frames[:2] },
	"swapped frames":     func(w *trace.Workload) { w.Frames[0], w.Frames[1] = w.Frames[1], w.Frames[0] },
	"unbound texture":    func(w *trace.Workload) { w.Frames[0].Draws[0].Textures = w.Frames[0].Draws[0].Textures[:1] },
	"dropped instruction": func(w *trace.Workload) {
		p := w.Shaders.MustLookup(2)
		p.Body = p.Body[:len(p.Body)-1]
	},
}

func TestFingerprintSensitivity(t *testing.T) {
	base := tracetest.Tiny().Fingerprint()
	seen := map[trace.Fingerprint]string{base: "unmutated"}
	for name, mutate := range fingerprintMutations {
		w := tracetest.Tiny()
		mutate(w)
		fp := w.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s: fingerprint equals that of %s", name, prev)
		}
		seen[fp] = name
	}
}

// TestFingerprintCoversEveryModelField: every field of the model types
// has a mutation in fingerprintMutations. A new field fails here until
// it gets one, and so until the codec, and with it the fingerprint,
// covers it.
func TestFingerprintCoversEveryModelField(t *testing.T) {
	for _, v := range []any{trace.Workload{}, trace.Frame{}, trace.DrawCall{}, trace.Texture{},
		trace.RenderTarget{}, shader.Program{}, shader.Instr{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if key := typ.Name() + "." + typ.Field(i).Name; fingerprintMutations[key] == nil {
				t.Errorf("no fingerprint mutation case for %s", key)
			}
		}
	}
}

// TestFingerprintNilRegistry: a workload without a shader registry
// fingerprints as one with an empty registry, without panicking.
func TestFingerprintNilRegistry(t *testing.T) {
	w := tracetest.Tiny()
	full := w.Fingerprint()
	w.Shaders = nil
	none := w.Fingerprint()
	w.Shaders = shader.NewRegistry()
	if empty := w.Fingerprint(); none != empty {
		t.Errorf("nil registry fingerprints %s, empty registry %s", none, empty)
	}
	if none == full {
		t.Error("dropping every program left the fingerprint unchanged")
	}
}

// TestFingerprintFrameBoundaryPrefixFree: moving a draw across a frame
// boundary keeps the same flat draw sequence but must change the
// fingerprint (per-frame draw counts are part of the encoding).
func TestFingerprintFrameBoundaryPrefixFree(t *testing.T) {
	a := tracetest.Tiny()
	b := tracetest.Tiny()
	if len(a.Frames) < 2 || a.Frames[0].Scene != a.Frames[1].Scene {
		t.Fatal("fixture needs two frames with identical scenes")
	}
	// Move the last draw of frame 0 to the front of frame 1.
	d := b.Frames[0].Draws[len(b.Frames[0].Draws)-1]
	b.Frames[0].Draws = b.Frames[0].Draws[:len(b.Frames[0].Draws)-1]
	b.Frames[1].Draws = append([]trace.DrawCall{d}, b.Frames[1].Draws...)
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("draw moved across frame boundary did not change fingerprint")
	}
}

func TestFingerprintString(t *testing.T) {
	s := tracetest.Tiny().Fingerprint().String()
	if len(s) != 64 {
		t.Fatalf("hex fingerprint length %d, want 64", len(s))
	}
}

// TestFingerprintPinned pins the fingerprintVersion 2 digests. The
// result cache and subsetd's persisted registry
// (<cache-dir>/workloads/<fp>.s3dw) are addressed by fingerprints, so
// any change to the hashed bytes, the codec payloads among them,
// orphans every stored entry: it must come with a fingerprintVersion
// bump, never silently. The long names take multi-byte length varints
// in the header and in a frame payload.
func TestFingerprintPinned(t *testing.T) {
	long := func() (*trace.Workload, error) {
		w := tracetest.Tiny()
		w.Name = strings.Repeat("n", 5000)
		w.Frames[1].Scene = strings.Repeat("s", 4093)
		return w, nil
	}
	for _, tc := range []struct {
		name string
		w    func() (*trace.Workload, error)
		want string
	}{
		{"tiny", func() (*trace.Workload, error) { return tracetest.Tiny(), nil },
			"09c532a4e46ba50a327c5f20511e92440f184b459c1b666824ca41277ff7aaf4"},
		{"long-names", long,
			"751f09861d0bedf78d468f375ca43f6a0586d7c52fc5734c4e3595359f439c3d"},
		{"bioshock1-seed1", func() (*trace.Workload, error) {
			return tracetest.CachedWorkload(synth.Bioshock1Profile(), 1)
		}, "062b782bbf5bed7484adf0e0a73892629fa20be12ff968c77d09beb358ee4f5d"},
	} {
		w, err := tc.w()
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Fingerprint().String(); got != tc.want {
			t.Errorf("%s: fingerprint %s, pinned %s", tc.name, got, tc.want)
		}
	}
}
