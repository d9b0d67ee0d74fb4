package trace_test

import (
	"strings"
	"testing"

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

func TestFingerprintSensitivity(t *testing.T) {
	base := tracetest.Tiny().Fingerprint()
	cases := map[string]func(*trace.Workload){
		"name":            func(w *trace.Workload) { w.Name += "x" },
		"scene":           func(w *trace.Workload) { w.Frames[0].Scene += "x" },
		"vertex count":    func(w *trace.Workload) { w.Frames[0].Draws[0].VertexCount++ },
		"instance count":  func(w *trace.Workload) { w.Frames[0].Draws[0].InstanceCount++ },
		"coverage":        func(w *trace.Workload) { w.Frames[0].Draws[0].CoverageFrac *= 0.5 },
		"overdraw":        func(w *trace.Workload) { w.Frames[0].Draws[0].Overdraw += 0.25 },
		"tex locality":    func(w *trace.Workload) { w.Frames[0].Draws[0].TexLocality *= 0.5 },
		"blend flag":      func(w *trace.Workload) { w.Frames[0].Draws[0].BlendEnable = !w.Frames[0].Draws[0].BlendEnable },
		"depth flag":      func(w *trace.Workload) { w.Frames[0].Draws[0].DepthEnable = !w.Frames[0].Draws[0].DepthEnable },
		"material":        func(w *trace.Workload) { w.Frames[0].Draws[0].MaterialID++ },
		"texture size":    func(w *trace.Workload) { w.Textures[0].Width *= 2 },
		"texture mips":    func(w *trace.Workload) { w.Textures[0].MipLevels++ },
		"rt size":         func(w *trace.Workload) { w.RenderTargets[0].Width *= 2 },
		"rt depth":        func(w *trace.Workload) { w.RenderTargets[0].HasDepth = !w.RenderTargets[0].HasDepth },
		"dropped draw":    func(w *trace.Workload) { w.Frames[0].Draws = w.Frames[0].Draws[1:] },
		"dropped frame":   func(w *trace.Workload) { w.Frames = w.Frames[1:] },
		"swapped topo":    func(w *trace.Workload) { w.Frames[0].Draws[0].Topology ^= 1 },
		"draw rt binding": func(w *trace.Workload) { w.Frames[0].Draws[0].RT ^= 1 },
		"texture binding": func(w *trace.Workload) {
			ts := w.Frames[0].Draws[0].Textures
			ts[0], ts[1] = ts[1], ts[0]
		},
	}
	for name, mutate := range cases {
		w := tracetest.Tiny()
		mutate(w)
		if w.Fingerprint() == base {
			t.Errorf("%s: mutation left fingerprint unchanged", name)
		}
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

// TestFingerprintPinned pins digests computed before the writer was
// buffered. The result cache and subsetd's persisted registry
// (<cache-dir>/workloads/<fp>.s3dw) are addressed by fingerprints, so
// any change to the hashed byte stream orphans every stored entry: it
// must come with a fingerprintVersion bump, never silently. The long
// names straddle and overflow the writer's staging buffer.
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
			"12af0259583e44c2a5d2e042cd6427e8db215bdef97d08ce4d6569d2db66e333"},
		{"long-names", long,
			"3207e01eaa0c838adeee85dde6448623ac20acefdea4b2265b9ed1e22d3d0445"},
		{"bioshock1-seed1", func() (*trace.Workload, error) {
			return tracetest.CachedWorkload(synth.Bioshock1Profile(), 1)
		}, "595e3122d32ae713bbd71a4d9e7e55e8cdcd913b8fc7eee03fdc5a98e5b2661a"},
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
