package synth

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// fingerprint folds the structural content of a workload into a stable
// 64-bit hash. It covers everything the experiments depend on: draw
// geometry, bound state, screen-space parameters and frame scenes.
func fingerprint(t *testing.T, p Profile, seed uint64) uint64 {
	t.Helper()
	w, err := Generate(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for fi := range w.Frames {
		f := &w.Frames[fi]
		fmt.Fprintf(h, "F%d:%s;", fi, f.Scene)
		for di := range f.Draws {
			d := &f.Draws[di]
			fmt.Fprintf(h, "%d,%d,%d,%d,%d,%d,%v,%v,%v,%v,%v,%d;",
				d.VertexCount, d.InstanceCount, d.Topology, d.VS, d.PS, d.RT,
				d.BlendEnable, d.DepthEnable, d.CoverageFrac, d.Overdraw,
				d.TexLocality, d.MaterialID)
		}
	}
	return h.Sum64()
}

// TestGoldenFingerprint pins the generator's output bit-for-bit. If
// this test fails, the generator's behaviour changed: every number in
// EXPERIMENTS.md needs regeneration, and the change must be deliberate.
// Update the constant only together with a fresh `cmd/experiments` run.
func TestGoldenFingerprint(t *testing.T) {
	p := Bioshock1Profile()
	p.Frames = 8
	p.MaterialsPerScene = 30
	p.SharedMaterials = 6
	p.Textures = 50
	p.VSPool = 4
	p.PSPool = 12

	got := fingerprint(t, p, 42)
	const golden = 0x795426e056515864
	if got != golden {
		t.Errorf("generator output changed: fingerprint %#x, golden %#x", got, golden)
	}
}

// TestFingerprintSensitive sanity-checks the fingerprint itself: a
// different seed must hash differently.
func TestFingerprintSensitive(t *testing.T) {
	p := Bioshock1Profile()
	p.Frames = 4
	p.MaterialsPerScene = 20
	p.SharedMaterials = 4
	p.Textures = 40
	p.VSPool = 4
	p.PSPool = 8
	if fingerprint(t, p, 1) == fingerprint(t, p, 2) {
		t.Error("fingerprint insensitive to seed")
	}
}
