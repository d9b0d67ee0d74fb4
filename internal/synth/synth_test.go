package synth

import (
	"math"
	"testing"

	"repro/internal/trace"
)

func smallProfile() Profile {
	p := Bioshock1Profile()
	p.Name = "small"
	p.Frames = 66 // one full script iteration, so every scene appears
	p.MaterialsPerScene = 40
	p.SharedMaterials = 8
	p.Textures = 80
	p.VSPool = 6
	p.PSPool = 16
	return p
}

func TestGenerateValidWorkload(t *testing.T) {
	w, err := Generate(smallProfile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("generated workload invalid: %v", err)
	}
	if w.NumFrames() != 66 {
		t.Errorf("frames = %d", w.NumFrames())
	}
	if w.NumDraws() == 0 {
		t.Fatal("no draws")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallProfile(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallProfile(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumDraws() != b.NumDraws() {
		t.Fatalf("draw counts differ: %d vs %d", a.NumDraws(), b.NumDraws())
	}
	for fi := range a.Frames {
		for di := range a.Frames[fi].Draws {
			da, db := a.Frames[fi].Draws[di], b.Frames[fi].Draws[di]
			if da.VertexCount != db.VertexCount || da.PS != db.PS || da.CoverageFrac != db.CoverageFrac {
				t.Fatalf("frame %d draw %d differs between runs", fi, di)
			}
		}
	}
	c, err := Generate(smallProfile(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumDraws() == a.NumDraws() && c.Frames[0].Draws[0].VertexCount == a.Frames[0].Draws[0].VertexCount {
		t.Error("different seeds produced identical output")
	}
}

func TestGenerateDrawVolume(t *testing.T) {
	p := smallProfile()
	w, err := Generate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	perFrame := float64(w.NumDraws()) / float64(w.NumFrames())
	want := float64(p.MaterialsPerScene+p.SharedMaterials) * p.MeanDrawsPerMaterial
	if perFrame < want*0.7 || perFrame > want*1.3 {
		t.Errorf("draws/frame = %v, want ~%v", perFrame, want)
	}
}

func TestGenerateMaterialRedundancy(t *testing.T) {
	// Draws of one material must be near-duplicates: same shaders and
	// modest vertex-count spread for stable materials.
	w, err := Generate(smallProfile(), 5)
	if err != nil {
		t.Fatal(err)
	}
	f := w.Frames[0]
	byMat := map[uint32][]trace.DrawCall{}
	for _, d := range f.Draws {
		byMat[d.MaterialID] = append(byMat[d.MaterialID], d)
	}
	multi := 0
	for _, draws := range byMat {
		if len(draws) < 2 {
			continue
		}
		multi++
		for _, d := range draws[1:] {
			if d.PS != draws[0].PS || d.VS != draws[0].VS || d.RT != draws[0].RT {
				t.Fatal("draws of one material differ in bound state")
			}
		}
	}
	if multi == 0 {
		t.Error("no material drawn more than once; redundancy missing")
	}
}

func TestGenerateSceneStructure(t *testing.T) {
	p := smallProfile()
	w, err := Generate(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Script: scene0 x12, scene1 x10, ... -> first 12 frames scene0.
	for i := 0; i < 12; i++ {
		if w.Frames[i].Scene != "scene0" {
			t.Fatalf("frame %d scene = %q, want scene0", i, w.Frames[i].Scene)
		}
	}
	if w.Frames[12].Scene != "scene1" {
		t.Errorf("frame 12 scene = %q, want scene1", w.Frames[12].Scene)
	}
	// Scenes must differ in pixel-shader population: compare PS sets of
	// a scene0 frame and a scene3 frame (windows far apart).
	psSet := func(f *trace.Frame) map[uint32]bool {
		s := map[uint32]bool{}
		for _, d := range f.Draws {
			s[uint32(d.PS)] = true
		}
		return s
	}
	var s3 *trace.Frame
	for fi := range w.Frames {
		if w.Frames[fi].Scene == "scene3" {
			s3 = &w.Frames[fi]
			break
		}
	}
	if s3 == nil {
		t.Fatal("script never reached scene3")
	}
	a, b := psSet(&w.Frames[0]), psSet(s3)
	onlyA := 0
	for ps := range a {
		if !b[ps] {
			onlyA++
		}
	}
	if onlyA == 0 {
		t.Error("scene0 and scene3 use identical shader sets; shader vectors cannot discriminate")
	}
}

func TestGenerateRejectsInvalidProfile(t *testing.T) {
	bad := smallProfile()
	bad.Frames = 0
	if _, err := Generate(bad, 1); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestProfileValidate(t *testing.T) {
	mutations := map[string]func(*Profile){
		"empty name":    func(p *Profile) { p.Name = "" },
		"no frames":     func(p *Profile) { p.Frames = 0 },
		"no scenes":     func(p *Profile) { p.NumScenes = 0 },
		"empty script":  func(p *Profile) { p.Script = nil },
		"bad scene ref": func(p *Profile) { p.Script = []Segment{{Scene: 99, Frames: 1}} },
		"zero seg len":  func(p *Profile) { p.Script = []Segment{{Scene: 0, Frames: 0}} },
		"no materials":  func(p *Profile) { p.MaterialsPerScene = 0 },
		"neg shared":    func(p *Profile) { p.SharedMaterials = -1 },
		"low rate":      func(p *Profile) { p.MeanDrawsPerMaterial = 0.5 },
		"neg jitter":    func(p *Profile) { p.JitterSigma = -1 },
		"bad unstable":  func(p *Profile) { p.UnstableFrac = 2 },
		"no shaders":    func(p *Profile) { p.PSPool = 0 },
		"no textures":   func(p *Profile) { p.Textures = 0 },
		"bad res":       func(p *Profile) { p.Width = 0 },
	}
	for name, mutate := range mutations {
		p := Bioshock1Profile()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for _, p := range SuiteProfiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("suite profile %s invalid: %v", p.Name, err)
		}
	}
}

func TestScriptLen(t *testing.T) {
	p := Bioshock1Profile()
	want := 12 + 8 + 12 + 16 + 8 + 8
	if got := p.ScriptLen(); got != want {
		t.Errorf("ScriptLen = %d, want %d", got, want)
	}
}

func TestSuiteCorpusShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus generation in -short mode")
	}
	suite, err := BioshockSuite(42, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 3 {
		t.Fatalf("suite games = %d", len(suite))
	}
	frames, draws := 0, 0
	for _, w := range suite {
		frames += w.NumFrames()
		draws += w.NumDraws()
	}
	if frames != 717 {
		t.Errorf("corpus frames = %d, want 717 (paper)", frames)
	}
	// Paper: ~828K draws. The generator is stochastic; accept ±10%.
	if math.Abs(float64(draws)-828000) > 82800 {
		t.Errorf("corpus draws = %d, want 828K +- 10%%", draws)
	}
	names := map[string]bool{}
	for _, w := range suite {
		names[w.Name] = true
	}
	if !names["bioshock1"] || !names["bioshock2"] || !names["bioshockinf"] {
		t.Errorf("suite names = %v", names)
	}
}

func TestUnstableMaterialsCoverageOnlyJitter(t *testing.T) {
	// Unstable (effect) materials jitter in coverage but keep the
	// stable vertex-count sigma: within a frame, a material's draws
	// must share shaders and vary coverage much more than any stable
	// material does — and the generator must actually produce some.
	p := smallProfile()
	p.UnstableFrac = 0.3 // make them common for the test
	w, err := Generate(p, 55)
	if err != nil {
		t.Fatal(err)
	}
	f := w.Frames[0]
	byMat := map[uint32][]trace.DrawCall{}
	for _, d := range f.Draws {
		byMat[d.MaterialID] = append(byMat[d.MaterialID], d)
	}
	highCoverageSpread := 0
	for _, draws := range byMat {
		if len(draws) < 3 {
			continue
		}
		minC, maxC := draws[0].CoverageFrac, draws[0].CoverageFrac
		for _, d := range draws[1:] {
			if d.CoverageFrac < minC {
				minC = d.CoverageFrac
			}
			if d.CoverageFrac > maxC {
				maxC = d.CoverageFrac
			}
		}
		if maxC/minC > 1.5 { // far beyond stable sigmaC (~0.025 lognormal)
			highCoverageSpread++
		}
	}
	if highCoverageSpread == 0 {
		t.Error("no unstable-material coverage spread observed; generator lost its outlier source")
	}
}
