package synth

import (
	"fmt"
	"math"

	"repro/internal/dcmath"
	"repro/internal/shader"
	"repro/internal/trace"
)

// material is one engine-level material/batch template. All draws of a
// material are near-duplicates of its template — the redundancy
// draw-call clustering exploits.
type material struct {
	id          uint32
	vs, ps      shader.ID
	textures    []trace.TextureID
	rt          trace.RTID
	topo        trace.Topology
	vertexBase  float64
	coverage    float64
	overdraw    float64
	texLocality float64
	blend       bool
	depth       bool
	instances   int
	sigmaV      float64 // per-draw vertex-count jitter
	sigmaC      float64 // per-draw coverage jitter (screen-space is steadier)
	rate        float64 // mean draws per frame
}

// Generate builds a synthetic workload from the profile,
// deterministically from seed. The result is validated before return.
func Generate(p Profile, seed uint64) (*trace.Workload, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	root := dcmath.NewRNG(seed)
	rngTex := root.Split(1)
	rngShader := root.Split(2)
	rngMat := root.Split(3)
	rngFrame := root.Split(4)

	textures := genTextures(rngTex, p.Textures)
	rts := []trace.RenderTarget{
		{Width: p.Width, Height: p.Height, BytesPerPixel: 4, HasDepth: true},
		{Width: 1024, Height: 1024, BytesPerPixel: 4, HasDepth: true}, // shadow map
	}

	reg := shader.NewRegistry()
	vsPool := make([]shader.ID, p.VSPool)
	for i := range vsPool {
		prog, err := shader.Generate(reg, rngShader, fmt.Sprintf("%s.vs%d", p.Name, i), shader.DefaultVertexParams())
		if err != nil {
			return nil, err
		}
		vsPool[i] = prog.ID
	}
	psPool := make([]shader.ID, p.PSPool)
	for i := range psPool {
		prog, err := shader.Generate(reg, rngShader, fmt.Sprintf("%s.ps%d", p.Name, i), shader.DefaultPixelParams())
		if err != nil {
			return nil, err
		}
		psPool[i] = prog.ID
	}

	// Scene material libraries. Each scene draws its pixel shaders from
	// a sliding window over the pool so neighbouring scenes overlap a
	// little but no two scenes share a full shader set — this is what
	// makes shader vectors discriminate scenes.
	var nextMat uint32 = 1
	sceneLibs := make([][]material, p.NumScenes)
	window := p.PSPool / 2
	if window < 4 {
		window = 4
	}
	for s := 0; s < p.NumScenes; s++ {
		lo := 0
		if p.NumScenes > 1 {
			lo = s * (p.PSPool - window) / (p.NumScenes - 1)
		}
		lib := make([]material, p.MaterialsPerScene)
		for i := range lib {
			lib[i] = genMaterial(rngMat, p, &nextMat, reg, vsPool, psPool[lo:lo+window], textures)
		}
		sceneLibs[s] = lib
	}
	shared := make([]material, p.SharedMaterials)
	for i := range shared {
		shared[i] = genMaterial(rngMat, p, &nextMat, reg, vsPool, psPool, textures)
	}

	// Tile the script to the requested frame count.
	scenes := make([]int, 0, p.Frames)
	for len(scenes) < p.Frames {
		for _, seg := range p.Script {
			for k := 0; k < seg.Frames && len(scenes) < p.Frames; k++ {
				scenes = append(scenes, seg.Scene)
			}
		}
	}

	frames := make([]trace.Frame, p.Frames)
	for fi := range frames {
		s := scenes[fi]
		frames[fi] = genFrame(rngFrame, p, sceneLibs[s], shared, fmt.Sprintf("scene%d", s))
	}

	w := &trace.Workload{
		Name:          p.Name,
		Frames:        frames,
		Shaders:       reg,
		Textures:      textures,
		RenderTargets: rts,
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("synth: generated workload invalid: %w", err)
	}
	return w, nil
}

// genTextures builds a pool of power-of-two textures with a realistic
// size spread (64..2048, biased small).
func genTextures(rng *dcmath.RNG, n int) []trace.Texture {
	texs := make([]trace.Texture, n)
	for i := range texs {
		// log2 dim in [6, 11], biased toward 8 (256x256).
		k := 6 + int(dcmath.Clamp(rng.Normal(2.2, 1.2), 0, 5))
		dim := 1 << k
		levels := k + 1
		texs[i] = trace.Texture{Width: dim, Height: dim, BytesPerTexel: 4, MipLevels: levels}
	}
	return texs
}

// genMaterial draws one material template from the profile's
// distributions.
func genMaterial(rng *dcmath.RNG, p Profile, next *uint32, reg *shader.Registry,
	vsPool, psPool []shader.ID, textures []trace.Texture) material {

	m := material{id: *next}
	*next++
	m.vs = vsPool[rng.Intn(len(vsPool))]
	m.ps = psPool[rng.Intn(len(psPool))]

	// Bind a texture to every slot the chosen pixel shader samples.
	slots := reg.MustLookup(m.ps).TextureSlots()
	maxSlot := -1
	for _, s := range slots {
		if s > maxSlot {
			maxSlot = s
		}
	}
	if maxSlot >= 0 {
		m.textures = make([]trace.TextureID, maxSlot+1)
		for _, s := range slots {
			m.textures[s] = trace.TextureID(rng.Intn(len(textures)) + 1)
		}
	}

	// ~12% of draws go to the shadow pass.
	m.rt = 1
	if rng.Bool(0.12) {
		m.rt = 2
	}
	m.topo = trace.TriangleList
	if rng.Bool(0.15) {
		m.topo = trace.TriangleStrip
	}
	m.vertexBase = dcmath.Clamp(rng.LogNormal(math.Log(600), 1.5), 3, 60000)
	m.coverage = dcmath.Clamp(rng.LogNormal(math.Log(0.002), 1.5), 1e-5, 0.25)
	m.overdraw = 1 + rng.Exp(2.5)           // mean 1.4
	m.texLocality = 0.3 + 0.6*rng.Float64() // (0.3, 0.9)
	m.blend = rng.Bool(0.12)
	m.depth = !m.blend || rng.Bool(0.5)
	m.instances = 1
	if rng.Bool(0.05) {
		m.instances = 2 + rng.Intn(18)
	}
	m.sigmaV = p.JitterSigma
	m.sigmaC = 0.4 * p.JitterSigma // batches re-cover similar screen area frame to frame
	if rng.Bool(p.UnstableFrac) {
		// Particles, transparents, post effects: geometry is stable
		// (same emitter mesh) but screen coverage is erratic. Coverage
		// is one feature dimension yet the dominant cost driver, so
		// these materials cluster with their siblings while their
		// clusters mispredict — the cluster outliers the paper counts.
		m.sigmaC = p.UnstableSigma
	}
	// Heavy-tailed per-frame draw rate with the configured mean.
	m.rate = 1 + rng.Exp(1/(p.MeanDrawsPerMaterial-1+1e-9))
	return m
}

// genFrame renders one frame: every material of the scene (plus the
// shared set) submits a jittered batch of draws.
func genFrame(rng *dcmath.RNG, p Profile, lib, shared []material, scene string) trace.Frame {
	est := int(float64(len(lib)+len(shared)) * p.MeanDrawsPerMaterial)
	draws := make([]trace.DrawCall, 0, est)
	emit := func(m *material) {
		k := int(math.Round(m.rate * rng.LogNormal(0, 0.25)))
		if k < 1 {
			k = 1
		}
		for i := 0; i < k; i++ {
			jitterV := rng.LogNormal(0, m.sigmaV)
			jitterC := rng.LogNormal(0, m.sigmaC)
			draws = append(draws, trace.DrawCall{
				VertexCount:   dcmath.ClampInt(int(m.vertexBase*jitterV), 3, 200000),
				InstanceCount: m.instances,
				Topology:      m.topo,
				VS:            m.vs,
				PS:            m.ps,
				Textures:      m.textures,
				RT:            m.rt,
				BlendEnable:   m.blend,
				DepthEnable:   m.depth,
				CoverageFrac:  dcmath.Clamp(m.coverage*jitterC, 1e-6, 1),
				Overdraw:      m.overdraw,
				TexLocality:   m.texLocality,
				MaterialID:    m.id,
			})
		}
	}
	for i := range lib {
		emit(&lib[i])
	}
	for i := range shared {
		emit(&shared[i])
	}
	return trace.Frame{Scene: scene, Draws: draws}
}

// BioshockSuite generates the three-game corpus deterministically from
// seed: each game's seed is seed + i*0x9e3779b97f4a7c15. frames > 0
// shortens every game to that many frames; 0 keeps each profile's own
// length (717 frames, ~828K draw calls in all).
func BioshockSuite(seed uint64, frames int) ([]*trace.Workload, error) {
	profiles := SuiteProfiles()
	out := make([]*trace.Workload, len(profiles))
	for i, p := range profiles {
		if frames > 0 {
			p.Frames = frames
		}
		w, err := Generate(p, seed+uint64(i)*0x9e3779b97f4a7c15)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}
