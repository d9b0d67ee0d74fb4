package subset

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/dcmath"
	"repro/internal/gpu"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/tracetest"
)

func testGame(t *testing.T) *trace.Workload {
	t.Helper()
	p := synth.Bioshock1Profile()
	p.Name = "subsettest"
	p.Frames = 64
	p.MaterialsPerScene = 50
	p.SharedMaterials = 10
	p.Textures = 100
	p.VSPool = 8
	p.PSPool = 24
	w, err := tracetest.CachedWorkload(p, 31)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func testOracle(t *testing.T, w *trace.Workload) *gpu.Simulator {
	t.Helper()
	s, err := gpu.NewSimulator(gpu.BaseConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDefaultMethodValid(t *testing.T) {
	if err := DefaultMethod().validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMethodValidation(t *testing.T) {
	cases := map[string]Method{
		"leader zero threshold": {Algo: AlgoLeader},
		"agglo zero threshold":  {Algo: AlgoAgglomerative},
		"kmeans negative k":     {Algo: AlgoKMeans, K: -1, MaxIter: 10},
		"kmeans no k no thresh": {Algo: AlgoKMeans, MaxIter: 10},
		"kmeans no iter":        {Algo: AlgoKMeans, K: 5},
		"unknown algo":          {Algo: Algo(99), Threshold: 1},
		"unknown normalizer":    {Algo: AlgoLeader, Threshold: 1, Normalizer: "what"},
	}
	for name, m := range cases {
		if m.validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCacheKeyCoversEveryMethodField: every Method field feeds the
// cache key (KeyInto), which the core frame pass's entry is keyed on. Each variant differs from DefaultMethod in one
// field alone, and no two keys may collide. The field count ties the
// variants to the struct, so a field added without a KeyInto write
// fails here instead of silently aliasing cache entries.
func TestCacheKeyCoversEveryMethodField(t *testing.T) {
	base := DefaultMethod()
	variants := map[string]func(*Method){
		"Algo":          func(m *Method) { m.Algo = AlgoKMeans },
		"Threshold":     func(m *Method) { m.Threshold = 0.75 },
		"K":             func(m *Method) { m.K = 7 },
		"Seed":          func(m *Method) { m.Seed = 3 },
		"MaxIter":       func(m *Method) { m.MaxIter = 9 },
		"Normalizer":    func(m *Method) { m.Normalizer = "minmax" },
		"FeatureGroups": func(m *Method) { m.FeatureGroups = []string{"geometry"} },
		"PCAComponents": func(m *Method) { m.PCAComponents = 4 },
	}
	typ := reflect.TypeOf(Method{})
	if typ.NumField() != len(variants) {
		t.Fatalf("Method has %d fields, the test varies %d: give the new field a KeyInto write and a variant",
			typ.NumField(), len(variants))
	}
	seen := map[cache.Key]string{base.KeyInto(cache.NewKey("test", 1)).Sum(): "DefaultMethod"}
	for field, set := range variants {
		m := base
		set(&m)
		bv, mv := reflect.ValueOf(base), reflect.ValueOf(m)
		for i := 0; i < typ.NumField(); i++ {
			differs := !reflect.DeepEqual(bv.Field(i).Interface(), mv.Field(i).Interface())
			if differs != (typ.Field(i).Name == field) {
				t.Fatalf("variant %s: field %s differs = %v", field, typ.Field(i).Name, differs)
			}
		}
		k := m.KeyInto(cache.NewKey("test", 1)).Sum()
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %s shares a cache key with %s", field, prev)
		}
		seen[k] = field
	}
	if len(seen) != len(variants)+1 {
		t.Errorf("got %d distinct keys, want %d", len(seen), len(variants)+1)
	}
}

func TestClusterFrameGroupsMaterials(t *testing.T) {
	w := testGame(t)
	fc, err := NewFrameClusterer(w, DefaultMethod())
	if err != nil {
		t.Fatal(err)
	}
	f := &w.Frames[0]
	cf, err := fc.ClusterFrame(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cf.Result.Validate(); err != nil {
		t.Fatal(err)
	}
	// Clusters should be far fewer than draws (redundancy exploited)
	// but more than a handful (materials are distinct).
	if cf.Result.K >= len(f.Draws) {
		t.Errorf("K = %d of %d draws; no grouping", cf.Result.K, len(f.Draws))
	}
	if cf.Result.K < 10 {
		t.Errorf("K = %d; everything merged", cf.Result.K)
	}
	// Weights sum to the draw count.
	var sum float64
	for _, wgt := range cf.Weights {
		sum += wgt
	}
	if int(sum) != len(f.Draws) {
		t.Errorf("weights sum to %v, frame has %d draws", sum, len(f.Draws))
	}
	// Representatives are members of their cluster.
	for c, di := range cf.RepDraws {
		if cf.Result.Assign[di] != c {
			t.Errorf("rep of cluster %d assigned to %d", c, cf.Result.Assign[di])
		}
	}
}

func TestClusterFramePredictionAccuracy(t *testing.T) {
	w := testGame(t)
	sim := testOracle(t, w)
	fc, _ := NewFrameClusterer(w, DefaultMethod())
	var errs []float64
	for fi := 0; fi < 8; fi++ {
		f := &w.Frames[fi]
		cf, err := fc.ClusterFrame(f, fi)
		if err != nil {
			t.Fatal(err)
		}
		actual := sim.FrameNs(f)
		pred := cf.PredictNs(sim, f)
		errs = append(errs, math.Abs(pred-actual)/actual)
	}
	mean := dcmath.Mean(errs)
	if mean > 0.06 {
		t.Errorf("mean per-frame prediction error = %.3f, want small", mean)
	}
}

func TestClusterFrameAlgoArms(t *testing.T) {
	w := testGame(t)
	f := &w.Frames[0]
	for _, m := range []Method{
		{Algo: AlgoLeader, Threshold: 1.0, Normalizer: "zscore"},
		{Algo: AlgoKMeans, K: 40, MaxIter: 30, Normalizer: "minmax"},
		{Algo: AlgoKMeans, K: 0, Threshold: 1.0, MaxIter: 30}, // K derived from leader
		{Algo: AlgoLeader, Threshold: 1.0, Normalizer: "none"},
		{Algo: AlgoLeader, Threshold: 1.0, FeatureGroups: []string{"geometry", "pshader"}},
	} {
		fc, err := NewFrameClusterer(w, m)
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		cf, err := fc.ClusterFrame(f, 0)
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if err := cf.Result.Validate(); err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
	}
}

func TestNewFrameClustererErrors(t *testing.T) {
	w := testGame(t)
	if _, err := NewFrameClusterer(w, Method{Algo: AlgoLeader}); err == nil {
		t.Error("invalid method accepted")
	}
	if _, err := NewFrameClusterer(w, Method{Algo: AlgoLeader, Threshold: 1, FeatureGroups: []string{"bogus"}}); err == nil {
		t.Error("bogus feature group accepted")
	}
}

// TestMethodRejectsNaNThreshold: NaN fails every `<= 0` test, so each
// threshold algorithm, and k-means deriving K from the threshold, must
// reject it explicitly instead of clustering every draw alone.
func TestMethodRejectsNaNThreshold(t *testing.T) {
	w := testGame(t)
	for _, m := range []Method{
		{Algo: AlgoLeader, Threshold: math.NaN()},
		{Algo: AlgoAgglomerative, Threshold: math.NaN()},
		{Algo: AlgoKMeans, Threshold: math.NaN(), MaxIter: 10},
	} {
		if _, err := NewFrameClusterer(w, m); err == nil {
			t.Errorf("%v accepted a NaN threshold", m.Algo)
		}
	}
}

func TestBuildSubset(t *testing.T) {
	w := testGame(t)
	s, err := Build(w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Frames) != s.Detection.NumPhases {
		t.Errorf("frames %d != phases %d", len(s.Frames), s.Detection.NumPhases)
	}
	// Subset must be a small fraction of the parent.
	ratio := s.SizeRatio()
	if ratio <= 0 || ratio > 0.2 {
		t.Errorf("size ratio = %v", ratio)
	}
}

func TestSubsetEstimatesParentCost(t *testing.T) {
	w := testGame(t)
	sim := testOracle(t, w)
	s, err := Build(w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	parent := sim.Run().TotalNs
	est := s.EstimateParentNs(sim)
	relErr := math.Abs(est-parent) / parent
	if relErr > 0.10 {
		t.Errorf("subset estimate off by %.1f%%", relErr*100)
	}
}

func TestSubsetScalingTracksParent(t *testing.T) {
	// The headline validation: subset and parent speedup curves across
	// a core-frequency sweep must correlate tightly.
	w := testGame(t)
	s, err := Build(w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var parentT, subsetT []float64
	for _, ghz := range []float64{0.5, 0.75, 1.0, 1.5, 2.0} {
		sim, err := gpu.NewSimulator(gpu.BaseConfig().WithCoreClock(ghz), w)
		if err != nil {
			t.Fatal(err)
		}
		parentT = append(parentT, sim.Run().TotalNs)
		subsetT = append(subsetT, s.EstimateParentNs(sim))
	}
	parentSpeedup := make([]float64, len(parentT))
	subsetSpeedup := make([]float64, len(subsetT))
	for i := range parentT {
		parentSpeedup[i] = parentT[0] / parentT[i]
		subsetSpeedup[i] = subsetT[0] / subsetT[i]
	}
	r := dcmath.Pearson(parentSpeedup, subsetSpeedup)
	if r < 0.995 {
		t.Errorf("frequency-scaling correlation = %v, want >= 0.995", r)
	}
}

func TestSubsetValidateRejects(t *testing.T) {
	w := testGame(t)
	s, _ := Build(w, DefaultOptions())
	good := *s
	bad := good
	bad.Parent = nil
	if bad.Validate() == nil {
		t.Error("nil parent accepted")
	}
	bad = good
	bad.Frames = nil
	if bad.Validate() == nil {
		t.Error("no frames accepted")
	}
	// Mutated weight.
	bad = good
	bad.Frames = append([]Frame{}, good.Frames...)
	bad.Frames[0].Weights = append([]float64{}, good.Frames[0].Weights...)
	bad.Frames[0].Weights[0] = 0.5
	if bad.Validate() == nil {
		t.Error("sub-1 weight accepted")
	}
}

func TestBaselineSamplers(t *testing.T) {
	w := tracetest.Tiny()
	f := &w.Frames[0] // 4 draws
	rng := dcmath.NewRNG(3)
	for name, build := range map[string]func() (FrameSample, error){
		"random":  func() (FrameSample, error) { return RandomSample(f, 2, rng) },
		"uniform": func() (FrameSample, error) { return UniformSample(f, 2) },
		"firstn":  func() (FrameSample, error) { return FirstNSample(f, 2) },
	} {
		fs, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(fs.Draws) != 2 || len(fs.Weights) != 2 {
			t.Fatalf("%s: shape %d/%d", name, len(fs.Draws), len(fs.Weights))
		}
		var sum float64
		for _, wgt := range fs.Weights {
			sum += wgt
		}
		if math.Abs(sum-4) > 1e-9 {
			t.Errorf("%s: weights sum to %v, want 4", name, sum)
		}
		for _, di := range fs.Draws {
			if di < 0 || di >= 4 {
				t.Errorf("%s: draw index %d out of range", name, di)
			}
		}
	}
	if fs, _ := FirstNSample(f, 2); fs.Draws[0] != 0 || fs.Draws[1] != 1 {
		t.Error("FirstNSample did not take the first draws")
	}
	if _, err := RandomSample(f, 0, rng); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := UniformSample(f, 99); err == nil {
		t.Error("over budget accepted")
	}
}

func TestFullBudgetSampleIsExact(t *testing.T) {
	// Sampling every draw with weight 1 must predict the frame cost
	// exactly.
	w := tracetest.Tiny()
	sim := testOracle(t, w)
	f := &w.Frames[0]
	fs, err := UniformSample(f, len(f.Draws))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fs.PredictNs(sim, f), sim.FrameNs(f); math.Abs(got-want) > 1e-6 {
		t.Errorf("full sample prediction %v != actual %v", got, want)
	}
}

func TestClusteredFrameSampleConversion(t *testing.T) {
	w := testGame(t)
	fc, _ := NewFrameClusterer(w, DefaultMethod())
	cf, err := fc.ClusterFrame(&w.Frames[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	fs := cf.Sample()
	sim := testOracle(t, w)
	a := cf.PredictNs(sim, &w.Frames[0])
	b := fs.PredictNs(sim, &w.Frames[0])
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("Sample() changed prediction: %v vs %v", a, b)
	}
}

func TestAlgoString(t *testing.T) {
	if AlgoLeader.String() != "leader" || AlgoKMeans.String() != "kmeans" || AlgoAgglomerative.String() != "agglomerative" {
		t.Error("algo names")
	}
}

// TestBuildKeepsMiddleFrameOfRepresentative: each phase keeps one
// frame, the middle one of its representative interval (frame 10 of
// [8, 12)), and that frame stands for every frame of its phase.
func TestBuildKeepsMiddleFrameOfRepresentative(t *testing.T) {
	w := testGame(t)
	s, err := Build(w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	det := s.Detection
	if len(s.Frames) != det.NumPhases {
		t.Fatalf("%d frames for %d phases", len(s.Frames), det.NumPhases)
	}
	for p, sf := range s.Frames {
		iv := det.Intervals[det.Representatives[p]]
		if want := iv.Start + (iv.End-iv.Start)/2; sf.Phase != p || sf.ParentFrame != want {
			t.Errorf("frame %d: phase %d, parent frame %d; want phase %d, frame %d of [%d, %d)",
				p, sf.Phase, sf.ParentFrame, p, want, iv.Start, iv.End)
		}
		frames := 0
		for _, iv := range det.Intervals {
			if iv.Phase == p {
				frames += iv.End - iv.Start
			}
		}
		if sf.PhaseScale != float64(frames) {
			t.Errorf("phase %d: scale %v, want %d frames", p, sf.PhaseScale, frames)
		}
	}
}

func TestSingleFrameWorkloadSubsetNearExact(t *testing.T) {
	// One frame, interval 1: the subset is the frame's own clustering;
	// its estimate must equal the clustering prediction exactly and be
	// close to the true frame cost.
	// Cut the frames of a copy: testGame's workload is shared.
	one := *testGame(t)
	one.Frames = one.Frames[:1]
	w := &one
	opt := DefaultOptions()
	opt.Phase.IntervalFrames = 1
	s, err := Build(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	sim := testOracle(t, w)
	actual := sim.FrameNs(&w.Frames[0])
	est := s.EstimateParentNs(sim)
	if rel := math.Abs(est-actual) / actual; rel > 0.05 {
		t.Errorf("single-frame estimate off by %.2f%%", rel*100)
	}
}

func TestEstimateParentTotalsLocal(t *testing.T) {
	w := testGame(t)
	s, err := Build(w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sim := testOracle(t, w)
	tn, cn, mn, tb := s.EstimateParentTotals(sim)
	if tn <= 0 || cn <= 0 || mn <= 0 || tb <= 0 {
		t.Fatalf("totals not positive: %v %v %v %v", tn, cn, mn, tb)
	}
	// Total time must agree with the scalar estimator.
	if est := s.EstimateParentNs(sim); math.Abs(tn-est)/est > 1e-9 {
		t.Errorf("totals time %v != EstimateParentNs %v", tn, est)
	}
}

func TestShellFrameClustererLocal(t *testing.T) {
	w := testGame(t)
	shell := &trace.Workload{
		Name:          w.Name,
		Shaders:       w.Shaders,
		Textures:      w.Textures,
		RenderTargets: w.RenderTargets,
	}
	fc, err := NewShellFrameClusterer(shell, DefaultMethod())
	if err != nil {
		t.Fatal(err)
	}
	cf, err := fc.ClusterFrame(&w.Frames[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cf.Result.Validate(); err != nil {
		t.Fatal(err)
	}
	// Must match the full-workload clusterer exactly.
	full, err := NewFrameClusterer(w, DefaultMethod())
	if err != nil {
		t.Fatal(err)
	}
	cf2, err := full.ClusterFrame(&w.Frames[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if cf.Result.K != cf2.Result.K {
		t.Errorf("shell K %d != full K %d", cf.Result.K, cf2.Result.K)
	}
	bad := &trace.Workload{Name: "x"}
	if _, err := NewShellFrameClusterer(bad, DefaultMethod()); err == nil {
		t.Error("nil-registry shell accepted")
	}
}

func TestClusterFramePCAOption(t *testing.T) {
	w := testGame(t)
	m := DefaultMethod()
	m.PCAComponents = 8
	fc, err := NewFrameClusterer(w, m)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := fc.ClusterFrame(&w.Frames[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cf.Result.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultMethod()
	bad.PCAComponents = -1
	if _, err := NewFrameClusterer(w, bad); err == nil {
		t.Error("negative PCA components accepted")
	}
}
