// Package core is the paper's contribution assembled end-to-end: the
// Subsetter extracts a representative subset from a 3D workload by
// combining draw-call clustering (intra-frame) with shader-vector
// phase detection (inter-frame), evaluates the clustering with the
// paper's quality metrics, and validates the subset by checking that
// its frequency-scaling behaviour tracks the parent workload.
//
// Typical use:
//
//	w, _ := synth.Generate(synth.Bioshock1Profile(), seed)
//	sub, _ := core.New(core.DefaultOptions())
//	report, _ := sub.Run(w)
//	report.Render(os.Stdout)
//
// The report carries everything a pathfinding study needs: the subset
// itself (report.Subset), its size ratio, per-frame clustering quality,
// the phase structure, and the validation sweep.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/phase"
	"repro/internal/subset"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/traceerr"
)

// Options configures the full pipeline.
type Options struct {
	// Subset carries the clustering method and phase-detection options.
	Subset subset.Options

	// OutlierThreshold defines cluster outliers (paper: 0.20).
	OutlierThreshold float64

	// Oracle is the GPU configuration used as the cost oracle for
	// clustering evaluation and as the base of the validation sweep.
	Oracle gpu.Config

	// ValidationClocks is the core-clock sweep used to validate the
	// subset. At least two clocks; nil disables validation.
	ValidationClocks []float64

	// SkipClusteringEval disables the per-frame clustering evaluation
	// (which prices every draw of every frame — the expensive part)
	// when only the subset is wanted.
	SkipClusteringEval bool

	// Workers bounds the goroutine fan-out of a run: the pass's
	// interval tasks and the validation sweep (<= 0 selects GOMAXPROCS,
	// 1 runs fully sequential). It governs wall-clock time only — the
	// Report is bit-identical at any worker count, an invariant the
	// determinism tests assert. Subset.Workers is BuildContext's, not a
	// run's.
	Workers int

	// Cache attaches a content-addressed result cache to RunContext. A
	// run's pass stores its whole product (the summary, the clustering
	// evaluation, the phases, the subset's frames and the parent's
	// total on every validation config) as one entry, keyed by workload
	// fingerprint, method, phase options, whether the evaluation runs,
	// configs, threshold and algorithm versions. Nil — the default —
	// disables caching. Caching never changes results: a warm run's
	// Report is byte-identical to a cold run's, an invariant the golden
	// and determinism tests assert. RunSource rejects a cache: the key
	// needs the whole workload's fingerprint.
	Cache *cache.Cache
}

// DefaultOptions returns the experiment configuration.
func DefaultOptions() Options {
	return Options{
		Subset:           subset.DefaultOptions(),
		OutlierThreshold: metrics.DefaultOutlierThreshold,
		Oracle:           gpu.BaseConfig(),
		ValidationClocks: sweep.DefaultCoreClocks(),
	}
}

// Subsetter runs the pipeline. Construct with New.
type Subsetter struct {
	opt  Options
	cfgs []gpu.Config // the validation sweep; nil disables validation
}

// New validates the options.
func New(opt Options) (*Subsetter, error) {
	if err := opt.Oracle.Validate(); err != nil {
		return nil, err
	}
	if opt.OutlierThreshold <= 0 {
		return nil, fmt.Errorf("core: outlier threshold %v <= 0", opt.OutlierThreshold)
	}
	if len(opt.ValidationClocks) == 1 {
		return nil, fmt.Errorf("core: validation sweep needs >= 2 clocks")
	}
	s := &Subsetter{opt: opt}
	if len(opt.ValidationClocks) >= 2 {
		s.cfgs = sweep.CoreClockSweep(opt.Oracle, opt.ValidationClocks)
	}
	return s, nil
}

// Report is the outcome of one pipeline run.
type Report struct {
	// Summary describes the input workload.
	Summary trace.Summary

	// Clustering is the per-frame quality evaluation (nil when
	// SkipClusteringEval was set).
	Clustering *metrics.WorkloadReport

	// Detection is the phase structure.
	Detection phase.Detection

	// Subset is the deliverable.
	Subset *subset.Subset

	// SizeRatio is subset draws / parent draws.
	SizeRatio float64

	// Validation is the frequency-scaling check (zero value when
	// validation was disabled).
	Validation sweep.Result
	Validated  bool

	// Diagnostics accounts for what a lenient trace.StreamReader
	// (directly, or through trace.ReadStream) dropped before the run,
	// in whatever form the trace came; the caller that read the
	// workload fills it in. A run never repairs: a damaged workload
	// fails its validation.
	Diagnostics traceerr.Diagnostics
}

// FrameSource is a capture read one frame at a time: the shell carries
// the resource tables its frames reference, and NextFrame returns the
// frames in capture order, then io.EOF. Each frame must be valid
// against the shell, as trace.StreamReader checks it, and must not
// change after NextFrame returns it.
type FrameSource interface {
	Shell() *trace.Workload
	NextFrame() (trace.Frame, error)
}

// Run executes the pipeline on one workload.
func (s *Subsetter) Run(w *trace.Workload) (*Report, error) {
	return s.RunContext(context.Background(), w)
}

// RunContext validates w once and runs the pass over its frames, as
// RunSource does, with the subset's parent w. With a cache the run
// first fingerprints w, and the pass's product is one entry.
func (s *Subsetter) RunContext(ctx context.Context, w *trace.Workload) (*Report, error) {
	_, sp := obs.StartSpan(ctx, "validate")
	err := w.Validate()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	src := &workloadSource{w: w}
	if s.opt.Cache == nil {
		return s.RunSource(ctx, src)
	}
	_, sp = obs.StartSpan(ctx, "fingerprint")
	key := passKey(w.Fingerprint(), s.opt, s.cfgs, currentVersions)
	sp.End()
	return s.run(ctx, src, key)
}

// RunSource drains src once and returns its Report: the one driver of
// the pipeline. It reads one characterization interval of frames at a
// time and runs each as a task on an order-preserving window of the
// worker pool. A task computes the interval's shader vector and, as
// the options ask, clusters each frame, prices it on every validation
// config and the oracle in one gpu.FramePricer call, and evaluates the
// clustering with the oracle's draw times. A fold in capture order
// then adds each frame to the summary, the evaluation and the
// per-config totals, assigns the interval's phase, and keeps the
// middle frame of each new phase's founding interval with the
// clustering its task computed (a subset-only run clusters just those
// frames). The validation sweep then prices only the subset, whose
// parent is src's shell. At most a few intervals per worker are held
// between the source and the fold, so a capture of any length drains
// in memory bounded by the window plus the Report. A cached run is
// RunContext's alone: RunSource rejects a cache.
func (s *Subsetter) RunSource(ctx context.Context, src FrameSource) (*Report, error) {
	if s.opt.Cache != nil {
		return nil, errors.New("core: a frame source cannot run cached: the cache key is the whole workload's fingerprint, known only after its last frame")
	}
	return s.run(ctx, src, cache.Key{})
}

// run is RunSource, through the cache when there is one (under key).
func (s *Subsetter) run(ctx context.Context, src FrameSource, key cache.Key) (*Report, error) {
	parent := src.Shell()
	// The pass's span ends before the sweep; the deferred End covers
	// the error paths.
	pctx, sp := obs.StartSpan(ctx, "frame-pass")
	defer sp.End()
	var sim *gpu.Simulator // the oracle's, for the pass and the sweep
	if s.cfgs != nil || !s.opt.SkipClusteringEval {
		var err error
		if sim, err = gpu.NewShellSimulator(s.opt.Oracle, parent); err != nil {
			return nil, err
		}
	}
	p, err := cache.GetOrCompute(pctx, s.opt.Cache, key, func() (passProduct, error) { return s.pass(pctx, sim, src) })
	if err != nil {
		return nil, err
	}
	sub := subset.Assemble(parent, p.Detection, p.Summary.Draws, p.Subset)
	if err := sub.Validate(); err != nil {
		return nil, fmt.Errorf("core: built subset invalid: %w", err)
	}
	rep := &Report{Summary: p.Summary, Clustering: p.Clustering, Detection: p.Detection, Subset: sub, SizeRatio: sub.SizeRatio()}
	run := obs.RunFromContext(ctx)
	run.Logger().Info("pass done", "workload", parent.Name,
		"frames", rep.Summary.Frames, "draws", rep.Summary.Draws, "phases", rep.Detection.NumPhases)
	run.Metrics().Counter("subset.frames").Add(int64(len(sub.Frames)))
	run.Metrics().Counter("subset.draws").Add(int64(sub.NumDraws()))
	sp.End()

	if s.cfgs != nil {
		if rep.Validation, err = sweep.RunWith(ctx, sim, parent, sub, s.cfgs, p.ParentNs, s.opt.Workers); err != nil {
			return nil, err
		}
		rep.Validated = true
	}
	return rep, nil
}

// workloadSource is a workload's own frames as a FrameSource, its
// shell the workload itself.
type workloadSource struct {
	w    *trace.Workload
	next int
}

func (s *workloadSource) Shell() *trace.Workload { return s.w }

func (s *workloadSource) NextFrame() (trace.Frame, error) {
	if s.next == len(s.w.Frames) {
		return trace.Frame{}, io.EOF
	}
	s.next++
	return s.w.Frames[s.next-1], nil
}

// PhaseTimeline re-exposes the detection timeline for callers that
// only hold a Report.
func (r *Report) PhaseTimeline() string { return r.Detection.Timeline() }

// Render writes a human-readable report.
func (r *Report) Render(out io.Writer) {
	fmt.Fprintf(out, "workload %s: %d frames, %d draws (%.1f draws/frame)\n",
		r.Summary.Name, r.Summary.Frames, r.Summary.Draws, r.Summary.DrawsPerFrame)
	if r.Clustering != nil {
		fmt.Fprintf(out, "clustering: mean prediction error %.2f%%, efficiency %.1f%%, outliers %.1f%% (max frame error %.2f%%)\n",
			r.Clustering.MeanError*100, r.Clustering.MeanEfficiency*100,
			r.Clustering.OutlierRate*100, r.Clustering.MaxError*100)
	}
	if r.Diagnostics.Any() {
		fmt.Fprintf(out, "degraded: %v\n", r.Diagnostics)
	}
	fmt.Fprintf(out, "phases: %d across %d intervals  timeline %s\n",
		r.Detection.NumPhases, len(r.Detection.Intervals), r.Detection.Timeline())
	fmt.Fprintf(out, "subset: %d frames, %d draws = %.2f%% of parent\n",
		len(r.Subset.Frames), r.Subset.NumDraws(), r.SizeRatio*100)
	if r.Validated {
		fmt.Fprintf(out, "validation: speedup correlation %.4f, rank correlation %.4f over %d configs\n",
			r.Validation.Correlation, r.Validation.RankCorrelation, len(r.Validation.Points))
	}
}
