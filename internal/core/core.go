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

	// Lenient makes Run sanitize a damaged workload — dropping invalid
	// draws and unusable frames, accounted in the report's Diagnostics
	// — instead of rejecting it outright. The run still fails if
	// nothing usable survives.
	Lenient bool

	// Workers bounds the goroutine fan-out of every pipeline stage:
	// clustering evaluation, phase detection, subset clustering and the
	// validation sweep (<= 0 selects GOMAXPROCS, 1 runs fully
	// sequential). It governs wall-clock time only — the Report is
	// bit-identical at any worker count, an invariant the determinism
	// tests assert. Workers overrides Subset.Workers for the stages Run
	// drives.
	Workers int

	// Cache attaches a content-addressed result cache. The frame pass
	// stores its whole product (the clustering evaluation and the
	// parent's total on every validation config) as one entry, keyed
	// by workload fingerprint, method, configs, threshold and
	// algorithm versions; a run that skips clustering evaluation
	// stores the parent's price per validation config instead
	// (sweep.price). The phase detection and the subset build are
	// always computed. Nil — the default — disables caching. Caching
	// never changes results: a warm run's Report is byte-identical to
	// a cold run's, an invariant the golden and determinism tests
	// assert.
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
	opt Options
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
	return &Subsetter{opt: opt}, nil
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

	// Diagnostics accounts for draws and frames dropped by lenient
	// sanitization. Zero on clean inputs and in strict mode.
	Diagnostics traceerr.Diagnostics
}

// Run executes the pipeline on one workload.
func (s *Subsetter) Run(w *trace.Workload) (*Report, error) {
	return s.RunContext(context.Background(), w)
}

// RunContext executes the pipeline on one workload, honoring
// cancellation between pipeline stages and inside the frame pass and
// the validation sweep. In lenient mode a damaged workload is
// sanitized first.
//
// A run builds one simulator on the oracle and one frame clusterer,
// and every stage shares them; their constructors are the run's
// workload validation. Clustering evaluation is one pass over the
// parent's frames (framePass) that also prices every validation
// config, so the sweep then prices only the subset. With a cache the
// pass's whole product is one entry, and the pass prices the same
// columns as without one.
func (s *Subsetter) RunContext(ctx context.Context, w *trace.Workload) (*Report, error) {
	run := obs.RunFromContext(ctx)

	rep := &Report{}
	if s.opt.Lenient {
		_, sp := obs.StartSpan(ctx, "sanitize")
		diag, err := w.Sanitize()
		sp.AddItems(int64(len(w.Frames)))
		sp.End()
		if err != nil {
			return nil, err
		}
		rep.Diagnostics = diag
		run.RecordDiagnostics(diag.Map())
		if diag.Any() {
			run.Logger().Warn("lenient sanitization degraded the workload",
				"workload", w.Name, "draws_dropped", diag.DrawsDropped, "frames_skipped", diag.FramesSkipped)
		}
	}
	validate := len(s.opt.ValidationClocks) >= 2
	var sim *gpu.Simulator
	if !s.opt.SkipClusteringEval || validate {
		_, sp := obs.StartSpan(ctx, "new-simulator")
		var err error
		sim, err = gpu.NewSimulator(s.opt.Oracle, w)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	_, sp := obs.StartSpan(ctx, "new-extractor")
	fc, err := subset.NewFrameClusterer(w, s.opt.Subset.Method)
	sp.End()
	if err != nil {
		return nil, err
	}
	_, sp = obs.StartSpan(ctx, "summarize")
	rep.Summary = trace.Summarize(w)
	sp.End()
	run.Logger().Info("workload ready", "workload", w.Name,
		"frames", rep.Summary.Frames, "draws", rep.Summary.Draws)

	// Bind the cache after sanitization settled the workload's content:
	// the fingerprint must describe the frames the stages actually see.
	ctx = s.bindCache(ctx, w)

	var cfgs []gpu.Config
	if validate {
		cfgs = sweep.CoreClockSweep(s.opt.Oracle, s.opt.ValidationClocks)
	}
	var parentNs []float64 // per config, when the frame pass priced the parent
	if !s.opt.SkipClusteringEval {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: canceled before clustering evaluation: %w", err)
		}
		pass, err := framePass(ctx, sim, fc, w, s.opt, cfgs)
		if err != nil {
			return nil, err
		}
		rep.Clustering = &pass.Report
		parentNs = pass.ParentNs
	}

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: canceled before subset build: %w", err)
	}
	sopt := s.opt.Subset
	if s.opt.Workers != 0 {
		sopt.Workers = s.opt.Workers
	}
	sub, err := subset.BuildWith(ctx, fc, w, sopt)
	if err != nil {
		return nil, err
	}
	if err := sub.Validate(); err != nil {
		return nil, fmt.Errorf("core: built subset invalid: %w", err)
	}
	rep.Subset = sub
	rep.Detection = sub.Detection
	rep.SizeRatio = sub.SizeRatio()
	run.Metrics().Counter("subset.frames").Add(int64(len(sub.Frames)))
	run.Metrics().Counter("subset.draws").Add(int64(sub.NumDraws()))

	if validate {
		res, err := sweep.RunWith(ctx, sim, w, sub, cfgs, parentNs, s.opt.Workers)
		if err != nil {
			return nil, err
		}
		rep.Validation = res
		rep.Validated = true
	}
	return rep, nil
}

// bindCache binds the run's cache to w's fingerprint in ctx, for the
// frame pass's entry and the sweep's per-config entries. A run without
// a cache is left unbound.
func (s *Subsetter) bindCache(ctx context.Context, w *trace.Workload) context.Context {
	if s.opt.Cache == nil {
		return ctx
	}
	_, sp := obs.StartSpan(ctx, "fingerprint")
	defer sp.End()
	return cache.WithWorkload(ctx, s.opt.Cache, w.Fingerprint())
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
