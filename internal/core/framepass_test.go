package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/cache"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/subset"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/traceerr"
	"repro/internal/tracetest"
)

// stagedReference is the pipeline as it ran before the frame pass,
// and as perfbench's traced replay still runs it: validate, summarize,
// then one stage call after another, each building its own simulator
// or clusterer and walking the parent itself.
func stagedReference(ctx context.Context, opt Options, w *trace.Workload) (*Report, error) {
	rep := &Report{}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	rep.Summary = trace.Summarize(w)
	if opt.Cache != nil {
		ctx = cache.WithWorkload(ctx, opt.Cache, w.Fingerprint())
	}
	if !opt.SkipClusteringEval {
		sim, err := gpu.NewSimulator(opt.Oracle, w)
		if err != nil {
			return nil, err
		}
		fc, err := subset.NewFrameClusterer(w, opt.Subset.Method)
		if err != nil {
			return nil, err
		}
		wr, err := metrics.EvaluateWorkloadContext(ctx, sim, w, fc, opt.OutlierThreshold, opt.Workers)
		if err != nil {
			return nil, err
		}
		rep.Clustering = &wr
	}
	sopt := opt.Subset
	if opt.Workers != 0 {
		sopt.Workers = opt.Workers
	}
	if sopt.Cache == nil {
		sopt.Cache = opt.Cache
	}
	sub, err := subset.BuildContext(ctx, w, sopt)
	if err != nil {
		return nil, err
	}
	if err := sub.Validate(); err != nil {
		return nil, err
	}
	rep.Subset = sub
	rep.Detection = sub.Detection
	rep.SizeRatio = sub.SizeRatio()
	if len(opt.ValidationClocks) >= 2 {
		res, err := sweep.RunParallel(ctx, w, sub, sweep.CoreClockSweep(opt.Oracle, opt.ValidationClocks), opt.Workers)
		if err != nil {
			return nil, err
		}
		rep.Validation = res
		rep.Validated = true
	}
	return rep, nil
}

// canonicalReport encodes a Report for byte comparison, as perfbench
// does: the subset's parent pointer is the input, not a result.
func canonicalReport(t *testing.T, rep *Report) []byte {
	t.Helper()
	r := *rep
	if r.Subset != nil {
		s := *r.Subset
		s.Parent = nil
		r.Subset = &s
	}
	out, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFramePassDeterministicAgainstStagedReference holds RunContext's
// frame pass to the staged pipeline it replaced: the Report, as
// canonical JSON, must be byte-identical on the three profiles at two
// seeds each, at 1, 2, 3 and 8 workers, with the oracle's clock inside
// and outside the validation sweep (and an oracle of another
// architecture class), with clustering evaluation skipped, with
// validation disabled, and through a cold and then a warm cache.
func TestFramePassDeterministicAgainstStagedReference(t *testing.T) {
	lowPower := DefaultOptions()
	lowPower.Oracle = gpu.LowPowerConfig()
	variants := []struct {
		name string
		opt  func() Options
	}{
		{"default", DefaultOptions},
		{"oracle clock outside sweep", func() Options {
			o := DefaultOptions()
			o.ValidationClocks = []float64{0.5, 0.9, 1.3, 1.7}
			return o
		}},
		{"oracle at 1.2 GHz", func() Options {
			o := DefaultOptions()
			o.Oracle = gpu.BaseConfig().WithCoreClock(1.2)
			return o
		}},
		{"low-power oracle", func() Options { return lowPower }},
		{"skip clustering eval", func() Options {
			o := DefaultOptions()
			o.SkipClusteringEval = true
			return o
		}},
		{"no validation clocks", func() Options {
			o := DefaultOptions()
			o.ValidationClocks = nil
			return o
		}},
	}
	workerCounts := []int{1, 2, 3, 8}
	ctx := context.Background()
	for _, p := range detProfiles() {
		for _, seed := range []uint64{1, 7} {
			w, err := tracetest.CachedWorkload(p, seed)
			if err != nil {
				t.Fatal(err)
			}
			for vi, v := range variants {
				ref, err := stagedReference(ctx, v.opt(), w)
				if err != nil {
					t.Fatal(err)
				}
				want := canonicalReport(t, ref)
				// The default variant runs at every worker count; the others
				// take turns, so every variant meets several counts across
				// the six workloads.
				counts := workerCounts
				if vi > 0 {
					counts = []int{workerCounts[(vi+int(seed))%len(workerCounts)]}
				}
				for _, workers := range counts {
					opt := v.opt()
					opt.Workers = workers
					check := func(label string, opt Options) {
						t.Helper()
						s, err := New(opt)
						if err != nil {
							t.Fatal(err)
						}
						rep, err := s.RunContext(ctx, w)
						if err != nil {
							t.Fatalf("%s seed %d %s workers %d%s: %v", p.Name, seed, v.name, workers, label, err)
						}
						if got := canonicalReport(t, rep); !bytes.Equal(got, want) {
							t.Errorf("%s seed %d %s workers %d%s: Report differs from the staged reference", p.Name, seed, v.name, workers, label)
						}
					}
					check("", opt)
					if vi == 0 || workers == 3 {
						c, err := cache.New(cache.Config{})
						if err != nil {
							t.Fatal(err)
						}
						opt.Cache = c
						check(" cold cache", opt)
						check(" warm cache", opt)
						if st := c.Stats(); st.Hits == 0 {
							t.Errorf("%s seed %d %s: warm run recorded no cache hits", p.Name, seed, v.name)
						}
					}
				}
			}
		}
	}
}

// TestStrictRunKeepsValidationErrorClass runs a strict RunContext on a
// workload the parent's RunContext-level Validate used to reject. The
// simulator's constructor is now the first validation, so the error
// gains its "gpu: " prefix; with clustering evaluation and validation
// both off no simulator is built, and the extractor's "features: "
// prefix leads. Either way it wraps Validate's error and keeps its
// class under every taxonomy: obs.ErrorClass and each traceerr
// sentinel.
func TestStrictRunKeepsValidationErrorClass(t *testing.T) {
	w := coreGame(t)
	draw := &w.Frames[0].Draws[0]
	saved := draw.Overdraw
	draw.Overdraw = 0
	defer func() { draw.Overdraw = saved }()
	verr := w.Validate()
	if verr == nil {
		t.Fatal("corrupted workload validates")
	}
	lean := DefaultOptions()
	lean.SkipClusteringEval = true
	lean.ValidationClocks = nil
	for _, tc := range []struct {
		opt  Options
		want string
	}{
		{DefaultOptions(), `gpu: trace: "coretest" frame 0 draw 0: overdraw 0 outside [1, +Inf)`},
		{lean, `features: trace: "coretest" frame 0 draw 0: overdraw 0 outside [1, +Inf)`},
	} {
		s, err := New(tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.RunContext(context.Background(), w)
		if err == nil || err.Error() != tc.want {
			t.Fatalf("err = %v, want %q", err, tc.want)
		}
		if inner := errors.Unwrap(err); inner == nil || inner.Error() != verr.Error() {
			t.Errorf("err %q does not wrap Validate's %q", err, verr)
		}
		if got, want := obs.ErrorClass(err), obs.ErrorClass(verr); got != want {
			t.Errorf("obs class %q, Validate's %q", got, want)
		}
		for _, sentinel := range []error{traceerr.ErrTruncated, traceerr.ErrCorruptRecord,
			traceerr.ErrVersionMismatch, traceerr.ErrInvalidFrame, traceerr.ErrTooLarge} {
			if errors.Is(err, sentinel) != errors.Is(verr, sentinel) {
				t.Errorf("errors.Is(err, %v) differs from Validate's error", sentinel)
			}
		}
	}
}
