package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
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

// perturb changes a struct field of any kind these option types use.
func perturb(t *testing.T, name string, f reflect.Value) {
	t.Helper()
	switch f.Kind() {
	case reflect.Float64:
		f.SetFloat(f.Float() + 0.25)
	case reflect.Int:
		f.SetInt(f.Int() + 1)
	case reflect.Uint8, reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	case reflect.String:
		f.SetString(f.String() + "x")
	case reflect.Slice:
		f.Set(reflect.Append(f, reflect.Zero(f.Type().Elem())))
	default:
		t.Fatalf("field %s: no perturbation for kind %v", name, f.Kind())
	}
}

// TestPassKeyCoversItsInputs: the frame pass's cache key changes with
// every input that can change its product: the workload fingerprint,
// each clustering method field, each cost field of the oracle and of
// one validation config, the configs' count and order, the outlier
// threshold and each version constant. It does not change with what
// cannot: the worker count, observability, lenient mode and config
// names. Method and Config fields are walked by reflection, so a field
// added to either must feed the key or fail here.
func TestPassKeyCoversItsInputs(t *testing.T) {
	type inputs struct {
		fp   trace.Fingerprint
		opt  Options
		cfgs []gpu.Config
		v    passVersions
	}
	fresh := func() inputs {
		opt := DefaultOptions()
		return inputs{opt: opt, cfgs: sweep.CoreClockSweep(opt.Oracle, opt.ValidationClocks), v: currentVersions}
	}
	key := func(in inputs) cache.Key { return passKey(in.fp, in.opt, in.cfgs, in.v) }
	base := key(fresh())

	changes := map[string]func(*inputs){
		"fingerprint":  func(in *inputs) { in.fp[0] ^= 1 },
		"threshold":    func(in *inputs) { in.opt.OutlierThreshold = 0.3 },
		"config count": func(in *inputs) { in.cfgs = in.cfgs[:len(in.cfgs)-1] },
		"config order": func(in *inputs) { in.cfgs[0], in.cfgs[1] = in.cfgs[1], in.cfgs[0] },
		"no configs":   func(in *inputs) { in.cfgs = nil },
	}
	for i := range currentVersions {
		changes[fmt.Sprintf("version %d", i)] = func(in *inputs) { in.v[i]++ }
	}
	mt := reflect.TypeOf(subset.Method{})
	for i := 0; i < mt.NumField(); i++ {
		name := "Method." + mt.Field(i).Name
		changes[name] = func(in *inputs) { perturb(t, name, reflect.ValueOf(&in.opt.Subset.Method).Elem().Field(i)) }
	}
	same := map[string]func(*inputs){
		"Workers":        func(in *inputs) { in.opt.Workers = 3 },
		"Subset.Workers": func(in *inputs) { in.opt.Subset.Workers = 3 },
		"Subset.Phase":   func(in *inputs) { in.opt.Subset.Phase.IntervalFrames = 8 },
	}
	ct := reflect.TypeOf(gpu.Config{})
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		set := changes
		if name == "Name" {
			set = same
		}
		set["Oracle."+name] = func(in *inputs) { perturb(t, name, reflect.ValueOf(&in.opt.Oracle).Elem().Field(i)) }
		for c := range len(fresh().cfgs) {
			set[fmt.Sprintf("config %d.%s", c, name)] = func(in *inputs) {
				perturb(t, name, reflect.ValueOf(&in.cfgs[c]).Elem().Field(i))
			}
		}
	}

	for name, set := range changes {
		in := fresh()
		set(&in)
		if key(in) == base {
			t.Errorf("%s: key unchanged", name)
		}
	}
	for name, set := range same {
		in := fresh()
		set(&in)
		if key(in) != base {
			t.Errorf("%s: key changed", name)
		}
	}
}
