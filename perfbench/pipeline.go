package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/subset"
	"repro/internal/sweep"
	"repro/internal/synth"
	"repro/internal/trace"
)

// pipeline runs one subset3d pass per unit over the full bioshock1
// trace, under a fresh observability run as subset3d binds one:
// gob-decode the trace, run core.RunContext with the default options
// (clustering evaluation, the 9-config validation sweep, no cache,
// GOMAXPROCS workers) and render the report. An item is one parent
// draw.
type pipeline struct {
	enc   []byte // the gob-encoded trace, as subset3d reads it from disk
	draws int64

	refText []byte // rendered report of the reference pass
	refJSON []byte // canonical encoding of its Report
	ref     *core.Report
}

func setupPipeline(_ context.Context, seed uint64) (instance, time.Duration, error) {
	t0 := time.Now()
	w, err := synth.Generate(synth.Bioshock1Profile(), seed)
	if err != nil {
		return nil, 0, err
	}
	gen := time.Since(t0)
	var buf bytes.Buffer
	if err := w.Encode(&buf); err != nil {
		return nil, 0, err
	}
	return &pipeline{enc: buf.Bytes(), draws: int64(w.NumDraws())}, gen, nil
}

// cliRun runs fn the way subset3d's and gpusim's execute wrap their
// work at the default flags: a fresh observability run from
// obs.SetupCLI (logging off, no profiles) bound into ctx, so every
// layer records its spans and metrics, finished afterwards with no
// manifest path.
func cliRun(ctx context.Context, tool string, fn func(ctx context.Context) error) error {
	run, stop, err := obs.SetupCLI(tool, "off", "")
	if err != nil {
		return err
	}
	run.SetWorkers(runtime.GOMAXPROCS(0))
	err = fn(run.Context(ctx))
	if perr := stop(); err == nil {
		err = perr
	}
	if merr := run.WriteManifest(""); err == nil {
		err = merr
	}
	return err
}

// pass is one untraced unit: subset3d's batch path at its default
// flags, reading the trace from memory instead of a file (so without
// the input file's digest).
func (p *pipeline) pass(ctx context.Context) (rep *core.Report, text []byte, err error) {
	err = cliRun(ctx, "subset3d", func(ctx context.Context) error {
		_, sp := obs.StartSpan(ctx, "decode-trace")
		w, err := trace.Decode(bytes.NewReader(p.enc))
		if err != nil {
			sp.End()
			return err
		}
		sp.AddItems(int64(w.NumFrames()))
		sp.End()
		s, err := core.New(core.DefaultOptions())
		if err != nil {
			return err
		}
		if rep, err = s.RunContext(ctx, w); err != nil {
			return err
		}
		var out bytes.Buffer
		_, rsp := obs.StartSpan(ctx, "render-report")
		rep.Render(&out)
		rsp.End()
		text = out.Bytes()
		return nil
	})
	return rep, text, err
}

// replay is the traced unit: pass with core.RunContext's stage calls
// made by the benchmark itself, in core's order and with core's
// arguments, inside one span per call. Its Report must be
// byte-identical to core's.
func (p *pipeline) replay(ctx context.Context, tr *tracer, id string) (rep *core.Report, text []byte, err error) {
	root := tr.start(id, 0, "bench.pass")
	defer tr.end(root)
	call := func(name string, fn func() error) error { return tr.call(id, root, name, fn) }
	err = cliRun(ctx, "subset3d", func(ctx context.Context) (err error) {
		rep, text, err = p.stages(ctx, call)
		return err
	})
	return rep, text, err
}

func (p *pipeline) stages(ctx context.Context, call func(string, func() error) error) (*core.Report, []byte, error) {
	var w *trace.Workload
	_, sp := obs.StartSpan(ctx, "decode-trace")
	if err := call("trace.decode", func() (err error) {
		w, err = trace.Decode(bytes.NewReader(p.enc))
		return err
	}); err != nil {
		sp.End()
		return nil, nil, err
	}
	sp.AddItems(int64(w.NumFrames()))
	sp.End()
	opt := core.DefaultOptions()
	if _, err := core.New(opt); err != nil {
		return nil, nil, err
	}
	rep := &core.Report{}
	if err := call("trace.validate", w.Validate); err != nil {
		return nil, nil, err
	}
	call("trace.summarize", func() error { rep.Summary = trace.Summarize(w); return nil })

	var sim *gpu.Simulator
	if err := call("gpu.new_simulator", func() (err error) {
		sim, err = gpu.NewSimulator(opt.Oracle, w)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var fc *subset.FrameClusterer
	if err := call("subset.new_clusterer", func() (err error) {
		fc, err = subset.NewFrameClusterer(w, opt.Subset.Method)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var wr metrics.WorkloadReport
	if err := call("metrics.evaluate", func() (err error) {
		wr, err = metrics.EvaluateWorkloadContext(ctx, sim, w, fc, opt.OutlierThreshold, opt.Workers)
		return err
	}); err != nil {
		return nil, nil, err
	}
	rep.Clustering = &wr

	sopt := opt.Subset
	if opt.Workers != 0 {
		sopt.Workers = opt.Workers
	}
	var sub *subset.Subset
	if err := call("subset.build", func() (err error) {
		sub, err = subset.BuildContext(ctx, w, sopt)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err := call("subset.validate", sub.Validate); err != nil {
		return nil, nil, err
	}
	rep.Subset = sub
	rep.Detection = sub.Detection
	rep.SizeRatio = sub.SizeRatio()
	run := obs.RunFromContext(ctx)
	run.Metrics().Counter("subset.frames").Add(int64(len(sub.Frames)))
	run.Metrics().Counter("subset.draws").Add(int64(sub.NumDraws()))

	if err := call("sweep.validation", func() (err error) {
		rep.Validation, err = sweep.RunParallel(ctx, w, sub, sweep.CoreClockSweep(opt.Oracle, opt.ValidationClocks), opt.Workers)
		return err
	}); err != nil {
		return nil, nil, err
	}
	rep.Validated = true

	var out bytes.Buffer
	_, rsp := obs.StartSpan(ctx, "render-report")
	call("report.render", func() error { rep.Render(&out); return nil })
	rsp.End()
	return rep, out.Bytes(), nil
}

// canonical encodes a Report for byte comparison. The subset's parent
// pointer is left out: it is the decoded input, not a result.
func canonical(rep *core.Report) ([]byte, error) {
	r := *rep
	if r.Subset != nil {
		s := *r.Subset
		s.Parent = nil
		r.Subset = &s
	}
	return json.Marshal(&r)
}

func (p *pipeline) reference(ctx context.Context, rec *recorder) error {
	rep, text, err := p.pass(ctx)
	if err == nil {
		p.refJSON, err = canonical(rep)
	}
	rec.op(err)
	if err != nil {
		return err
	}
	p.ref, p.refText = rep, text
	os.Stdout.Write(text)
	return nil
}

func (p *pipeline) measure(ctx context.Context, deadline time.Time, rec *recorder, tr *tracer) error {
	return loop(ctx, deadline, rec, tr, "pipeline", func(ctx context.Context, tr *tracer, id string) (int64, func() error, error) {
		if tr == nil {
			_, text, err := p.pass(ctx)
			return p.draws, func() error { return p.same(text, nil) }, err
		}
		rep, text, err := p.replay(ctx, tr, id)
		return p.draws, func() error { return p.same(text, rep) }, err
	})
}

// same checks a pass's rendered report, and on a replay its full
// Report, against the reference pass.
func (p *pipeline) same(text []byte, rep *core.Report) error {
	if !bytes.Equal(text, p.refText) {
		return fmt.Errorf("pipeline report: %w", errMismatch)
	}
	if rep == nil {
		return nil
	}
	enc, err := canonical(rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(enc, p.refJSON) {
		return fmt.Errorf("replayed pipeline Report: %w", errMismatch)
	}
	return nil
}

func (p *pipeline) layers(lm map[string]float64, tr *tracer, _ *recorder) {
	for _, l := range []string{"trace.decode", "trace.validate", "gpu.new_simulator",
		"subset.new_clusterer", "metrics.evaluate", "subset.build", "sweep.validation", "report.render"} {
		lm[l+"_ms"] = median(tr.perTrace(l))
	}
	passes := len(tr.perTrace("metrics.evaluate"))
	lm["gpu.new_simulator_calls"] = ratio(float64(len(tr.calls("gpu.new_simulator"))), float64(passes))
	configs := float64(len(core.DefaultOptions().ValidationClocks))
	lm["sweep.ns_per_draw_config"] = lm["sweep.validation_ms"] * 1e6 / (float64(p.draws) * configs)

	lm["accuracy.pred_err_pct"] = p.ref.Clustering.MeanError * 100
	lm["accuracy.cluster_eff_pct"] = p.ref.Clustering.MeanEfficiency * 100
	lm["accuracy.subset_size_pct"] = p.ref.SizeRatio * 100
	lm["accuracy.speedup_corr"] = p.ref.Validation.Correlation
}

func (p *pipeline) close() error { return nil }
