package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/features"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/phase"
	"repro/internal/subset"
	"repro/internal/trace"
	"repro/internal/traceerr"
)

// passVersion versions the pass's cached product: bump it with any
// change to what a pass computes, to its fold, or to passProduct's
// layout.
//
// v2: the product is the whole pass (summary, clustering evaluation,
// phases, the subset's frames and the parent's totals), keyed also by
// the phase options and whether the evaluation runs.
const passVersion = 2

// passProduct is what a pass computes, and a cached run's one entry:
// the summary, the clustering evaluation (nil when skipped), the
// phases, the subset's kept frames (subset.Keep) and the parent's
// total per validation config in grid order (nil without validation).
type passProduct struct {
	Summary    trace.Summary
	Clustering *metrics.WorkloadReport
	Detection  phase.Detection
	Subset     []subset.Frame
	ParentNs   []float64
}

// passVersions are the version constants a pass's key carries:
// passVersion, features.SchemaVersion, subset.ClusterVersion and
// gpu.ModelVersion. They are a parameter of passKey so that its test
// can vary each one.
type passVersions [4]int

var currentVersions = passVersions{passVersion, features.SchemaVersion, subset.ClusterVersion, gpu.ModelVersion}

// passKey is the content address of a pass's product: the workload
// fingerprint, every clustering method field, every phase option,
// whether the clustering evaluation runs, the cost-model fingerprint
// of the oracle and of each validation config in grid order, the
// outlier threshold and the version constants. Nothing else in opt can
// change the product (Workers cannot, and Config.Name prices nothing),
// so nothing else is in the key.
func passKey(fp trace.Fingerprint, opt Options, cfgs []gpu.Config, v passVersions) cache.Key {
	b := cache.NewKey("core.framepass", v[0])
	for _, x := range v[1:] {
		b.Int(int64(x))
	}
	b.Bytes(fp[:])
	opt.Subset.Method.KeyInto(b)
	ph := opt.Subset.Phase
	b.Int(int64(ph.IntervalFrames)).Float(ph.MinShare).Bool(ph.QuantizeWeights).Float(ph.LevelsPerOctave).Float(ph.MatchCosine)
	b.Bool(opt.SkipClusteringEval)
	ofp := opt.Oracle.Fingerprint()
	b.Bytes(ofp[:])
	for _, c := range cfgs {
		cfp := c.Fingerprint()
		b.Bytes(cfp[:])
	}
	return b.Float(opt.OutlierThreshold).Sum()
}

// interval is one characterization interval of a pass: its frames
// (kept until the fold) from parent index start on, and what its task
// computed: the shader vector and, per frame, the clustering, its
// evaluation and the time on each priced column, frame-major.
type interval struct {
	start   int
	frames  []trace.Frame
	v       phase.Vector
	sig     phase.Signature
	cfs     []subset.ClusteredFrame
	reports []metrics.FrameReport
	frameNs []float64
}

// pass drains src once through parallel.Ordered (RunSource describes
// the steps); sim is the oracle's, nil when nothing is priced. The
// fold adds each config's frame times in frame order, as gpu.PriceGrid
// does, so each total is a PriceGrid pass's TotalNs bit for bit, and
// the evaluation is metrics.EvaluateWorkloadContext's with sim as the
// oracle. Each step's time lands in a merged child of ctx's span.
func (s *Subsetter) pass(ctx context.Context, sim *gpu.Simulator, src FrameSource) (passProduct, error) {
	shell := src.Shell()
	popt := s.opt.Subset.Phase
	if err := popt.Validate(); err != nil {
		return passProduct{}, err
	}
	fc, err := subset.NewShellFrameClusterer(shell, s.opt.Subset.Method)
	if err != nil {
		return passProduct{}, err
	}
	// The priced columns: every validation config and, for the
	// evaluation, the oracle's, which is the first config that prices
	// exactly as it does, or else one more column.
	eval := !s.opt.SkipClusteringEval
	cols, oracle := s.cfgs, -1
	if eval {
		oracle = slices.IndexFunc(cols, func(c gpu.Config) bool { return samePricing(c, s.opt.Oracle) })
		if oracle < 0 {
			oracle, cols = len(cols), append(slices.Clip(cols), s.opt.Oracle)
		}
	}
	var pricer *gpu.FramePricer
	if len(cols) > 0 {
		if pricer, err = sim.NewFramePricer(cols); err != nil {
			return passProduct{}, err
		}
	}

	// A pass that prices nothing computes only shader vectors, which
	// cost less than reading the frames: tasks on other goroutines would
	// only hold more intervals in flight, so it runs on one.
	workers := parallel.Workers(s.opt.Workers)
	if pricer == nil {
		workers = 1
	}
	sp := obs.SpanFromContext(ctx)
	sp.SetWorkers(workers)
	timed := func(step string, since time.Time, items int) {
		c := sp.MergedChild(step)
		c.AddDuration(time.Since(since))
		c.AddItems(int64(items))
	}
	type scratch struct {
		price  gpu.FrameScratch
		eval   metrics.EvalScratch
		drawNs [][]float64 // only the oracle's column is set
	}
	pool := sync.Pool{New: func() any { return &scratch{drawNs: make([][]float64, len(cols))} }}

	read, eof := 0, false
	next := func() (*interval, bool, error) {
		t0 := time.Now()
		iv := &interval{start: read, frames: make([]trace.Frame, 0, popt.IntervalFrames)}
		for !eof && len(iv.frames) < popt.IntervalFrames {
			f, err := src.NextFrame()
			if eof = errors.Is(err, io.EOF); eof {
				break
			}
			if err != nil {
				return nil, false, err
			}
			iv.frames = append(iv.frames, f)
		}
		read += len(iv.frames)
		timed("read-frames", t0, len(iv.frames))
		return iv, len(iv.frames) > 0, nil
	}

	task := func(_ int, iv *interval) (*interval, error) {
		t0 := time.Now()
		v, err := phase.VectorOfFrames(shell, iv.frames)
		if err != nil {
			return nil, err
		}
		iv.v, iv.sig = v, v.Signature(popt)
		timed("shader-vector", t0, len(iv.frames))
		if pricer == nil {
			return iv, nil
		}
		sc := pool.Get().(*scratch)
		defer pool.Put(sc)
		iv.frameNs = make([]float64, len(iv.frames)*len(cols))
		if eval {
			iv.cfs = make([]subset.ClusteredFrame, len(iv.frames))
			iv.reports = make([]metrics.FrameReport, len(iv.frames))
		}
		for j := range iv.frames {
			f, fi := &iv.frames[j], iv.start+j
			if eval {
				t0 := time.Now()
				cf, err := fc.ClusterFrame(f, fi)
				if err != nil {
					return nil, fmt.Errorf("core: frame %d: %w", fi, err)
				}
				iv.cfs[j] = cf
				sc.drawNs[oracle] = slices.Grow(sc.drawNs[oracle][:0], len(f.Draws))[:len(f.Draws)]
				timed("clustering", t0, 1)
			}
			t0 := time.Now()
			pricer.Price(f, &sc.price, iv.frameNs[j*len(cols):(j+1)*len(cols)], nil, sc.drawNs)
			timed("price-grid", t0, len(f.Draws)*len(cols))
			if eval {
				t0 := time.Now()
				iv.reports[j] = metrics.EvaluateCosts(sc.drawNs[oracle], &iv.cfs[j], s.opt.OutlierThreshold, &sc.eval)
				timed("evaluation", t0, 1)
			}
		}
		return iv, nil
	}

	sum := trace.NewSummarizer(shell.Name)
	phases := phase.NewAssigner(popt)
	var (
		reports []metrics.FrameReport
		totals  []float64
		kept    []subset.Frame
	)
	if s.cfgs != nil {
		totals = make([]float64, len(s.cfgs))
	}
	fold := func(_ int, iv *interval) error {
		t0 := time.Now()
		for j := range iv.frames {
			sum.Add(&iv.frames[j])
			for c := range totals {
				totals[c] += iv.frameNs[j*len(cols)+c]
			}
		}
		reports = append(reports, iv.reports...)
		if p, founded := phases.Assign(iv.start, iv.start+len(iv.frames), iv.v, iv.sig); founded {
			sf, err := subset.Keep(fc, iv.frames, iv.start, p, iv.cfs)
			if err != nil {
				return err
			}
			kept = append(kept, sf)
		}
		timed("fold", t0, len(iv.frames))
		return nil
	}

	if err := parallel.Ordered(ctx, workers, next, task, fold); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return passProduct{}, fmt.Errorf("core: canceled after %d frames: %w", read, cerr)
		}
		return passProduct{}, err
	}
	p := passProduct{Summary: sum.Summary(), Detection: phases.Finish(ctx), Subset: kept, ParentNs: totals}
	if p.Summary.Frames == 0 {
		return passProduct{}, fmt.Errorf("core: %q yields no frames: %w", shell.Name, traceerr.ErrInvalidFrame)
	}
	sp.AddItems(int64(p.Summary.Frames))
	if pricer != nil {
		m := obs.RunFromContext(ctx).Metrics()
		m.Counter("sweep.pricing_passes").Inc()
		m.Counter("sweep.draw_configs_priced").Add(int64(p.Summary.Draws) * int64(len(cols)))
	}
	if eval {
		wr := metrics.Aggregate(ctx, shell.Name, reports)
		p.Clustering = &wr
	}
	return p, nil
}

// samePricing reports whether a and b price every draw identically:
// they are equal in every field but Name, which no formula reads.
func samePricing(a, b gpu.Config) bool {
	a.Name, b.Name = "", ""
	return a == b
}
