package subset

import (
	"context"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/phase"
	"repro/internal/trace"
)

// Frame is one selected frame of a subset: the representative draws of
// its clusters, their weights, and the scale factor that maps the
// frame's cost to the share of the parent workload it stands for.
type Frame struct {
	// ParentFrame is the frame's index in the parent workload.
	ParentFrame int
	// Phase is the phase this frame represents.
	Phase int
	// Draws are copies of the representative draw calls.
	Draws []trace.DrawCall
	// Weights holds, per draw, the size of the cluster it represents.
	Weights []float64
	// PhaseScale is how many parent frames this one frame stands for:
	// its phase's frame count, since a subset keeps one frame per phase.
	PhaseScale float64
}

// PredictNs reconstructs the cost of all parent frames this subset
// frame represents.
func (sf *Frame) PredictNs(o CostOracle) float64 {
	var t float64
	for i := range sf.Draws {
		t += o.DrawNs(&sf.Draws[i]) * sf.Weights[i]
	}
	return t * sf.PhaseScale
}

// SimDraws returns the number of draws that must be simulated for this
// frame (the subset's cost unit).
func (sf *Frame) SimDraws() int { return len(sf.Draws) }

// Subset is a representative subset of a parent workload. It shares
// the parent's resource tables (shaders, textures, render targets):
// only the draw population shrinks.
type Subset struct {
	Parent    *trace.Workload
	Detection phase.Detection
	Frames    []Frame
	// ParentDraws caches the parent's total draw count.
	ParentDraws int
}

// Options configures subset construction.
type Options struct {
	Method Method
	Phase  phase.Options

	// Workers bounds the goroutines used for phase characterization and
	// per-frame clustering during Build (<= 0 selects GOMAXPROCS, 1 is
	// fully sequential). The built subset is bit-identical at any
	// worker count; Workers only changes wall-clock time.
	Workers int
}

// DefaultOptions returns the experiment configuration.
func DefaultOptions() Options {
	return Options{Method: DefaultMethod(), Phase: phase.DefaultOptions()}
}

// Build constructs a subset: detect phases, keep the middle frame of
// each phase's representative interval, cluster it, and keep only
// cluster representatives with weights.
func Build(w *trace.Workload, opt Options) (*Subset, error) {
	return BuildContext(context.Background(), w, opt)
}

// BuildContext is Build with cancellation. Phase characterization and
// the clustering of the kept frames fan out across opt.Workers
// goroutines; the frame selection and assembly stay sequential, so the
// subset is bit-identical at any worker count.
func BuildContext(ctx context.Context, w *trace.Workload, opt Options) (*Subset, error) {
	return BuildWith(ctx, nil, w, opt)
}

// BuildWith is BuildContext for a caller that already holds a frame
// clusterer for w under opt.Method (nil builds one, as BuildContext
// does): a pipeline pass shares one clusterer, and so one feature
// extractor and one workload validation, across its stages.
func BuildWith(ctx context.Context, fc *FrameClusterer, w *trace.Workload, opt Options) (*Subset, error) {
	ctx, sp := obs.StartSpan(ctx, "subset-build")
	defer sp.End()
	det, err := phase.DetectContext(ctx, w, opt.Phase, opt.Workers)
	if err != nil {
		return nil, err
	}
	if fc == nil {
		if fc, err = NewFrameClusterer(w, opt.Method); err != nil {
			return nil, err
		}
	}
	phaseFrames := make([]int, det.NumPhases) // parent frames per phase
	for _, iv := range det.Intervals {
		phaseFrames[iv.Phase] += iv.End - iv.Start
	}
	s := &Subset{Parent: w, Detection: det, ParentDraws: w.NumDraws()}

	// Select the kept frames sequentially, cluster them in parallel,
	// then assemble in phase order. Each kept frame stands for all of
	// its phase's parent frames.
	keep := make([]int, len(det.Representatives))
	for p, ii := range det.Representatives {
		iv := det.Intervals[ii]
		keep[p] = iv.Start + (iv.End-iv.Start)/2
	}
	// Each frame's clustering is independent (normalizers, PCA fits and
	// the k-means RNG, seeded per frame index, are per-call state), so
	// the subset is bit-identical at any worker count.
	cctx, csp := obs.StartSpan(ctx, "cluster-frames")
	csp.AddItems(int64(len(keep)))
	cfs, err := parallel.MapSlice(cctx, opt.Workers, keep, func(_ context.Context, _ int, fi int) (ClusteredFrame, error) {
		return fc.ClusterFrame(&w.Frames[fi], fi)
	})
	csp.End()
	if err != nil {
		return nil, err
	}
	for p, cf := range cfs {
		fi := keep[p]
		sf := Frame{
			ParentFrame: fi,
			Phase:       p,
			Weights:     cf.Weights,
			PhaseScale:  float64(phaseFrames[p]),
			Draws:       make([]trace.DrawCall, len(cf.RepDraws)),
		}
		for c, di := range cf.RepDraws {
			sf.Draws[c] = w.Frames[fi].Draws[di]
		}
		s.Frames = append(s.Frames, sf)
	}
	sp.AddItems(int64(len(s.Frames)))
	return s, nil
}

// NumDraws returns the subset's total simulated draw count.
func (s *Subset) NumDraws() int {
	n := 0
	for i := range s.Frames {
		n += s.Frames[i].SimDraws()
	}
	return n
}

// SizeRatio returns subset draws / parent draws — the paper's
// "less than one percent of parent workload" metric.
func (s *Subset) SizeRatio() float64 {
	if s.ParentDraws == 0 {
		return 0
	}
	return float64(s.NumDraws()) / float64(s.ParentDraws)
}

// EstimateParentNs reconstructs the parent workload's total cost from
// the subset under the given oracle. This is the quantity whose
// scaling behaviour must track the parent's across architecture
// configurations.
func (s *Subset) EstimateParentNs(o CostOracle) float64 {
	var t float64
	for i := range s.Frames {
		t += s.Frames[i].PredictNs(o)
	}
	return t
}

// TotalsOracle decomposes a draw's cost into the components an energy
// model needs. *gpu.Simulator satisfies it.
type TotalsOracle interface {
	DrawTotals(d *trace.DrawCall) (totalNs, computeNs, memoryNs, trafficBytes float64)
}

// EstimateParentTotals reconstructs the parent's aggregate wall time,
// core-busy time, memory-busy time and DRAM traffic from the subset —
// the inputs to energy-aware pathfinding (E16).
func (s *Subset) EstimateParentTotals(o TotalsOracle) (totalNs, computeNs, memoryNs, trafficBytes float64) {
	for i := range s.Frames {
		sf := &s.Frames[i]
		for di := range sf.Draws {
			tn, cn, mn, tb := o.DrawTotals(&sf.Draws[di])
			w := sf.Weights[di] * sf.PhaseScale
			totalNs += tn * w
			computeNs += cn * w
			memoryNs += mn * w
			trafficBytes += tb * w
		}
	}
	return totalNs, computeNs, memoryNs, trafficBytes
}

// Validate checks structural invariants of the subset.
func (s *Subset) Validate() error {
	if s.Parent == nil {
		return fmt.Errorf("subset: nil parent")
	}
	if len(s.Frames) == 0 {
		return fmt.Errorf("subset: no frames")
	}
	covered := make([]bool, s.Detection.NumPhases)
	for i := range s.Frames {
		p := s.Frames[i].Phase
		if p < 0 || p >= s.Detection.NumPhases {
			return fmt.Errorf("subset: frame %d has phase %d of %d", i, p, s.Detection.NumPhases)
		}
		covered[p] = true
	}
	for p, ok := range covered {
		if !ok {
			return fmt.Errorf("subset: phase %d has no representative frame", p)
		}
	}
	var scaleSum float64
	for i := range s.Frames {
		sf := &s.Frames[i]
		if sf.ParentFrame < 0 || sf.ParentFrame >= len(s.Parent.Frames) {
			return fmt.Errorf("subset: frame %d references parent frame %d", i, sf.ParentFrame)
		}
		if len(sf.Draws) == 0 {
			return fmt.Errorf("subset: frame %d has no draws", i)
		}
		if len(sf.Draws) != len(sf.Weights) {
			return fmt.Errorf("subset: frame %d draws/weights mismatch", i)
		}
		for _, wgt := range sf.Weights {
			if wgt < 1 {
				return fmt.Errorf("subset: frame %d has weight %v < 1", i, wgt)
			}
		}
		if sf.PhaseScale < 1 {
			return fmt.Errorf("subset: frame %d phase scale %v < 1", i, sf.PhaseScale)
		}
		scaleSum += sf.PhaseScale
	}
	if math.Abs(scaleSum-float64(len(s.Parent.Frames))) > 1e-6 {
		return fmt.Errorf("subset: phase scales sum to %v, parent has %d frames", scaleSum, len(s.Parent.Frames))
	}
	return nil
}
