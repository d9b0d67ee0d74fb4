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
	// Parent is the workload the subset was cut from; after a streamed
	// pass, the source's frameless shell (its resource tables).
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
	ctx, sp := obs.StartSpan(ctx, "subset-build")
	defer sp.End()
	det, err := phase.DetectContext(ctx, w, opt.Phase, opt.Workers)
	if err != nil {
		return nil, err
	}
	fc, err := NewFrameClusterer(w, opt.Method)
	if err != nil {
		return nil, err
	}
	// Each kept frame's clustering is independent (normalizers, PCA
	// fits and the k-means RNG, seeded per frame index, are per-call
	// state), so the subset is bit-identical at any worker count.
	cctx, csp := obs.StartSpan(ctx, "cluster-frames")
	csp.AddItems(int64(len(det.Representatives)))
	kept, err := parallel.MapSlice(cctx, opt.Workers, det.Representatives, func(_ context.Context, p, ii int) (Frame, error) {
		iv := det.Intervals[ii]
		return Keep(fc, w.Frames[iv.Start:iv.End], iv.Start, p, nil)
	})
	csp.End()
	if err != nil {
		return nil, err
	}
	sp.AddItems(int64(len(kept)))
	return Assemble(w, det, w.NumDraws(), kept), nil
}

// Keep returns the frame a subset keeps for phase p, founded by the
// interval frames (the parent's from index start on): its middle frame,
// reduced to copies of its clusters' representatives, each weighted by
// its cluster's size. cfs are the interval's clusterings if the caller
// has them; nil clusters the middle frame with fc. Build and the core
// pass both keep frames through it.
func Keep(fc *FrameClusterer, frames []trace.Frame, start, p int, cfs []ClusteredFrame) (Frame, error) {
	mid := len(frames) / 2
	f := &frames[mid]
	var cf ClusteredFrame
	if cfs != nil {
		cf = cfs[mid]
	} else {
		var err error
		if cf, err = fc.ClusterFrame(f, start+mid); err != nil {
			return Frame{}, err
		}
	}
	sf := Frame{
		ParentFrame: start + mid,
		Phase:       p,
		Weights:     cf.Weights,
		Draws:       make([]trace.DrawCall, len(cf.RepDraws)),
	}
	for c, di := range cf.RepDraws {
		sf.Draws[c] = f.Draws[di]
	}
	return sf, nil
}

// Assemble returns the subset of parent, which has parentDraws draws,
// made of kept, one frame per phase of det in phase order (Keep): each
// kept frame stands for all of its phase's parent frames.
func Assemble(parent *trace.Workload, det phase.Detection, parentDraws int, kept []Frame) *Subset {
	phaseFrames := make([]int, det.NumPhases)
	for _, iv := range det.Intervals {
		phaseFrames[iv.Phase] += iv.End - iv.Start
	}
	for i := range kept {
		kept[i].PhaseScale = float64(phaseFrames[kept[i].Phase])
	}
	return &Subset{Parent: parent, Detection: det, Frames: kept, ParentDraws: parentDraws}
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
	// A streamed pass's parent is the frameless shell of its source:
	// its frames are the ones the detection covers.
	parentFrames := len(s.Parent.Frames)
	if parentFrames == 0 && len(s.Detection.Intervals) > 0 {
		parentFrames = s.Detection.Intervals[len(s.Detection.Intervals)-1].End
	}
	var scaleSum float64
	for i := range s.Frames {
		sf := &s.Frames[i]
		if sf.ParentFrame < 0 || sf.ParentFrame >= parentFrames {
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
	if math.Abs(scaleSum-float64(parentFrames)) > 1e-6 {
		return fmt.Errorf("subset: phase scales sum to %v, parent has %d frames", scaleSum, parentFrames)
	}
	return nil
}
