// Package phase detects repetitive behaviour across frames.
//
// The paper characterizes fixed-length frame intervals by their
// "shader vector" — which shader programs execute in the interval and
// how much work each does — and declares two intervals to be the same
// phase when their shader vectors are equal. Games revisit content, so
// a long capture collapses into a handful of phases; keeping one
// representative interval per phase is the inter-frame half of
// workload subsetting (draw-call clustering being the intra-frame
// half).
//
// Equality is made robust by normalizing each vector to work shares,
// dropping shaders below a minimum share, and quantizing the remaining
// shares to coarse logarithmic levels before comparison.
package phase

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/shader"
	"repro/internal/trace"
)

// Vector is the work-weighted shader usage of a frame interval,
// normalized to shares that sum to 1 (over pixel shaders with nonzero
// work).
type Vector struct {
	Shares map[shader.ID]float64
}

// Signature is the quantized, canonical form of a Vector. Equal
// signatures define a phase.
type Signature string

// Options configures detection. The zero value is not valid; use
// DefaultOptions.
type Options struct {
	// IntervalFrames is the characterization granularity. The paper's
	// intervals are a few frames; 4 is the default.
	IntervalFrames int

	// MinShare drops shaders contributing less than this fraction of
	// interval work from the signature (noise floor).
	MinShare float64

	// QuantizeWeights controls whether signatures include quantized
	// work shares, or only the shader set (false, the default).
	//
	// Set equality is the robust reading of the paper's "shader vector
	// equality": two intervals are the same phase when the same shader
	// programs execute in both. It is stable under per-frame jitter
	// (a shader's presence doesn't flicker the way its exact work share
	// does) and insensitive to how intervals align with scene
	// boundaries — an interval straddling scenes A and B signs as the
	// union of their shader sets wherever in the capture it occurs.
	// Weighted signatures are stricter and fragment phases whenever a
	// share sits near a quantization boundary; they are kept as an
	// ablation arm.
	QuantizeWeights bool

	// LevelsPerOctave is the share-quantization resolution when
	// QuantizeWeights is on: shares are bucketed to
	// floor(log2(share) * LevelsPerOctave). 1 gives power-of-two
	// buckets.
	LevelsPerOctave float64

	// MatchCosine, when positive, replaces signature equality with
	// similarity matching: an interval joins the first existing phase
	// whose representative shader vector has cosine similarity >=
	// MatchCosine, else founds a new phase. This is the graded
	// extension of shader-vector equality for captures whose intervals
	// never repeat exactly (e.g. weighted vectors under heavy jitter).
	// Typical values: 0.98-0.999.
	MatchCosine float64
}

// DefaultOptions returns the configuration used in the experiments:
// 4-frame intervals, set-based equality, no noise floor.
func DefaultOptions() Options {
	return Options{
		IntervalFrames:  4,
		MinShare:        0,
		QuantizeWeights: false,
		LevelsPerOctave: 1,
	}
}

// Validate reports the first structural problem with the options.
func (o Options) Validate() error {
	switch {
	case o.IntervalFrames <= 0:
		return fmt.Errorf("phase: interval %d <= 0", o.IntervalFrames)
	case o.MinShare < 0 || o.MinShare >= 1:
		return fmt.Errorf("phase: min share %v outside [0, 1)", o.MinShare)
	case o.QuantizeWeights && o.LevelsPerOctave <= 0:
		return fmt.Errorf("phase: levels/octave %v <= 0", o.LevelsPerOctave)
	case o.MatchCosine < 0 || o.MatchCosine >= 1:
		return fmt.Errorf("phase: match cosine %v outside [0, 1)", o.MatchCosine)
	}
	return nil
}

// Interval is one characterized frame interval.
type Interval struct {
	Start, End int // frame range [Start, End)
	Sig        Signature
	Phase      int // phase id, dense from 0 in first-seen order
}

// Detection is the phase structure of a workload.
type Detection struct {
	Opt       Options
	Intervals []Interval
	NumPhases int
	// Representatives holds, per phase, the index (into Intervals) of
	// its first occurrence — the interval a subset keeps.
	Representatives []int
}

// IntervalVector computes the shader vector of frames [start, end) of
// the workload: per pixel shader, the share of estimated shading work
// (covered pixels x overdraw) it receives.
func IntervalVector(w *trace.Workload, start, end int) (Vector, error) {
	if start < 0 || end > len(w.Frames) || start >= end {
		return Vector{}, fmt.Errorf("phase: interval [%d, %d) outside workload of %d frames", start, end, len(w.Frames))
	}
	return VectorOfFrames(w, w.Frames[start:end])
}

// VectorOfFrames computes the shader vector of an explicit frame
// slice resolved against ctx's resource tables. This is the streaming
// entry point: ctx may be a frameless shell (trace.Header.Shell) while
// the frames flow past.
func VectorOfFrames(ctx *trace.Workload, frames []trace.Frame) (Vector, error) {
	if len(frames) == 0 {
		return Vector{}, fmt.Errorf("phase: empty frame interval")
	}
	weights := map[shader.ID]float64{}
	var total float64
	for fi := range frames {
		f := &frames[fi]
		for di := range f.Draws {
			d := &f.Draws[di]
			rt, err := ctx.RenderTarget(d.RT)
			if err != nil {
				return Vector{}, err
			}
			work := d.CoverageFrac * float64(rt.Pixels()) * d.Overdraw
			weights[d.PS] += work
			total += work
		}
	}
	if total > 0 {
		for id := range weights {
			weights[id] /= total
		}
	}
	return Vector{Shares: weights}, nil
}

// Signature canonicalizes the vector under the given options.
func (v Vector) Signature(o Options) Signature {
	type entry struct {
		id    shader.ID
		level int
	}
	entries := make([]entry, 0, len(v.Shares))
	for id, share := range v.Shares {
		if share < o.MinShare || share <= 0 {
			continue
		}
		level := 0
		if o.QuantizeWeights {
			level = int(math.Floor(math.Log2(share) * o.LevelsPerOctave))
		}
		entries = append(entries, entry{id, level})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	var b strings.Builder
	for _, e := range entries {
		if o.QuantizeWeights {
			fmt.Fprintf(&b, "%d@%d;", e.id, e.level)
		} else {
			fmt.Fprintf(&b, "%d;", e.id)
		}
	}
	return Signature(b.String())
}

// Cosine returns the cosine similarity of two vectors over the union
// of their shader sets.
func Cosine(a, b Vector) float64 {
	var dot, na, nb float64
	for id, x := range a.Shares {
		na += x * x
		if y, ok := b.Shares[id]; ok {
			dot += x * y
		}
	}
	for _, y := range b.Shares {
		nb += y * y
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// Detect splits the workload into fixed-length intervals (the last may
// be short), computes each interval's signature, and assigns phases by
// signature equality in first-seen order.
func Detect(w *trace.Workload, o Options) (Detection, error) {
	return DetectContext(context.Background(), w, o, 0)
}

// DetectContext is Detect with cancellation and bounded fan-out:
// interval characterization — the per-frame shader-vector accumulation
// that dominates detection time — runs across at most workers
// goroutines (<= 0 selects GOMAXPROCS), while phase assignment stays a
// sequential pass over the characterized intervals in capture order.
// First-seen phase numbering therefore never depends on scheduling and
// the Detection is bit-identical at any worker count.
func DetectContext(ctx context.Context, w *trace.Workload, o Options, workers int) (Detection, error) {
	if err := o.Validate(); err != nil {
		return Detection{}, err
	}
	ctx, sp := obs.StartSpan(ctx, "phase-detect")
	defer sp.End()
	n := len(w.Frames)
	if n == 0 {
		return Detection{}, fmt.Errorf("phase: workload has no frames")
	}
	sp.AddItems(int64(n))
	sp.SetWorkers(parallel.Workers(workers))
	starts := make([]int, 0, (n+o.IntervalFrames-1)/o.IntervalFrames)
	for start := 0; start < n; start += o.IntervalFrames {
		starts = append(starts, start)
	}
	type charzed struct {
		start, end int
		v          Vector
		sig        Signature
	}
	chars, err := parallel.MapSlice(ctx, workers, starts, func(ctx context.Context, _ int, start int) (charzed, error) {
		end := start + o.IntervalFrames
		if end > n {
			end = n
		}
		v, err := IntervalVector(w, start, end)
		if err != nil {
			return charzed{}, err
		}
		return charzed{start: start, end: end, v: v, sig: v.Signature(o)}, nil
	})
	if err != nil {
		return Detection{}, err
	}

	det := Detection{Opt: o}
	phases := NewAssigner(o)
	for _, c := range chars {
		id, founded := phases.Assign(c.v, c.sig)
		if founded {
			det.Representatives = append(det.Representatives, len(det.Intervals))
		}
		det.Intervals = append(det.Intervals, Interval{Start: c.start, End: c.end, Sig: c.sig, Phase: id})
	}
	det.NumPhases = phases.NumPhases()
	if run := obs.RunFromContext(ctx); run != nil {
		run.Metrics().Counter("phase.intervals").Add(int64(len(det.Intervals)))
		run.Metrics().Counter("phase.phases").Add(int64(det.NumPhases))
	}
	return det, nil
}

// Assigner numbers phases in first-seen order as characterized
// intervals arrive in capture order: an interval joins the phase of an
// equal signature or, when MatchCosine is set, the first phase whose
// founding vector is at least that similar to its own; otherwise it
// founds a new phase. DetectContext and the streaming subsetter both
// assign through it, so batch and stream detection agree.
type Assigner struct {
	opt        Options
	sigToPhase map[Signature]int
	reps       []Vector // per phase, the founding vector (cosine mode)
	n          int
}

// NewAssigner returns an assigner with no phases yet.
func NewAssigner(o Options) *Assigner {
	return &Assigner{opt: o, sigToPhase: map[Signature]int{}}
}

// Assign returns the phase of the next interval, whose shader vector
// is v and signature sig, and whether the interval founded it.
func (a *Assigner) Assign(v Vector, sig Signature) (id int, founded bool) {
	if a.opt.MatchCosine > 0 {
		for p, rv := range a.reps {
			if Cosine(v, rv) >= a.opt.MatchCosine {
				return p, false
			}
		}
		a.reps = append(a.reps, v)
	} else {
		if id, ok := a.sigToPhase[sig]; ok {
			return id, false
		}
		a.sigToPhase[sig] = a.n
	}
	a.n++
	return a.n - 1, true
}

// NumPhases returns how many phases have been founded so far.
func (a *Assigner) NumPhases() int { return a.n }

// RepresentativeFrames returns the frame indices covered by the
// representative interval of each phase, in phase order.
func (d *Detection) RepresentativeFrames() []int {
	var frames []int
	for _, ii := range d.Representatives {
		iv := d.Intervals[ii]
		for f := iv.Start; f < iv.End; f++ {
			frames = append(frames, f)
		}
	}
	return frames
}

// PhaseOfFrame returns the phase id of each frame.
func (d *Detection) PhaseOfFrame(numFrames int) []int {
	out := make([]int, numFrames)
	for _, iv := range d.Intervals {
		for f := iv.Start; f < iv.End && f < numFrames; f++ {
			out[f] = iv.Phase
		}
	}
	return out
}

// Timeline renders the interval phase sequence as a compact string
// ("AABBA-C..."), one rune per interval; phases beyond 26 wrap through
// lowercase then digits.
func (d *Detection) Timeline() string {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
	var b strings.Builder
	for _, iv := range d.Intervals {
		b.WriteByte(alphabet[iv.Phase%len(alphabet)])
	}
	return b.String()
}

// Coverage returns how many intervals each phase owns, in phase order.
func (d *Detection) Coverage() []int {
	counts := make([]int, d.NumPhases)
	for _, iv := range d.Intervals {
		counts[iv.Phase]++
	}
	return counts
}
