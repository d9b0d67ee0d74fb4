// Package stream is the one-pass, bounded-memory variant of workload
// subsetting: frames are consumed as they arrive (e.g. from a
// trace.StreamDecoder attached to a capture that never fits in
// memory), the phase table is maintained online, and only the frames
// that become phase representatives are ever clustered or retained.
//
// Memory high-water mark: one characterization interval of frames plus
// the subset itself — independent of capture length. The result is
// identical in structure to subset.Build's output; for a capture that
// fits in memory the two agree exactly (see the equivalence test).
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/phase"
	"repro/internal/subset"
	"repro/internal/trace"
	"repro/internal/traceerr"
)

// Options mirrors subset.Options.
type Options struct {
	Method subset.Method
	Phase  phase.Options

	// Lenient makes Push skip unusable frames (accounted in the
	// result's Diagnostics) instead of failing the run — pair it with a
	// lenient trace.StreamReader to survive damaged captures.
	Lenient bool
}

// DefaultOptions returns the batch pipeline's defaults.
func DefaultOptions() Options {
	o := subset.DefaultOptions()
	return Options{Method: o.Method, Phase: o.Phase}
}

// Result is the streamed subset plus corpus accounting.
type Result struct {
	Frames       []subset.Frame
	NumPhases    int
	ParentFrames int
	ParentDraws  int
	Timeline     string

	// Diagnostics accounts for everything skipped on the way here —
	// the reader's resyncs plus frames the subsetter itself dropped.
	// Zero on a clean strict run.
	Diagnostics traceerr.Diagnostics
}

// SizeRatio returns subset draws / parent draws.
func (r *Result) SizeRatio() float64 {
	if r.ParentDraws == 0 {
		return 0
	}
	n := 0
	for i := range r.Frames {
		n += len(r.Frames[i].Draws)
	}
	return float64(n) / float64(r.ParentDraws)
}

// EstimateParentNs reconstructs the parent total under the oracle.
func (r *Result) EstimateParentNs(o subset.CostOracle) float64 {
	var t float64
	for i := range r.Frames {
		t += r.Frames[i].PredictNs(o)
	}
	return t
}

// Subsetter consumes frames one at a time. Construct with New, feed
// with Push, and call Finish exactly once.
type Subsetter struct {
	shell *trace.Workload
	opt   Options
	fc    *subset.FrameClusterer

	buf      []trace.Frame // current interval, <= IntervalFrames
	frameIdx int           // frames consumed so far
	draws    int
	phases   *phase.Assigner
	phaseLen []int  // parent frames per phase
	timeline []byte // one rune per interval
	frames   []subset.Frame
	finished bool
	diag     traceerr.Diagnostics
}

// New builds a streaming subsetter bound to the stream's shell
// workload (trace.StreamDecoder.Shell()).
func New(shell *trace.Workload, opt Options) (*Subsetter, error) {
	if err := opt.Phase.Validate(); err != nil {
		return nil, err
	}
	fc, err := subset.NewShellFrameClusterer(shell, opt.Method)
	if err != nil {
		return nil, err
	}
	return &Subsetter{
		shell:  shell,
		opt:    opt,
		fc:     fc,
		phases: phase.NewAssigner(opt.Phase),
	}, nil
}

// Push consumes one frame. In lenient mode an unusable frame is
// skipped and accounted instead of failing the run.
func (s *Subsetter) Push(f trace.Frame) error {
	if s.finished {
		return fmt.Errorf("stream: Push after Finish")
	}
	if len(f.Draws) == 0 {
		if s.opt.Lenient {
			s.diag.FramesSkipped++
			return nil
		}
		return fmt.Errorf("stream: frame %d has no draws: %w", s.frameIdx, traceerr.ErrInvalidFrame)
	}
	s.buf = append(s.buf, f)
	s.frameIdx++
	s.draws += len(f.Draws)
	if len(s.buf) == s.opt.Phase.IntervalFrames {
		return s.flush()
	}
	return nil
}

// flush characterizes the buffered interval and retains a
// representative frame if its phase is new.
func (s *Subsetter) flush() error {
	if len(s.buf) == 0 {
		return nil
	}
	v, err := phase.VectorOfFrames(s.shell, s.buf)
	if err != nil {
		return err
	}
	id, founded := s.phases.Assign(v, v.Signature(s.opt.Phase))
	if founded {
		s.phaseLen = append(s.phaseLen, 0)

		mid := len(s.buf) / 2
		globalIdx := s.frameIdx - len(s.buf) + mid
		cf, err := s.fc.ClusterFrame(&s.buf[mid], globalIdx)
		if err != nil {
			return err
		}
		sf := subset.Frame{
			ParentFrame: globalIdx,
			Phase:       id,
			Draws:       make([]trace.DrawCall, len(cf.RepDraws)),
			Weights:     cf.Weights,
		}
		for c, di := range cf.RepDraws {
			sf.Draws[c] = s.buf[mid].Draws[di]
		}
		s.frames = append(s.frames, sf)
	}
	s.phaseLen[id] += len(s.buf)
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
	s.timeline = append(s.timeline, alphabet[id%len(alphabet)])
	s.buf = s.buf[:0]
	return nil
}

// Finish flushes any partial interval, assigns phase scales and
// returns the subset. The subsetter is unusable afterwards.
func (s *Subsetter) Finish() (*Result, error) {
	if s.finished {
		return nil, fmt.Errorf("stream: Finish called twice")
	}
	s.finished = true
	if err := s.flush(); err != nil {
		return nil, err
	}
	if s.frameIdx == 0 {
		return nil, fmt.Errorf("stream: no frames pushed")
	}
	for i := range s.frames {
		s.frames[i].PhaseScale = float64(s.phaseLen[s.frames[i].Phase])
	}
	return &Result{
		Frames:       s.frames,
		NumPhases:    s.phases.NumPhases(),
		ParentFrames: s.frameIdx,
		ParentDraws:  s.draws,
		Timeline:     string(s.timeline),
		Diagnostics:  s.diag,
	}, nil
}

// FrameSource is what RunContext drains: both trace.StreamDecoder
// (strict) and trace.StreamReader (strict or lenient) satisfy it.
type FrameSource interface {
	Shell() *trace.Workload
	NextFrame() (trace.Frame, error)
}

// diagnoser lets RunContext collect degradation accounting from
// sources that keep it (trace.StreamReader).
type diagnoser interface {
	Diagnostics() traceerr.Diagnostics
}

// Run drains a frame source through a subsetter — the convenience
// entry point for file-backed captures.
func Run(src FrameSource, opt Options) (*Result, error) {
	return RunContext(context.Background(), src, opt)
}

// RunContext is Run with cancellation: the drain loop stops with
// ctx.Err() as soon as the context is done, so callers can bound
// unattended ingestion with a deadline or Ctrl-C.
func RunContext(ctx context.Context, src FrameSource, opt Options) (*Result, error) {
	run := obs.RunFromContext(ctx)
	_, sp := obs.StartSpan(ctx, "stream-ingest")
	defer sp.End()

	s, err := New(src.Shell(), opt)
	if err != nil {
		return nil, err
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("stream: ingestion canceled after %d frames: %w", s.frameIdx, err)
		}
		f, err := src.NextFrame()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := s.Push(f); err != nil {
			return nil, err
		}
		sp.AddItems(1)
	}
	res, err := s.Finish()
	if err != nil {
		return nil, err
	}
	if d, ok := src.(diagnoser); ok {
		res.Diagnostics.Add(d.Diagnostics())
	}
	if run != nil {
		reg := run.Metrics()
		reg.Counter("stream.frames").Add(int64(res.ParentFrames))
		reg.Counter("stream.draws").Add(int64(res.ParentDraws))
		reg.Counter("stream.phases").Add(int64(res.NumPhases))
		reg.Counter("subset.frames").Add(int64(len(res.Frames)))
		run.RecordDiagnostics(res.Diagnostics.Map())
		if res.Diagnostics.Any() {
			run.Logger().Warn("lenient ingestion degraded the capture", "diagnostics", res.Diagnostics.String())
		}
	}
	return res, nil
}
