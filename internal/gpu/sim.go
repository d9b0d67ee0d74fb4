package gpu

import (
	"context"
	"fmt"
	"math"

	"repro/internal/trace"
)

// DrawCost is the priced execution of one draw call on one config.
// All times are nanoseconds.
type DrawCost struct {
	// Core-domain stage cycles. The pipeline is throughput-limited by
	// its slowest stage, so CoreCycles is the max, not the sum.
	VSCycles     float64
	SetupCycles  float64
	RasterCycles float64
	PSCycles     float64
	ROPCycles    float64
	CoreCycles   float64

	// Memory-domain traffic in bytes.
	VertexBytes float64
	TexBytes    float64
	RTBytes     float64
	DepthBytes  float64

	ShadedPixels float64
	TexHitRate   float64

	ComputeNs  float64
	MemoryNs   float64
	OverheadNs float64
	TotalNs    float64

	// MemoryBound records which domain dominated this draw.
	MemoryBound bool
}

// TrafficBytes returns total DRAM traffic for the draw.
func (dc DrawCost) TrafficBytes() float64 { return dc.traffic() }

// traffic is TrafficBytes without copying the struct — the pricing
// loop's form.
func (dc *DrawCost) traffic() float64 {
	return dc.VertexBytes + dc.TexBytes + dc.RTBytes + dc.DepthBytes
}

// BottleneckStage names the core-domain stage that limits this draw's
// pipeline throughput ("vs", "setup", "raster", "ps", "rop").
func (dc DrawCost) BottleneckStage() string {
	best, name := dc.VSCycles, "vs"
	for _, c := range [...]struct {
		cycles float64
		name   string
	}{
		{dc.SetupCycles, "setup"},
		{dc.RasterCycles, "raster"},
		{dc.PSCycles, "ps"},
		{dc.ROPCycles, "rop"},
	} {
		if c.cycles > best {
			best, name = c.cycles, c.name
		}
	}
	return name
}

// Simulator prices draw calls of one workload on one config. It
// flattens the workload's per-draw lookups into tables once (program
// cost by shader id, resource facts by resource id); pricing a draw is
// then O(1). A Simulator is safe for concurrent DrawCost calls after
// construction.
type Simulator struct {
	cfg Config
	w   *trace.Workload
	t   *tables
}

// NewSimulator validates the config and workload and builds the
// workload's pricing tables.
func NewSimulator(cfg Config, w *trace.Workload) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("gpu: %w", err)
	}
	return &Simulator{cfg: cfg, w: w, t: newTables(w)}, nil
}

// NewShellSimulator is NewSimulator without the workload validation,
// for a stream's frameless shell (trace.Header.Shell) or a workload its
// caller validated: it reads only the resource tables.
func NewShellSimulator(cfg Config, w *trace.Workload) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if w.Shaders == nil {
		return nil, fmt.Errorf("gpu: workload %q has nil shader registry", w.Name)
	}
	return &Simulator{cfg: cfg, w: w, t: newTables(w)}, nil
}

// Config returns the simulated configuration.
func (s *Simulator) Config() Config { return s.cfg }

// WithConfig derives a simulator for another configuration over the
// same workload. Workload validation and the pricing tables depend
// only on the workload, so both are shared with the receiver: deriving
// a config is O(1) where NewSimulator walks every draw. Grid sweeps
// construct one base simulator and derive the rest — without this, a
// warm result cache would still pay a full workload walk per config
// just to build the thing it never asks to price.
func (s *Simulator) WithConfig(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{cfg: cfg, w: s.w, t: s.t}, nil
}

// DrawCost prices one draw call. The draw must reference resources of
// the simulator's workload (subset draws qualify: subsets share their
// parent's resource tables). It panics on dangling references because
// those indicate a corrupted subset, not a runtime condition.
func (s *Simulator) DrawCost(d *trace.DrawCall) DrawCost {
	var t drawTerms
	var dc DrawCost
	s.price(d, &t, &dc)
	return dc
}

// drawNoiseZ returns an approximately standard-normal variate hashed
// from the draw's content (sum of four content-hashed uniforms). It
// depends only on the draw, never on the config, so a draw carries the
// same disturbance direction across an architecture sweep.
func drawNoiseZ(d *trace.DrawCall) float64 {
	h := uint64(d.VS)<<48 ^ uint64(d.PS)<<32 ^ uint64(d.MaterialID)<<16 ^
		uint64(d.VertexCount) ^ uint64(d.InstanceCount)<<56 ^
		math.Float64bits(d.CoverageFrac)
	var sum float64
	for i := 0; i < 4; i++ {
		// SplitMix64 steps for avalanche.
		h += 0x9e3779b97f4a7c15
		z := h
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		sum += float64(float64(z>>11) / (1 << 53))
	}
	// Irwin-Hall(4): mean 2, variance 1/3 -> standardize.
	return (sum - 2) * math.Sqrt(3)
}

// DrawNs is DrawCost reduced to total nanoseconds — the cost oracle
// signature the rest of the pipeline consumes.
func (s *Simulator) DrawNs(d *trace.DrawCall) float64 { return s.DrawCost(d).TotalNs }

// FrameNs prices a whole frame: the sum of its draw times. Draws
// serialize at frame granularity in this model; intra-draw parallelism
// is already inside DrawCost.
func (s *Simulator) FrameNs(f *trace.Frame) float64 {
	var total float64
	for i := range f.Draws {
		total += s.DrawNs(&f.Draws[i])
	}
	return total
}

// RunResult is the priced execution of a full workload.
type RunResult struct {
	ConfigName string
	FrameNs    []float64
	TotalNs    float64
}

// FPS returns average frames per second implied by the run.
func (r RunResult) FPS() float64 {
	if r.TotalNs == 0 || len(r.FrameNs) == 0 {
		return 0
	}
	return float64(len(r.FrameNs)) / (r.TotalNs * 1e-9)
}

// Run prices every frame of the simulator's workload.
func (s *Simulator) Run() RunResult {
	res, _ := s.RunContext(context.Background())
	return res
}

// RunContext prices every frame, checking for cancellation between
// frames — pricing is the inner loop of every sweep, so this is where
// a deadline has to land to stop a run promptly. It is a one-config
// PriceGrid pass on the calling goroutine.
func (s *Simulator) RunContext(ctx context.Context) (RunResult, error) {
	runs, err := s.PriceGrid(ctx, []Config{s.cfg}, 1)
	if err != nil {
		return RunResult{}, err
	}
	return runs[0].RunResult, nil
}

func max5(a, b, c, d, e float64) float64 {
	m := a
	for _, v := range [...]float64{b, c, d, e} {
		if v > m {
			m = v
		}
	}
	return m
}
