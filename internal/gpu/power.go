package gpu

import (
	"context"
	"fmt"

	"repro/internal/trace"
)

// PowerModel prices the energy of a run under a DVFS model: core
// dynamic power scales with frequency and the square of the
// frequency-dependent supply voltage, memory energy is dominated by
// per-byte DRAM transfer cost, and leakage accrues with wall time.
//
// Frequency scaling for *power* is the reason pathfinding sweeps
// frequency at all; this model lets the sweep harness answer
// energy-delay questions with subsets (experiment E16).
type PowerModel struct {
	// CoreDynW is core-domain dynamic power at the 1 GHz / V0
	// reference point, fully utilized. Actual dynamic power scales as
	// (f/1GHz) * (V(f)/V0)^2 and with core-domain utilization.
	CoreDynW float64

	// VSlope is the linear DVFS voltage curve: V(f)/V0 = 1 +
	// VSlope*(f-1GHz)/1GHz, clamped below at VMinRatio.
	VSlope    float64
	VMinRatio float64

	// MemPJPerByte is DRAM transfer energy in picojoules per byte.
	MemPJPerByte float64

	// IdleW is the always-on floor (leakage + uncore), charged for the
	// full wall time.
	IdleW float64
}

// DefaultPowerModel returns parameters plausible for the integrated
// GPU BaseConfig models (~10 W peak core, ~30 pJ/B DRAM, 2 W floor).
func DefaultPowerModel() PowerModel {
	return PowerModel{
		CoreDynW:     10,
		VSlope:       0.35,
		VMinRatio:    0.75,
		MemPJPerByte: 30,
		IdleW:        2,
	}
}

// Validate reports the first structural problem.
func (pm PowerModel) Validate() error {
	switch {
	case pm.CoreDynW <= 0:
		return fmt.Errorf("gpu: power: core dynamic power %v <= 0", pm.CoreDynW)
	case pm.VMinRatio <= 0 || pm.VMinRatio > 1:
		return fmt.Errorf("gpu: power: VMinRatio %v outside (0, 1]", pm.VMinRatio)
	case pm.MemPJPerByte < 0:
		return fmt.Errorf("gpu: power: DRAM energy %v < 0", pm.MemPJPerByte)
	case pm.IdleW < 0:
		return fmt.Errorf("gpu: power: idle power %v < 0", pm.IdleW)
	}
	return nil
}

// VoltageRatio returns V(f)/V0 for a core clock in GHz.
func (pm PowerModel) VoltageRatio(coreGHz float64) float64 {
	v := 1 + float64(pm.VSlope*(coreGHz-1))
	if v < pm.VMinRatio {
		v = pm.VMinRatio
	}
	return v
}

// Energy is a priced execution's energy decomposition. All terms in
// joules; AvgW is TotalJ / wall time.
type Energy struct {
	CoreJ  float64
	MemJ   float64
	IdleJ  float64
	TotalJ float64
	AvgW   float64
	// EDPJs is the energy-delay product in joule-seconds — the
	// figure of merit energy-aware pathfinding minimizes.
	EDPJs float64
}

// Energy prices a run from its aggregate totals: wall time, core-busy
// time, and DRAM traffic (see Totals / RunResult.Totals).
func (pm PowerModel) Energy(cfg Config, t Totals) Energy {
	wallS := t.TotalNs * 1e-9
	coreBusyS := t.ComputeNs * 1e-9
	v := pm.VoltageRatio(cfg.CoreClockGHz)
	var e Energy
	e.CoreJ = float64(pm.CoreDynW * cfg.CoreClockGHz * v * v * coreBusyS)
	e.MemJ = float64(pm.MemPJPerByte * 1e-12 * t.TrafficBytes)
	e.IdleJ = float64(pm.IdleW * wallS)
	e.TotalJ = e.CoreJ + e.MemJ + e.IdleJ
	if wallS > 0 {
		e.AvgW = e.TotalJ / wallS
	}
	e.EDPJs = e.TotalJ * wallS
	return e
}

// Totals aggregates the cost components of a set of draws: wall time,
// core-domain busy time, memory-domain busy time, DRAM traffic.
type Totals struct {
	TotalNs      float64
	ComputeNs    float64
	MemoryNs     float64
	TrafficBytes float64
}

// Add folds a draw cost into the totals with the given weight (weight
// 1 for plain simulation; cluster/phase weights for subsets).
func (t *Totals) Add(dc DrawCost, weight float64) {
	t.TotalNs += float64(dc.TotalNs * weight)
	t.ComputeNs += float64(dc.ComputeNs * weight)
	t.MemoryNs += float64(dc.MemoryNs * weight)
	t.TrafficBytes += float64(dc.TrafficBytes() * weight)
}

// DrawTotals returns the components the power model needs for one
// draw. This is the subset.TotalsOracle method.
func (s *Simulator) DrawTotals(d *trace.DrawCall) (totalNs, computeNs, memoryNs, trafficBytes float64) {
	dc := s.DrawCost(d)
	return dc.TotalNs, dc.ComputeNs, dc.MemoryNs, dc.TrafficBytes()
}

// RunTotals prices the whole workload and returns both the per-frame
// result and the aggregate totals the power model consumes. It is a
// one-config PriceGrid pass on the calling goroutine.
func (s *Simulator) RunTotals() (RunResult, Totals) {
	runs, _ := s.PriceGrid(context.Background(), []Config{s.cfg}, 1) // never canceled; cfg validated at construction
	return runs[0].RunResult, runs[0].Totals
}
