package main

import (
	"context"
	"fmt"

	"repro/internal/gpu"
	"repro/internal/sweep"
)

// runE16 validates subsets for energy-aware pathfinding: across a DVFS
// sweep, the subset's reconstructed energy-delay-product curve must
// track the parent's and pick the same min-EDP operating point.
func runE16(c *ctx) error {
	if err := c.ensureReports(); err != nil {
		return err
	}
	pm := gpu.DefaultPowerModel()
	cfgs := sweep.CoreClockSweep(gpu.BaseConfig(), []float64{0.4, 0.6, 0.8, 1.0, 1.3, 1.6, 2.0})
	fmt.Fprintf(c.out, "power model: core %gW @1GHz (Vslope %g), DRAM %g pJ/B, idle %gW\n",
		pm.CoreDynW, pm.VSlope, pm.MemPJPerByte, pm.IdleW)
	fmt.Fprintf(c.out, "%-14s %10s %14s %14s %12s\n", "workload", "agree", "EDP best", "subset best", "EDP corr")
	for _, r := range c.reports.Reports {
		s := r.Subset
		res, err := sweep.RunEnergyParallel(context.Background(), s.Parent, s, pm, cfgs, c.workers)
		if err != nil {
			return err
		}
		fmt.Fprintf(c.out, "%-14s %10v %14s %14s %12.5f\n", s.Parent.Name, res.Agreement,
			cfgs[res.BestByParentEDP].Name, cfgs[res.BestBySubsetEDP].Name, res.EDPCorrelation)
		fmt.Fprintf(c.out, "  clock    parent: time(ms)  energy(J)  EDP(Js) | subset estimates\n")
		for i, p := range res.Points {
			fmt.Fprintf(c.out, "  %4.1fGHz %16.1f %10.2f %8.3f | %10.1f %10.2f %8.3f\n",
				cfgs[i].CoreClockGHz,
				p.ParentNs/1e6, p.ParentEnergy.TotalJ, p.ParentEnergy.EDPJs,
				p.SubsetNs/1e6, p.SubsetEnergy.TotalJ, p.SubsetEnergy.EDPJs)
		}
	}
	fmt.Fprintln(c.out, "EDP = energy x delay; DVFS makes it non-monotone in clock, so the")
	fmt.Fprintln(c.out, "decision is a real optimum, not an endpoint.")
	return nil
}
