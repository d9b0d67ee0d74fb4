package main

import (
	"context"
	"fmt"

	"repro/internal/apicmd"
	"repro/internal/explore"
	"repro/internal/gpu"
	"repro/internal/subset"
	"repro/internal/sweep"
)

// runE18 characterizes the corpus's API command streams: how often
// state changes per draw — the engine batching behaviour that makes
// both delta-encoded captures small and draw-call clustering
// efficient.
func runE18(c *ctx) error {
	if err := c.ensureSuite(); err != nil {
		return err
	}
	fmt.Printf("%-14s %10s %12s %14s %12s\n",
		"workload", "draws", "binds", "binds/draw", "expansion")
	for _, w := range c.suite {
		st := apicmd.Record(w).Stats()
		fmt.Printf("%-14s %10d %12d %14.2f %11.1fx\n",
			w.Name, st.Draws, st.Binds, st.BindsPerDraw, st.ExpansionRatio)
	}
	fmt.Println("binds/draw well below the full-state 6 confirms material batching —")
	fmt.Println("the same contiguity leader clustering exploits.")
	return nil
}

// runE19 checks Pareto and power-capped pathfinding decisions: across
// a core x mem grid with the DVFS power model, does the subset
// reproduce the parent's (delay, energy) frontier and its choice under
// a power cap?
func runE19(c *ctx) error {
	if err := c.ensureSuite(); err != nil {
		return err
	}
	pm := gpu.DefaultPowerModel()
	grid := sweep.Grid(gpu.BaseConfig(), []float64{0.5, 0.8, 1.2, 1.8}, []float64{0.5, 1.0, 1.5})
	fmt.Printf("grid: %d configs (4 core x 3 mem clocks); power cap for the constrained pick: 12 W\n", len(grid))
	fmt.Printf("%-14s %10s %10s %12s %16s %16s\n",
		"workload", "frontier", "agreement", "capped agree", "capped/parent", "capped/subset")
	for _, w := range c.suite {
		s, err := subset.BuildContext(context.Background(), w, c.subsetOptions())
		if err != nil {
			return err
		}
		res, err := sweep.RunEnergyParallel(context.Background(), w, s, pm, grid, c.workers)
		if err != nil {
			return err
		}
		parentC := make([]explore.Candidate, len(res.Points))
		subsetC := make([]explore.Candidate, len(res.Points))
		for i, p := range res.Points {
			parentC[i] = explore.Candidate{Index: i, DelayNs: p.ParentNs, EnergyJ: p.ParentEnergy.TotalJ}
			subsetC[i] = explore.Candidate{Index: i, DelayNs: p.SubsetNs, EnergyJ: p.SubsetEnergy.TotalJ}
		}
		pf := explore.ParetoFrontier(parentC)
		sf := explore.ParetoFrontier(subsetC)
		agree := explore.FrontierAgreement(pf, sf)

		const capW = 12
		pb, errP := explore.BestUnderPower(parentC, capW)
		sb, errS := explore.BestUnderPower(subsetC, capW)
		capAgree := errP == nil && errS == nil && pb.Index == sb.Index
		pName, sName := "(none)", "(none)"
		if errP == nil {
			pName = grid[pb.Index].Name
		}
		if errS == nil {
			sName = grid[sb.Index].Name
		}
		fmt.Printf("%-14s %7d/%-2d %10.2f %12v %16s %16s\n",
			w.Name, len(pf), len(sf), agree, capAgree, pName, sName)
	}
	return nil
}
