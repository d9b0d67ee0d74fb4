package main

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/sweep"
)

// runE8 prints the pipeline's own validation of each subset on the
// core-frequency sweep — the paper's headline correlation (r >= 0.997).
func runE8(c *ctx) error {
	return runScaling(c, "core", func(r *core.Report) (sweep.Result, error) {
		return r.Validation, nil
	})
}

// runE11 repeats the validation on the memory-clock domain.
func runE11(c *ctx) error {
	cfgs := sweep.MemClockSweep(gpu.BaseConfig(), sweep.DefaultMemClocks())
	return runScaling(c, "mem", func(r *core.Report) (sweep.Result, error) {
		return sweep.RunParallel(context.Background(), r.Subset.Parent, r.Subset, cfgs, c.workers)
	})
}

// runScaling prints, per game, the sweep validate returns for its
// pipeline report.
func runScaling(c *ctx, domain string, validate func(*core.Report) (sweep.Result, error)) error {
	if err := c.ensureReports(); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%-14s %12s %12s\n", "workload", "pearson r", "spearman")
	for _, r := range c.reports.Reports {
		res, err := validate(r)
		if err != nil {
			return err
		}
		fmt.Fprintf(c.out, "%-14s %12.5f %12.5f\n", r.Subset.Parent.Name, res.Correlation, res.RankCorrelation)
		fmt.Fprintf(c.out, "  %s clocks:   ", domain)
		for _, p := range res.Points {
			if domain == "core" {
				fmt.Fprintf(c.out, "%6.2f", p.Config.CoreClockGHz)
			} else {
				fmt.Fprintf(c.out, "%6.2f", p.Config.MemClockGHz)
			}
		}
		fmt.Fprintf(c.out, "\n  parent speedup:")
		for _, v := range res.ParentSpeedups {
			fmt.Fprintf(c.out, "%6.2f", v)
		}
		fmt.Fprintf(c.out, "\n  subset speedup:")
		for _, v := range res.SubsetSpeedups {
			fmt.Fprintf(c.out, "%6.2f", v)
		}
		fmt.Fprintln(c.out)
	}
	if domain == "core" {
		fmt.Fprintln(c.out, "paper: correlation coefficient >= 99.7% on GPU frequency scaling")
	}
	return nil
}

// runE12 checks pathfinding decision fidelity on a core x mem grid.
func runE12(c *ctx) error {
	if err := c.ensureReports(); err != nil {
		return err
	}
	grid := sweep.Grid(gpu.BaseConfig(), []float64{0.6, 1.0, 1.6}, []float64{0.5, 0.75, 1.0, 1.5})
	fmt.Fprintf(c.out, "grid: %d configs (3 core clocks x 4 mem clocks)\n", len(grid))
	fmt.Fprintf(c.out, "%-14s %10s %12s %12s %10s\n", "workload", "agree", "best/parent", "best/subset", "spearman")
	for _, r := range c.reports.Reports {
		s := r.Subset
		res, err := sweep.RunParallel(context.Background(), s.Parent, s, grid, c.workers)
		if err != nil {
			return err
		}
		d := sweep.Decide(res)
		fmt.Fprintf(c.out, "%-14s %10v %12s %12s %10.4f\n", s.Parent.Name, d.Agreement,
			grid[d.BestByParent].Name, grid[d.BestBySubset].Name, res.RankCorrelation)
	}
	return nil
}
