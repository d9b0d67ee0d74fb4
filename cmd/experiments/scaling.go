package main

import (
	"context"
	"fmt"

	"repro/internal/gpu"
	"repro/internal/subset"
	"repro/internal/sweep"
)

// runE8 validates subsets against the parent across the core-frequency
// sweep — the paper's headline correlation (r >= 0.997).
func runE8(c *ctx) error {
	return runScaling(c, "core", sweep.CoreClockSweep(gpu.BaseConfig(), sweep.DefaultCoreClocks()))
}

// runE11 repeats the validation on the memory-clock domain.
func runE11(c *ctx) error {
	return runScaling(c, "mem", sweep.MemClockSweep(gpu.BaseConfig(), sweep.DefaultMemClocks()))
}

func runScaling(c *ctx, domain string, cfgs []gpu.Config) error {
	if err := c.ensureSuite(); err != nil {
		return err
	}
	fmt.Printf("%-14s %12s %12s\n", "workload", "pearson r", "spearman")
	for _, w := range c.suite {
		s, err := subset.BuildContext(context.Background(), w, c.subsetOptions())
		if err != nil {
			return err
		}
		res, err := sweep.RunParallel(context.Background(), w, s, cfgs, c.workers)
		if err != nil {
			return err
		}
		fmt.Printf("%-14s %12.5f %12.5f\n", w.Name, res.Correlation, res.RankCorrelation)
		fmt.Printf("  %s clocks:   ", domain)
		for _, p := range res.Points {
			if domain == "core" {
				fmt.Printf("%6.2f", p.Config.CoreClockGHz)
			} else {
				fmt.Printf("%6.2f", p.Config.MemClockGHz)
			}
		}
		fmt.Printf("\n  parent speedup:")
		for _, v := range res.ParentSpeedups {
			fmt.Printf("%6.2f", v)
		}
		fmt.Printf("\n  subset speedup:")
		for _, v := range res.SubsetSpeedups {
			fmt.Printf("%6.2f", v)
		}
		fmt.Println()
	}
	if domain == "core" {
		fmt.Println("paper: correlation coefficient >= 99.7% on GPU frequency scaling")
	}
	return nil
}

// runE12 checks pathfinding decision fidelity on a core x mem grid.
func runE12(c *ctx) error {
	if err := c.ensureSuite(); err != nil {
		return err
	}
	grid := sweep.Grid(gpu.BaseConfig(), []float64{0.6, 1.0, 1.6}, []float64{0.5, 0.75, 1.0, 1.5})
	fmt.Printf("grid: %d configs (3 core clocks x 4 mem clocks)\n", len(grid))
	fmt.Printf("%-14s %10s %12s %12s %10s\n", "workload", "agree", "best/parent", "best/subset", "spearman")
	for _, w := range c.suite {
		s, err := subset.BuildContext(context.Background(), w, c.subsetOptions())
		if err != nil {
			return err
		}
		res, err := sweep.RunParallel(context.Background(), w, s, grid, c.workers)
		if err != nil {
			return err
		}
		d := sweep.Decide(res)
		fmt.Printf("%-14s %10v %12s %12s %10.4f\n", w.Name, d.Agreement,
			grid[d.BestByParent].Name, grid[d.BestBySubset].Name, res.RankCorrelation)
	}
	return nil
}
