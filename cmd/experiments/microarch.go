package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/gpu"
	"repro/internal/report"
	"repro/internal/subset"
	"repro/internal/sweep"
)

// runE20 validates subsets on micro-architectural dimensions beyond
// clocks: execution-unit count and texture-cache size. Pathfinding
// enumerates exactly these, and the subset's correlation must survive
// there too — clusters were formed on micro-architecture *independent*
// features, so nothing ties them to a particular EU count or cache
// geometry.
func runE20(c *ctx) error {
	if err := c.ensureSuite(); err != nil {
		return err
	}
	euSweep := make([]gpu.Config, 0, 5)
	for _, eus := range []int{2, 4, 8, 16, 32} {
		cfg := gpu.BaseConfig()
		cfg.NumEUs = eus
		cfg.Name = fmt.Sprintf("eu%d", eus)
		euSweep = append(euSweep, cfg)
	}
	cacheSweep := make([]gpu.Config, 0, 5)
	for _, kb := range []int{32, 64, 256, 1024, 4096} {
		cfg := gpu.BaseConfig()
		cfg.TexCacheKB = kb
		cfg.Name = fmt.Sprintf("tex%dK", kb)
		cacheSweep = append(cacheSweep, cfg)
	}
	tab := report.New("subset fidelity on micro-architectural sweeps",
		"workload", "dimension", "pearson r", "spearman", "parent range", "subset range")
	for _, w := range c.suite {
		s, err := subset.BuildContext(context.Background(), w, c.subsetOptions())
		if err != nil {
			return err
		}
		for _, arm := range []struct {
			name string
			cfgs []gpu.Config
		}{
			{"EU count 2-32", euSweep},
			{"tex cache 32K-4M", cacheSweep},
			{"device tiers", gpu.Tiers()},
		} {
			res, err := sweep.RunParallel(context.Background(), w, s, arm.cfgs, c.workers)
			if err != nil {
				return err
			}
			last := len(res.Points) - 1
			tab.AddRow(w.Name, arm.name,
				fmt.Sprintf("%.5f", res.Correlation),
				fmt.Sprintf("%.5f", res.RankCorrelation),
				fmt.Sprintf("%.2fx", res.ParentSpeedups[last]),
				fmt.Sprintf("%.2fx", res.SubsetSpeedups[last]))
		}
	}
	tab.AddNote("range = speedup of the last sweep point relative to the first")
	tab.Render(os.Stdout)
	return nil
}
