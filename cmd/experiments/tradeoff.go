package main

import (
	"fmt"

	"repro/internal/core"
)

// runE5 sweeps the leader threshold and prints the error/efficiency
// trade-off curve the default operating point was chosen from. Each
// threshold is one pipeline pass over the corpus without validation.
func runE5(c *ctx) error {
	if err := c.ensureSuite(); err != nil {
		return err
	}
	thresholds := []float64{0.2, 0.4, 0.5, 0.7, 1.0, 1.4, 2.0, 3.0, 5.0}
	fmt.Fprintf(c.out, "%-10s %12s %12s %12s\n", "threshold", "mean err", "efficiency", "outliers")
	for _, th := range thresholds {
		opt := core.DefaultOptions()
		opt.Subset.Method.Threshold = th
		opt.ValidationClocks = nil
		opt.Workers = c.workers
		s, err := core.New(opt)
		if err != nil {
			return err
		}
		sr, err := s.RunSuite(c.suite)
		if err != nil {
			return err
		}
		marker := ""
		if th == core.DefaultOptions().Subset.Method.Threshold {
			marker = "   <- default operating point"
		}
		fmt.Fprintf(c.out, "%-10.1f %11.2f%% %11.1f%% %11.2f%%%s\n",
			th, sr.MeanError*100, sr.MeanEfficiency*100, sr.OutlierRate*100, marker)
	}
	return nil
}
