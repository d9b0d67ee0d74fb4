package main

import (
	"context"
	"fmt"

	"repro/internal/dcmath"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/subset"
)

// runE5 sweeps the leader threshold and prints the error/efficiency
// trade-off curve the default operating point was chosen from.
func runE5(c *ctx) error {
	if err := c.ensureSuite(); err != nil {
		return err
	}
	thresholds := []float64{0.2, 0.4, 0.7, 1.0, 1.4, 2.0, 3.0, 5.0}
	fmt.Printf("%-10s %12s %12s %12s\n", "threshold", "mean err", "efficiency", "outliers")
	for _, th := range thresholds {
		var errs, effs, outs []float64
		for _, w := range c.suite {
			sim, err := gpu.NewSimulator(gpu.BaseConfig(), w)
			if err != nil {
				return err
			}
			m := subset.DefaultMethod()
			m.Threshold = th
			fc, err := subset.NewFrameClusterer(w, m)
			if err != nil {
				return err
			}
			rep, err := metrics.EvaluateWorkloadContext(context.Background(), sim, w, fc, metrics.DefaultOutlierThreshold, c.workers)
			if err != nil {
				return err
			}
			errs = append(errs, rep.MeanError)
			effs = append(effs, rep.MeanEfficiency)
			outs = append(outs, rep.OutlierRate)
		}
		marker := ""
		if th == subset.DefaultMethod().Threshold {
			marker = "   <- default operating point"
		}
		fmt.Printf("%-10.1f %11.2f%% %11.1f%% %11.2f%%%s\n",
			th, dcmath.Mean(errs)*100, dcmath.Mean(effs)*100, dcmath.Mean(outs)*100, marker)
	}
	return nil
}
