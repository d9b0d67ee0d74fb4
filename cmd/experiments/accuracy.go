package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/dcmath"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/subset"
	"repro/internal/trace"
)

// gameEval caches one game's clustering evaluation, shared by E2-E4.
type gameEval struct {
	w   *trace.Workload
	rep metrics.WorkloadReport
}

func (c *ctx) ensureEvals() error {
	if c.evals != nil {
		return nil
	}
	if err := c.ensureSuite(); err != nil {
		return err
	}
	for _, w := range c.suite {
		sim, err := gpu.NewSimulator(gpu.BaseConfig(), w)
		if err != nil {
			return err
		}
		fc, err := subset.NewFrameClusterer(w, subset.DefaultMethod())
		if err != nil {
			return err
		}
		rep, err := metrics.EvaluateWorkloadContext(context.Background(), sim, w, fc, metrics.DefaultOutlierThreshold, c.workers)
		if err != nil {
			return err
		}
		c.evals = append(c.evals, gameEval{w: w, rep: rep})
	}
	return nil
}

// runE1 prints the corpus summary table.
func runE1(c *ctx) error {
	if err := c.ensureSuite(); err != nil {
		return err
	}
	trace.WriteTable(os.Stdout, c.suite)
	total := 0
	for _, w := range c.suite {
		total += w.NumDraws()
	}
	fmt.Printf("paper corpus: 717 frames, ~828K draw calls; generated: %d draws\n", total)
	return nil
}

// runE2 prints per-game and average per-frame prediction error.
func runE2(c *ctx) error {
	if err := c.ensureEvals(); err != nil {
		return err
	}
	fmt.Printf("%-14s %12s %12s %12s\n", "workload", "mean err", "median err", "max err")
	var means []float64
	for _, ge := range c.evals {
		perFrame := make([]float64, len(ge.rep.Frames))
		for i, fr := range ge.rep.Frames {
			perFrame[i] = fr.RelError
		}
		fmt.Printf("%-14s %11.2f%% %11.2f%% %11.2f%%\n", ge.rep.Name,
			ge.rep.MeanError*100, dcmath.Median(perFrame)*100, ge.rep.MaxError*100)
		means = append(means, ge.rep.MeanError)
	}
	fmt.Printf("%-14s %11.2f%%   (paper: 1.0%%)\n", "AVERAGE", dcmath.Mean(means)*100)
	return nil
}

// runE3 prints per-game and average clustering efficiency.
func runE3(c *ctx) error {
	if err := c.ensureEvals(); err != nil {
		return err
	}
	fmt.Printf("%-14s %12s %12s %14s\n", "workload", "efficiency", "clusters", "draws/frame")
	var effs []float64
	for _, ge := range c.evals {
		frames := float64(len(ge.rep.Frames))
		fmt.Printf("%-14s %11.1f%% %12.1f %14.1f\n", ge.rep.Name,
			ge.rep.MeanEfficiency*100,
			float64(ge.rep.TotalClusters)/frames,
			float64(ge.rep.TotalDraws)/frames)
		effs = append(effs, ge.rep.MeanEfficiency)
	}
	fmt.Printf("%-14s %11.1f%%   (paper: 65.8%%)\n", "AVERAGE", dcmath.Mean(effs)*100)
	return nil
}

// runE4 prints cluster outlier rates and an error histogram.
func runE4(c *ctx) error {
	if err := c.ensureEvals(); err != nil {
		return err
	}
	fmt.Printf("%-14s %12s %12s %12s\n", "workload", "outliers", "clusters", "outlier rate")
	var rates []float64
	hist := dcmath.NewHistogram(0, 0.5, 10)
	for _, ge := range c.evals {
		fmt.Printf("%-14s %12d %12d %11.2f%%\n", ge.rep.Name,
			ge.rep.TotalOutliers, ge.rep.TotalClusters, ge.rep.OutlierRate*100)
		rates = append(rates, ge.rep.OutlierRate)
		for _, fr := range ge.rep.Frames {
			for _, e := range fr.ClusterErrors {
				hist.Add(e)
			}
		}
	}
	fmt.Printf("%-14s %36.2f%%   (paper: 3.0%%)\n", "AVERAGE", dcmath.Mean(rates)*100)
	fmt.Println("\nintra-cluster error distribution (all clusters):")
	fmt.Print(hist.Render(50))
	return nil
}
