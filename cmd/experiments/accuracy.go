package main

import (
	"fmt"

	"repro/internal/dcmath"
	"repro/internal/trace"
)

// runE1 prints the corpus summary table.
func runE1(c *ctx) error {
	if err := c.ensureSuite(); err != nil {
		return err
	}
	trace.WriteTable(c.out, c.suite)
	total := 0
	for _, w := range c.suite {
		total += w.NumDraws()
	}
	fmt.Fprintf(c.out, "paper corpus: 717 frames, ~828K draw calls; generated: %d draws\n", total)
	return nil
}

// runE2 prints per-game and average per-frame prediction error.
func runE2(c *ctx) error {
	if err := c.ensureReports(); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%-14s %12s %12s %12s\n", "workload", "mean err", "median err", "max err")
	for _, r := range c.reports.Reports {
		cl := r.Clustering
		perFrame := make([]float64, len(cl.Frames))
		for i, fr := range cl.Frames {
			perFrame[i] = fr.RelError
		}
		fmt.Fprintf(c.out, "%-14s %11.2f%% %11.2f%% %11.2f%%\n", cl.Name,
			cl.MeanError*100, dcmath.Median(perFrame)*100, cl.MaxError*100)
	}
	fmt.Fprintf(c.out, "%-14s %11.2f%%   (paper: 1.0%%)\n", "AVERAGE", c.reports.MeanError*100)
	return nil
}

// runE3 prints per-game and average clustering efficiency.
func runE3(c *ctx) error {
	if err := c.ensureReports(); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%-14s %12s %12s %14s\n", "workload", "efficiency", "clusters", "draws/frame")
	for _, r := range c.reports.Reports {
		cl := r.Clustering
		frames := float64(len(cl.Frames))
		fmt.Fprintf(c.out, "%-14s %11.1f%% %12.1f %14.1f\n", cl.Name,
			cl.MeanEfficiency*100,
			float64(cl.TotalClusters)/frames,
			float64(cl.TotalDraws)/frames)
	}
	fmt.Fprintf(c.out, "%-14s %11.1f%%   (paper: 65.8%%)\n", "AVERAGE", c.reports.MeanEfficiency*100)
	return nil
}

// runE4 prints cluster outlier rates and an error histogram.
func runE4(c *ctx) error {
	if err := c.ensureReports(); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%-14s %12s %12s %12s\n", "workload", "outliers", "clusters", "outlier rate")
	hist := dcmath.NewHistogram(0, 0.5, 10)
	for _, r := range c.reports.Reports {
		cl := r.Clustering
		fmt.Fprintf(c.out, "%-14s %12d %12d %11.2f%%\n", cl.Name,
			cl.TotalOutliers, cl.TotalClusters, cl.OutlierRate*100)
		for _, fr := range cl.Frames {
			for _, e := range fr.ClusterErrors {
				hist.Add(e)
			}
		}
	}
	fmt.Fprintf(c.out, "%-14s %36.2f%%   (paper: 3.0%%)\n", "AVERAGE", c.reports.OutlierRate*100)
	fmt.Fprintln(c.out, "\nintra-cluster error distribution (all clusters):")
	fmt.Fprint(c.out, hist.Render(50))
	return nil
}
