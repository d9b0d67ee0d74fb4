package main

import (
	"fmt"

	"repro/internal/dcmath"
	"repro/internal/features"
	"repro/internal/linalg"
	"repro/internal/report"
)

// runE22 analyzes the feature space itself: the eigen-spectrum of the
// per-frame feature covariance and the effective dimensionality
// (components needed for 95% of variance). This explains the E15 PCA
// result — why 12 components are nearly free and 4 destroy the
// structure — and the drop-one redundancy seen in E10.
func runE22(c *ctx) error {
	if err := c.ensureSuite(); err != nil {
		return err
	}
	const frameStride = 32
	tab := report.New("feature-space spectrum (z-scored, per-frame average)",
		"workload", "dims@80%", "dims@95%", "dims@99%", "top-1 share")
	for _, w := range c.suite {
		ex, err := features.NewExtractor(w)
		if err != nil {
			return err
		}
		var d80s, d95s, d99s, top1s []float64
		for fi := 0; fi < len(w.Frames); fi += frameStride {
			x := ex.Frame(&w.Frames[fi])
			var z linalg.ZScore
			z.Fit(x)
			for i := 0; i < x.Rows; i++ {
				z.Apply(x.Row(i))
			}
			pca, err := linalg.FitPCA(x, features.NumFeatures)
			if err != nil {
				return err
			}
			cum := 0.0
			d80, d95, d99 := 0, 0, 0
			for i, e := range pca.Explained {
				cum += e
				if d80 == 0 && cum >= 0.80 {
					d80 = i + 1
				}
				if d95 == 0 && cum >= 0.95 {
					d95 = i + 1
				}
				if d99 == 0 && cum >= 0.99 {
					d99 = i + 1
				}
			}
			if d99 == 0 {
				d99 = len(pca.Explained)
			}
			d80s = append(d80s, float64(d80))
			d95s = append(d95s, float64(d95))
			d99s = append(d99s, float64(d99))
			top1s = append(top1s, pca.Explained[0])
		}
		tab.AddRow(w.Name,
			fmt.Sprintf("%.1f", dcmath.Mean(d80s)),
			fmt.Sprintf("%.1f", dcmath.Mean(d95s)),
			fmt.Sprintf("%.1f", dcmath.Mean(d99s)),
			fmt.Sprintf("%.1f%%", dcmath.Mean(top1s)*100))
	}
	tab.AddNote("dims@p = principal components covering p of per-frame feature variance")
	tab.AddNote("(of %d features total); explains the E15 PCA trade-off.", features.NumFeatures)
	tab.Render(c.out)
	return nil
}
