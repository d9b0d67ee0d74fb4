package main

import (
	"fmt"

	"repro/internal/dcmath"
	"repro/internal/features"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/subset"
)

// runE10 ablates the design choices of the clustering step:
// normalization policy, clustering algorithm, and feature groups
// (drop-one). Evaluated on a strided frame sample; agglomerative
// clustering additionally caps frames since it is O(n^2) per frame.
func runE10(c *ctx) error {
	if err := c.ensureSuite(); err != nil {
		return err
	}

	fmt.Fprintln(c.out, "-- normalization ablation (leader clustering, default threshold) --")
	fmt.Fprintf(c.out, "%-10s %12s %12s\n", "norm", "mean err", "efficiency")
	for _, norm := range []string{"zscore", "minmax", "none"} {
		m := subset.DefaultMethod()
		m.Normalizer = norm
		err, eff, evalErr := evalSampled(c, m, 8, -1)
		if evalErr != nil {
			return evalErr
		}
		fmt.Fprintf(c.out, "%-10s %11.2f%% %11.1f%%\n", norm, err*100, eff*100)
	}

	fmt.Fprintln(c.out, "\n-- algorithm ablation (equal cluster counts) --")
	fmt.Fprintf(c.out, "%-14s %12s %12s\n", "algorithm", "mean err", "efficiency")
	algoArms := []struct {
		name string
		m    subset.Method
		cap  int // max frames per game; -1 = stride default
	}{
		{"leader", subset.DefaultMethod(), -1},
		{"kmeans", func() subset.Method {
			m := subset.DefaultMethod()
			m.Algo = subset.AlgoKMeans
			m.K = 0 // derive from leader at same threshold
			m.Seed = c.seed
			return m
		}(), -1},
		{"agglomerative", func() subset.Method {
			m := subset.DefaultMethod()
			m.Algo = subset.AlgoAgglomerative
			return m
		}(), 2},
	}
	for _, arm := range algoArms {
		err, eff, evalErr := evalSampled(c, arm.m, 48, arm.cap)
		if evalErr != nil {
			return evalErr
		}
		fmt.Fprintf(c.out, "%-14s %11.2f%% %11.1f%%\n", arm.name, err*100, eff*100)
	}

	fmt.Fprintln(c.out, "\n-- feature-group drop-one ablation --")
	fmt.Fprintf(c.out, "%-16s %12s %12s\n", "dropped group", "mean err", "efficiency")
	all := features.GroupNames()
	base := subset.DefaultMethod()
	err, eff, evalErr := evalSampled(c, base, 16, -1)
	if evalErr != nil {
		return evalErr
	}
	fmt.Fprintf(c.out, "%-16s %11.2f%% %11.1f%%\n", "(none)", err*100, eff*100)
	for _, drop := range all {
		var keep []string
		for _, g := range all {
			if g != drop {
				keep = append(keep, g)
			}
		}
		m := subset.DefaultMethod()
		m.FeatureGroups = keep
		err, eff, evalErr := evalSampled(c, m, 16, -1)
		if evalErr != nil {
			return evalErr
		}
		fmt.Fprintf(c.out, "%-16s %11.2f%% %11.1f%%\n", drop, err*100, eff*100)
	}
	return nil
}

// evalSampled evaluates a method over every stride-th frame of each
// game (or the first maxFrames frames when maxFrames >= 0) and returns
// corpus-mean error and efficiency.
func evalSampled(c *ctx, m subset.Method, stride, maxFrames int) (meanErr, meanEff float64, err error) {
	var errs, effs []float64
	for _, w := range c.suite {
		sim, e := gpu.NewSimulator(gpu.BaseConfig(), w)
		if e != nil {
			return 0, 0, e
		}
		fc, e := subset.NewFrameClusterer(w, m)
		if e != nil {
			return 0, 0, e
		}
		count := 0
		for fi := 0; fi < len(w.Frames); fi += stride {
			if maxFrames >= 0 && count >= maxFrames {
				break
			}
			count++
			f := &w.Frames[fi]
			cf, e := fc.ClusterFrame(f, fi)
			if e != nil {
				return 0, 0, e
			}
			fr := metrics.EvaluateFrame(sim, f, &cf, metrics.DefaultOutlierThreshold)
			errs = append(errs, fr.RelError)
			effs = append(effs, fr.Efficiency)
		}
	}
	return dcmath.Mean(errs), dcmath.Mean(effs), nil
}

// Interface assertion: gpu.Simulator is the CostOracle everywhere.
var _ subset.CostOracle = (*gpu.Simulator)(nil)
