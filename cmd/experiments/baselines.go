package main

import (
	"fmt"

	"repro/internal/dcmath"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/subset"
)

// runE9 compares clustering against naive samplers at equal
// simulated-draw budget: for every evaluated frame, each baseline may
// simulate exactly as many draws as the clustering kept clusters.
func runE9(c *ctx) error {
	if err := c.ensureSuite(); err != nil {
		return err
	}
	const frameStride = 8 // evaluate every 8th frame; errors are i.i.d. across frames
	rng := dcmath.NewRNG(c.seed ^ 0xe9)
	fmt.Fprintf(c.out, "%-14s %12s %12s %12s %12s\n", "workload", "clustering", "random", "uniform", "first-N")
	var cAll, rAll, uAll, fAll []float64
	for _, w := range c.suite {
		sim, err := gpu.NewSimulator(gpu.BaseConfig(), w)
		if err != nil {
			return err
		}
		fc, err := subset.NewFrameClusterer(w, subset.DefaultMethod())
		if err != nil {
			return err
		}
		var cErr, rErr, uErr, fErr []float64
		for fi := 0; fi < len(w.Frames); fi += frameStride {
			f := &w.Frames[fi]
			cf, err := fc.ClusterFrame(f, fi)
			if err != nil {
				return err
			}
			budget := cf.Result.K
			cs := cf.Sample()
			cErr = append(cErr, metrics.SampleError(sim, f, &cs))
			rs, err := subset.RandomSample(f, budget, rng)
			if err != nil {
				return err
			}
			rErr = append(rErr, metrics.SampleError(sim, f, &rs))
			us, err := subset.UniformSample(f, budget)
			if err != nil {
				return err
			}
			uErr = append(uErr, metrics.SampleError(sim, f, &us))
			fs, err := subset.FirstNSample(f, budget)
			if err != nil {
				return err
			}
			fErr = append(fErr, metrics.SampleError(sim, f, &fs))
		}
		fmt.Fprintf(c.out, "%-14s %11.2f%% %11.2f%% %11.2f%% %11.2f%%\n", w.Name,
			dcmath.Mean(cErr)*100, dcmath.Mean(rErr)*100, dcmath.Mean(uErr)*100, dcmath.Mean(fErr)*100)
		cAll = append(cAll, cErr...)
		rAll = append(rAll, rErr...)
		uAll = append(uAll, uErr...)
		fAll = append(fAll, fErr...)
	}
	fmt.Fprintf(c.out, "%-14s %11.2f%% %11.2f%% %11.2f%% %11.2f%%\n", "AVERAGE",
		dcmath.Mean(cAll)*100, dcmath.Mean(rAll)*100, dcmath.Mean(uAll)*100, dcmath.Mean(fAll)*100)
	fmt.Fprintln(c.out, "(all methods simulate the same number of draws per frame)")
	return nil
}
