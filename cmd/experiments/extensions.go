package main

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/dcmath"
	"repro/internal/features"
	"repro/internal/gpu"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/subset"
	"repro/internal/synth"
)

// runE13 measures what the context-free cost assumption costs: frames
// are re-priced with a texture cache shared across draws, and the
// clustering's representative-based prediction (whose reps are priced
// in isolation, as in production) is scored against the in-context
// frame cost.
func runE13(c *ctx) error {
	if err := c.ensureSuite(); err != nil {
		return err
	}
	const (
		frameStride = 16
		maxSamples  = 20000
	)
	fmt.Fprintf(c.out, "%-14s %14s %16s %14s %12s\n",
		"workload", "level gap", "err vs isolated", "per-draw r", "shared hit")
	for _, w := range c.suite {
		sim, err := gpu.NewSimulator(gpu.BaseConfig(), w)
		if err != nil {
			return err
		}
		fc, err := subset.NewFrameClusterer(w, subset.DefaultMethod())
		if err != nil {
			return err
		}
		var gaps, errIso, corrs, hits []float64
		for fi := 0; fi < len(w.Frames); fi += frameStride {
			f := &w.Frames[fi]
			det, err := sim.FrameDetailed(f, maxSamples)
			if err != nil {
				return err
			}
			gaps = append(gaps, math.Abs(det.TotalNs-det.ContextFreeNs)/det.ContextFreeNs)
			hits = append(hits, det.SharedHitRate)

			// Relative fidelity: do isolated per-draw costs rank/scale
			// like in-context ones?
			iso := make([]float64, len(f.Draws))
			for di := range f.Draws {
				iso[di] = sim.DrawNs(&f.Draws[di])
			}
			corrs = append(corrs, dcmath.Pearson(iso, det.DrawNs))

			cf, err := fc.ClusterFrame(f, fi)
			if err != nil {
				return err
			}
			pred := cf.PredictNs(sim, f) // reps priced in isolation
			errIso = append(errIso, math.Abs(pred-det.ContextFreeNs)/det.ContextFreeNs)
		}
		fmt.Fprintf(c.out, "%-14s %13.2f%% %15.2f%% %14.4f %11.1f%%\n", w.Name,
			dcmath.Mean(gaps)*100, dcmath.Mean(errIso)*100,
			dcmath.Mean(corrs), dcmath.Mean(hits)*100)
	}
	fmt.Fprintln(c.out, "level gap = |shared-cache frame cost - context-free cost| / context-free.")
	fmt.Fprintln(c.out, "The context-free oracle is systematically pessimistic about texture traffic")
	fmt.Fprintln(c.out, "(a draw never inherits a warm cache from its material siblings), but the")
	fmt.Fprintln(c.out, "per-draw correlation shows relative costs survive — which is what clustering")
	fmt.Fprintln(c.out, "weights and architecture-sweep comparisons actually consume. This is the")
	fmt.Fprintln(c.out, "quantified cost of the paper's per-draw (context-free) methodology.")
	return nil
}

// runE14 checks metric stability across corpus seeds: the headline
// numbers must be properties of the methodology, not of one lucky
// corpus draw.
func runE14(c *ctx) error {
	seeds := []uint64{1, 2, 3, 4, 5}
	const frameStride = 8
	fmt.Fprintf(c.out, "%-8s %12s %12s %12s\n", "seed", "mean err", "efficiency", "outliers")
	var errs, effs, outs []float64
	for _, seed := range seeds {
		var errSum, effSum float64
		clusters, outliers := 0, 0
		frames := 0
		suite, err := synth.BioshockSuite(seed, c.frames())
		if err != nil {
			return err
		}
		for _, w := range suite {
			sim, err := gpu.NewSimulator(gpu.BaseConfig(), w)
			if err != nil {
				return err
			}
			fc, err := subset.NewFrameClusterer(w, subset.DefaultMethod())
			if err != nil {
				return err
			}
			for fi := 0; fi < len(w.Frames); fi += frameStride {
				cf, err := fc.ClusterFrame(&w.Frames[fi], fi)
				if err != nil {
					return err
				}
				fr := metrics.EvaluateFrame(sim, &w.Frames[fi], &cf, metrics.DefaultOutlierThreshold)
				errSum += fr.RelError
				effSum += fr.Efficiency
				clusters += fr.Clusters
				outliers += fr.Outliers
				frames++
			}
		}
		e := errSum / float64(frames)
		f := effSum / float64(frames)
		o := float64(outliers) / float64(clusters)
		errs = append(errs, e)
		effs = append(effs, f)
		outs = append(outs, o)
		fmt.Fprintf(c.out, "%-8d %11.2f%% %11.1f%% %11.2f%%\n", seed, e*100, f*100, o*100)
	}
	fmt.Fprintf(c.out, "%-8s %11.2f%% %11.1f%% %11.2f%%  (std dev: %.2f / %.1f / %.2f pp)\n", "MEAN",
		dcmath.Mean(errs)*100, dcmath.Mean(effs)*100, dcmath.Mean(outs)*100,
		dcmath.StdDev(errs)*100, dcmath.StdDev(effs)*100, dcmath.StdDev(outs)*100)
	return nil
}

// runE15 ablates the dimensionality/cluster-count machinery: PCA
// feature reduction at several component counts, and BIC-selected
// k-means as an alternative to threshold-driven cluster counts.
func runE15(c *ctx) error {
	if err := c.ensureSuite(); err != nil {
		return err
	}
	fmt.Fprintln(c.out, "-- PCA feature reduction (leader clustering, default threshold) --")
	fmt.Fprintf(c.out, "%-12s %12s %12s\n", "components", "mean err", "efficiency")
	for _, k := range []int{0, 4, 8, 12} {
		m := subset.DefaultMethod()
		m.PCAComponents = k
		err, eff, evalErr := evalSampled(c, m, 16, -1)
		if evalErr != nil {
			return evalErr
		}
		label := fmt.Sprintf("%d", k)
		if k == 0 {
			label = fmt.Sprintf("off (%d)", features.NumFeatures)
		}
		fmt.Fprintf(c.out, "%-12s %11.2f%% %11.1f%%\n", label, err*100, eff*100)
	}

	fmt.Fprintln(c.out, "\n-- BIC-selected k-means vs threshold-driven counts (sample frames) --")
	fmt.Fprintf(c.out, "%-14s %10s %10s %12s %12s\n", "workload", "K/leader", "K/BIC", "err/leader", "err/BIC")
	for _, w := range c.suite {
		sim, err := gpu.NewSimulator(gpu.BaseConfig(), w)
		if err != nil {
			return err
		}
		fc, err := subset.NewFrameClusterer(w, subset.DefaultMethod())
		if err != nil {
			return err
		}
		ex, err := features.NewExtractor(w)
		if err != nil {
			return err
		}
		var kLead, kBIC, errLead, errBIC []float64
		for fi := 0; fi < len(w.Frames); fi += 64 {
			f := &w.Frames[fi]
			cf, err := fc.ClusterFrame(f, fi)
			if err != nil {
				return err
			}
			fr := metrics.EvaluateFrame(sim, f, &cf, metrics.DefaultOutlierThreshold)
			kLead = append(kLead, float64(cf.Result.K))
			errLead = append(errLead, fr.RelError)

			// BIC selection on z-scored features around the leader count.
			x := ex.Frame(f)
			var z linalg.ZScore
			z.Fit(x)
			for i := 0; i < x.Rows; i++ {
				z.Apply(x.Row(i))
			}
			lo := cf.Result.K / 2
			if lo < 1 {
				lo = 1
			}
			sel, err := cluster.SelectKByBIC(x, lo, cf.Result.K*2, dcmath.NewRNG(c.seed^uint64(fi)), 30)
			if err != nil {
				return err
			}
			bcf := subset.ClusteredFrame{
				FrameIndex: fi,
				Result:     sel.Result,
				RepDraws:   sel.Result.Medoids(x),
			}
			sizes := sel.Result.Sizes()
			bcf.Weights = make([]float64, sel.Result.K)
			for ci, sz := range sizes {
				bcf.Weights[ci] = float64(sz)
			}
			bfr := metrics.EvaluateFrame(sim, f, &bcf, metrics.DefaultOutlierThreshold)
			kBIC = append(kBIC, float64(sel.K))
			errBIC = append(errBIC, bfr.RelError)
		}
		fmt.Fprintf(c.out, "%-14s %10.0f %10.0f %11.2f%% %11.2f%%\n", w.Name,
			dcmath.Mean(kLead), dcmath.Mean(kBIC),
			dcmath.Mean(errLead)*100, dcmath.Mean(errBIC)*100)
	}
	return nil
}
