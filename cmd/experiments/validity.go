package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dcmath"
	"repro/internal/report"
	"repro/internal/subset"
)

// runE21 scores the clustering against the generator's ground truth:
// does feature clustering rediscover the engine's material structure?
// MaterialID is capture metadata the algorithms never see; Adjusted
// Rand Index and purity measure the alignment.
func runE21(c *ctx) error {
	if err := c.ensureSuite(); err != nil {
		return err
	}
	const frameStride = 8
	tab := report.New("clustering vs engine material ground truth",
		"workload", "ARI", "purity", "clusters/materials")
	for _, w := range c.suite {
		fc, err := subset.NewFrameClusterer(w, subset.DefaultMethod())
		if err != nil {
			return err
		}
		var aris, purs, ratio []float64
		for fi := 0; fi < len(w.Frames); fi += frameStride {
			f := &w.Frames[fi]
			cf, err := fc.ClusterFrame(f, fi)
			if err != nil {
				return err
			}
			labels := make([]int, len(f.Draws))
			mats := map[uint32]bool{}
			for di := range f.Draws {
				labels[di] = int(f.Draws[di].MaterialID)
				mats[f.Draws[di].MaterialID] = true
			}
			ari, err := cluster.AdjustedRandIndex(cf.Result.Assign, labels)
			if err != nil {
				return err
			}
			pur, err := cluster.Purity(cf.Result.Assign, labels)
			if err != nil {
				return err
			}
			aris = append(aris, ari)
			purs = append(purs, pur)
			ratio = append(ratio, float64(cf.Result.K)/float64(len(mats)))
		}
		tab.AddRow(w.Name,
			fmt.Sprintf("%.3f", dcmath.Mean(aris)),
			fmt.Sprintf("%.3f", dcmath.Mean(purs)),
			fmt.Sprintf("%.2f", dcmath.Mean(ratio)))
	}
	tab.AddNote("MaterialID is metadata the clustering never reads; high ARI/purity means")
	tab.AddNote("MAI features alone recover the engine's batching structure.")
	tab.Render(c.out)
	return nil
}
