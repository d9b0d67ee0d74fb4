package main

import (
	"context"
	"fmt"

	"repro/internal/phase"
	"repro/internal/subset"
)

// runE6 prints the shader-vector phase timeline of every game.
func runE6(c *ctx) error {
	if err := c.ensureSuite(); err != nil {
		return err
	}
	opt := phase.DefaultOptions()
	for _, w := range c.suite {
		det, err := phase.DetectContext(context.Background(), w, opt, c.workers)
		if err != nil {
			return err
		}
		fmt.Printf("%-14s %d phases over %d intervals (interval = %d frames)\n",
			w.Name, det.NumPhases, len(det.Intervals), opt.IntervalFrames)
		fmt.Printf("  timeline  %s\n", det.Timeline())
		cov := det.Coverage()
		for p, n := range cov {
			rep := det.Intervals[det.Representatives[p]]
			fmt.Printf("  phase %c: %2d intervals, representative frames [%d, %d), scene %q\n",
				'A'+p%26, n, rep.Start, rep.End, w.Frames[rep.Start].Scene)
		}
	}
	fmt.Println("paper: phases exist in each game of the BioShock series")
	return nil
}

// runE7 prints subset sizes.
func runE7(c *ctx) error {
	if err := c.ensureSuite(); err != nil {
		return err
	}
	fmt.Printf("%-14s %10s %12s %12s %12s\n", "workload", "frames", "parent draws", "subset draws", "ratio")
	for _, w := range c.suite {
		s, err := subset.BuildContext(context.Background(), w, c.subsetOptions())
		if err != nil {
			return err
		}
		if err := s.Validate(); err != nil {
			return err
		}
		fmt.Printf("%-14s %10d %12d %12d %11.2f%%\n",
			w.Name, len(s.Frames), s.ParentDraws, s.NumDraws(), s.SizeRatio()*100)
	}
	fmt.Println("paper: subsets are less than one percent of the parent workload")
	return nil
}
