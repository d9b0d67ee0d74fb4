package main

import (
	"fmt"

	"repro/internal/core"
)

// runE6 prints the shader-vector phase timeline of every game.
func runE6(c *ctx) error {
	if err := c.ensureReports(); err != nil {
		return err
	}
	interval := core.DefaultOptions().Subset.Phase.IntervalFrames
	for _, r := range c.reports.Reports {
		det, w := r.Detection, r.Subset.Parent
		fmt.Fprintf(c.out, "%-14s %d phases over %d intervals (interval = %d frames)\n",
			w.Name, det.NumPhases, len(det.Intervals), interval)
		fmt.Fprintf(c.out, "  timeline  %s\n", det.Timeline())
		cov := det.Coverage()
		for p, n := range cov {
			rep := det.Intervals[det.Representatives[p]]
			fmt.Fprintf(c.out, "  phase %c: %2d intervals, representative frames [%d, %d), scene %q\n",
				'A'+p%26, n, rep.Start, rep.End, w.Frames[rep.Start].Scene)
		}
	}
	fmt.Fprintln(c.out, "paper: phases exist in each game of the BioShock series")
	return nil
}

// runE7 prints subset sizes.
func runE7(c *ctx) error {
	if err := c.ensureReports(); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%-14s %10s %12s %12s %12s\n", "workload", "frames", "parent draws", "subset draws", "ratio")
	for _, r := range c.reports.Reports {
		s := r.Subset
		fmt.Fprintf(c.out, "%-14s %10d %12d %12d %11.2f%%\n",
			s.Parent.Name, len(s.Frames), s.ParentDraws, s.NumDraws(), s.SizeRatio()*100)
	}
	fmt.Fprintln(c.out, "paper: subsets are less than one percent of the parent workload")
	return nil
}
