package main

import (
	"fmt"

	"repro/internal/charz"
	"repro/internal/gpu"
)

// runE17 prints the workload characterization of the corpus on the
// base configuration — the descriptive "where does time go" picture
// that frames all the subsetting results.
func runE17(c *ctx) error {
	if err := c.ensureSuite(); err != nil {
		return err
	}
	for _, w := range c.suite {
		sim, err := gpu.NewSimulator(gpu.BaseConfig(), w)
		if err != nil {
			return err
		}
		charz.Characterize(sim, w).Render(c.out)
		fmt.Fprintln(c.out)
	}
	return nil
}
