package core

import (
	"fmt"
	"math"

	"repro/internal/dcmath"
	"repro/internal/trace"
)

// SuiteReport aggregates pipeline runs over a workload corpus the way
// the paper reports corpus-level numbers (averages over games).
type SuiteReport struct {
	Reports []*Report

	TotalFrames int

	// Corpus means of the headline metrics. NaN when clustering
	// evaluation was skipped.
	MeanError      float64
	MeanEfficiency float64
	OutlierRate    float64
}

// RunSuite executes the pipeline on every workload and aggregates.
func (s *Subsetter) RunSuite(ws []*trace.Workload) (*SuiteReport, error) {
	if len(ws) == 0 {
		return nil, fmt.Errorf("core: RunSuite with no workloads")
	}
	sr := &SuiteReport{MeanError: math.NaN(), MeanEfficiency: math.NaN(), OutlierRate: math.NaN()}
	var errs, effs, outs []float64
	for _, w := range ws {
		rep, err := s.Run(w)
		if err != nil {
			return nil, fmt.Errorf("core: suite workload %q: %w", w.Name, err)
		}
		sr.Reports = append(sr.Reports, rep)
		sr.TotalFrames += rep.Summary.Frames
		if rep.Clustering != nil {
			errs = append(errs, rep.Clustering.MeanError)
			effs = append(effs, rep.Clustering.MeanEfficiency)
			outs = append(outs, rep.Clustering.OutlierRate)
		}
	}
	if len(errs) > 0 {
		sr.MeanError = dcmath.Mean(errs)
		sr.MeanEfficiency = dcmath.Mean(effs)
		sr.OutlierRate = dcmath.Mean(outs)
	}
	return sr, nil
}
