package core

import (
	"math"
	"testing"

	"repro/internal/trace"
)

func suiteGames(t *testing.T) []*trace.Workload {
	t.Helper()
	// Two small distinct games from the existing fixture helper plus a
	// renamed copy with a different seed.
	a := coreGame(t)
	b := coreGame(t)
	b.Name = "coretest2"
	return []*trace.Workload{a, b}
}

func TestRunSuiteAggregates(t *testing.T) {
	opt := DefaultOptions()
	opt.ValidationClocks = []float64{0.5, 1.0}
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ws := suiteGames(t)
	sr, err := s.RunSuite(ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Reports) != 2 {
		t.Fatalf("reports = %d", len(sr.Reports))
	}
	if wantFrames := ws[0].NumFrames() + ws[1].NumFrames(); sr.TotalFrames != wantFrames {
		t.Errorf("total frames %d, want %d", sr.TotalFrames, wantFrames)
	}
	if math.IsNaN(sr.MeanError) || sr.MeanError > 0.1 {
		t.Errorf("mean error = %v", sr.MeanError)
	}
	// Aggregation arithmetic: mean of per-report values.
	want := (sr.Reports[0].Clustering.MeanError + sr.Reports[1].Clustering.MeanError) / 2
	if math.Abs(sr.MeanError-want) > 1e-12 {
		t.Errorf("mean error %v != report mean %v", sr.MeanError, want)
	}
}

func TestRunSuiteSkippedEval(t *testing.T) {
	opt := DefaultOptions()
	opt.SkipClusteringEval = true
	opt.ValidationClocks = nil
	s, _ := New(opt)
	sr, err := s.RunSuite(suiteGames(t))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(sr.MeanError) || !math.IsNaN(sr.MeanEfficiency) || !math.IsNaN(sr.OutlierRate) {
		t.Error("skipped metrics should be NaN")
	}
	if len(sr.Reports) != 2 {
		t.Errorf("reports = %d", len(sr.Reports))
	}
}

func TestRunSuiteEmpty(t *testing.T) {
	s, _ := New(DefaultOptions())
	if _, err := s.RunSuite(nil); err == nil {
		t.Error("empty suite accepted")
	}
}
