package main

import (
	"io"
	"math"
	"runtime"
	"testing"
)

// TestPaperClaims gates the paper's headline results (PAPER.md §1) on
// the full corpus: the suite pass E2-E8 print from must keep each
// claim inside its band. A band is the paper's number with a tolerance
// of three times E14's standard deviation across corpus seeds (0.22,
// 0.4 and 0.11 pp). At -short scale subsets read 1.9-2.9% of their
// parents, so the gate needs the full 717 frames.
func TestPaperClaims(t *testing.T) {
	c := &ctx{seed: paperSeed, workers: runtime.GOMAXPROCS(0), out: io.Discard}
	if err := c.ensureReports(); err != nil {
		t.Fatal(err)
	}
	sr := c.reports
	if sr.TotalFrames != 717 {
		t.Fatalf("corpus has %d frames, want the paper's 717", sr.TotalFrames)
	}
	for _, m := range []struct {
		id, claim         string
		got, paper, width float64 // percent, percent, percentage points
	}{
		{"E2", "mean prediction error", sr.MeanError * 100, 1.0, 0.66},
		{"E3", "mean clustering efficiency", sr.MeanEfficiency * 100, 65.8, 1.2},
		{"E4", "outlier rate", sr.OutlierRate * 100, 3.0, 0.33},
	} {
		t.Logf("%s %s: %.2f%% (band %.1f%% ± %.2f pp)", m.id, m.claim, m.got, m.paper, m.width)
		if !(math.Abs(m.got-m.paper) <= m.width) {
			t.Errorf("%s %s: measured %.2f%%, outside the band %.1f%% ± %.2f pp", m.id, m.claim, m.got, m.paper, m.width)
		}
	}
	for _, r := range sr.Reports {
		name, det := r.Summary.Name, r.Detection
		t.Logf("%s: E6 %d phases over %d intervals, E7 subset %.2f%% of parent, E8 pearson r %.5f",
			name, det.NumPhases, len(det.Intervals), r.SizeRatio*100, r.Validation.Correlation)
		if det.NumPhases < 2 || det.NumPhases >= len(det.Intervals) {
			t.Errorf("E6 %s: measured %d phases over %d intervals, band: >= 2 and fewer than its intervals",
				name, det.NumPhases, len(det.Intervals))
		}
		if !(r.SizeRatio < 0.01) {
			t.Errorf("E7 %s: measured subset %.2f%% of its parent, band: < 1%%", name, r.SizeRatio*100)
		}
		if !r.Validated || !(r.Validation.Correlation >= 0.997) {
			t.Errorf("E8 %s: measured pearson r %.5f (validated %v), band: >= 0.997",
				name, r.Validation.Correlation, r.Validated)
		}
	}
}

// BenchmarkExperiments runs every registry entry at the -short scale
// (48 frames per game) on a fresh ctx per iteration, so each
// sub-benchmark times everything its experiment needs: the corpus and,
// for the experiments that read it, the shared suite pass.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments {
		b.Run(e.id, func(b *testing.B) {
			for range b.N {
				c := &ctx{seed: paperSeed, short: true, workers: runtime.GOMAXPROCS(0), out: io.Discard}
				if err := e.run(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
