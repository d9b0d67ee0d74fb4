// Package repro reproduces "3D Workload Subsetting for GPU
// Architecture Pathfinding" (V. George, IISWC 2015) as a Go library.
//
// The implementation lives under internal/: internal/core is the
// end-to-end subsetting pipeline, internal/gpu the performance-model
// substrate, internal/synth the synthetic game-trace generator, and
// internal/{features,cluster,phase,subset,metrics,sweep} the
// methodology stages. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results. The cmd/experiments
// binary regenerates every experiment on the full 717-frame corpus;
// its BenchmarkExperiments runs each at reduced scale, and its
// TestPaperClaims gates the paper's headline numbers.
package repro
