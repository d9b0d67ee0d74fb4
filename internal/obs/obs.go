// Package obs is the pipeline's observability layer: a leveled
// structured logger, a span tracer that records where a run spends its
// time, a registry of race-safe counters/gauges/histograms, and a run
// manifest that exports all of it as one JSON document.
//
// The package is dependency-light (standard library only) and built
// around one invariant: observability must never change results. Every
// entry point is nil-safe — a nil *Run, *Span, *Logger, *Registry,
// *Counter, *Gauge or *Histogram is a no-op — so library code
// instruments unconditionally and pays nothing (no allocation, no
// branch beyond a nil check) when no observer is attached. Timings,
// occupancy and metric values live only in the obs structures and the
// manifest; they must never be copied into deterministic pipeline
// output such as core.Report (a determinism test in internal/core
// guards this).
//
// Typical CLI use:
//
//	run := obs.NewRun("subset3d")
//	run.Log = obs.NewLogger(os.Stderr, obs.LevelInfo)
//	ctx = run.Context(ctx)
//	... pipeline stages call obs.StartSpan(ctx, "stage") ...
//	m := run.Finish()
//	m.WriteFile("run.json")
package obs

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// Run is the observability handle for one tool invocation: the root of
// the span tree, the metrics registry, the logger, and the run-level
// facts (workers, diagnostics, input/output files) the manifest
// exports. All methods are safe on a nil receiver and safe for
// concurrent use.
type Run struct {
	// Log receives structured log lines. May be nil (silent).
	Log *Logger

	tool    string
	start   time.Time
	metrics *Registry
	root    *Span

	mu      sync.Mutex
	workers int
	diag    map[string]int64
	files   []FileDigest
}

// NewRun starts a run for the named tool, with a live metrics registry
// and an open root span.
func NewRun(tool string) *Run {
	r := &Run{
		tool:    tool,
		start:   time.Now(),
		metrics: NewRegistry(),
	}
	r.root = newSpan(r, tool)
	return r
}

// Logger returns r.Log through a nil-safe accessor: library code must
// use this (not the field) because its *Run is often nil by design.
func (r *Run) Logger() *Logger {
	if r == nil {
		return nil
	}
	return r.Log
}

// Metrics returns the run's registry (nil on a nil run, which makes
// every lookup and update downstream a no-op).
func (r *Run) Metrics() *Registry {
	if r == nil {
		return nil
	}
	return r.metrics
}

// Root returns the run's root span.
func (r *Run) Root() *Span {
	if r == nil {
		return nil
	}
	return r.root
}

// SetWorkers records the run's configured worker bound for the
// manifest.
func (r *Run) SetWorkers(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.workers = n
	r.mu.Unlock()
}

// RecordDiagnostics merges degradation accounting (e.g.
// traceerr.Diagnostics.Map()) into the run's diagnostics totals and
// mirrors each class into an "ingest."-prefixed counter, so the same
// numbers are reachable through the manifest's diagnostics section and
// the metrics snapshot alike. Zero-valued entries are kept so the
// manifest names every tracked class even on clean runs.
func (r *Run) RecordDiagnostics(m map[string]int64) {
	if r == nil || m == nil {
		return
	}
	r.mu.Lock()
	if r.diag == nil {
		r.diag = make(map[string]int64, len(m))
	}
	for k, v := range m {
		r.diag[k] += v
	}
	r.mu.Unlock()
	for k, v := range m {
		r.metrics.Counter("ingest." + k).Add(v)
	}
}

// RecordFile names an input or output file for the manifest. Only the
// role and path are recorded here: WriteManifest hashes the file when
// it writes a manifest, so a run without one never reads it again.
func (r *Run) RecordFile(role, path string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.files = append(r.files, FileDigest{Role: role, Path: path})
	r.mu.Unlock()
}

// Context returns ctx carrying the run and its root span, which is how
// pipeline stages discover the observer: obs.StartSpan nests under the
// innermost span in the context, obs.RunFromContext reaches the
// metrics registry and logger.
func (r *Run) Context(ctx context.Context) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(context.WithValue(ctx, runKey{}, r), spanKey{}, r.root)
}

// Finish ends the root span and assembles the manifest. It may be
// called once, at the end of the run; a nil run yields a nil manifest.
func (r *Run) Finish() *Manifest {
	if r == nil {
		return nil
	}
	r.root.End()
	r.mu.Lock()
	defer r.mu.Unlock()
	diag := make(map[string]int64, len(r.diag))
	for k, v := range r.diag {
		diag[k] = v
	}
	return &Manifest{
		SchemaVersion: ManifestSchemaVersion,
		Tool:          r.tool,
		Start:         r.start,
		DurationNs:    r.root.DurationNs(),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Workers:       r.workers,
		Stages:        r.root.childManifests(),
		Metrics:       r.metrics.Snapshot(),
		Diagnostics:   diag,
		Files:         append([]FileDigest(nil), r.files...),
	}
}

// runKey/spanKey are the context keys for the run and the current span.
type (
	runKey  struct{}
	spanKey struct{}
)

// RunFromContext returns the run installed by Run.Context, or nil.
func RunFromContext(ctx context.Context) *Run {
	r, _ := ctx.Value(runKey{}).(*Run)
	return r
}

// SpanFromContext returns the innermost span in ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// ContextWithSpan returns ctx with sp installed as the innermost span.
// Installing a nil span detaches span recording below this point while
// leaving the run (metrics, logger) reachable — how a long-running
// server attaches its Run to every request without growing one span
// subtree per request forever. Library code below sees StartSpan
// return nil spans (no-ops) but still feeds counters and histograms.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// StartSpan opens a child of the context's current span and returns a
// context carrying it. When no observer is attached the original
// context and a nil span come back with zero allocations — the no-op
// fast path library code rides by default.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.Child(name)
	return context.WithValue(ctx, spanKey{}, sp), sp
}
