package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// sample is one timed unit: a pipeline pass, a grid or fleet sweep, or
// one serve request.
type sample struct {
	dur    time.Duration
	items  int64  // work completed by the unit (draws, draw×configs, requests)
	class  string // serve request class; empty elsewhere
	traced bool

	// Process CPU, Go allocation and GC cycles over the unit, measured
	// when units run one at a time.
	cpu     time.Duration
	allocMB float64
	gcs     float64
}

// recorder collects samples and counts every attempted operation —
// timed units, reference computations and checks — against the ones
// that failed or returned a mismatched output.
type recorder struct {
	mu         sync.Mutex
	samples    []sample
	sequential bool // units ran one at a time, through loop
	attempted  int64
	failed     int64
	firstErr   error
}

// add records one timed unit.
func (r *recorder) add(s sample, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, s)
	r.note(err)
}

// op counts one untimed operation (a reference computation, a check
// outside the timed loop).
func (r *recorder) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.note(err)
}

func (r *recorder) note(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

// column returns get(s) for every sample keep selects.
func (r *recorder) column(keep func(sample) bool, get func(sample) float64) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.samples {
		if keep(s) {
			out = append(out, get(s))
		}
	}
	return out
}

// durations returns the wall times in milliseconds of the samples keep
// selects.
func (r *recorder) durations(keep func(sample) bool) []float64 {
	return r.column(keep, func(s sample) float64 { return ms(s.dur) })
}

// totals returns the unit count and items of every sample.
func (r *recorder) totals() (units, items int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.samples {
		units++
		items += s.items
	}
	return units, items
}

func untraced(s sample) bool { return !s.traced }
func traced(s sample) bool   { return s.traced }
func anySample(sample) bool  { return true }

// unitFunc runs one timed unit. It returns the items the unit
// completed and a check of its output, which the loop runs after the
// unit's clock stops. tr is nil on untraced units.
type unitFunc func(ctx context.Context, tr *tracer, traceID string) (items int64, check func() error, err error)

// loop runs units one at a time until the deadline passes, and at least
// one of each kind. Each unit starts on a collected heap, so none pays
// for an earlier unit's garbage; the collection is not timed. On a
// traced run every second unit is traced, so the two kinds interleave
// under the same host conditions and their difference is the tracing
// overhead.
func loop(ctx context.Context, deadline time.Time, rec *recorder, tr *tracer, prefix string, unit unitFunc) error {
	rec.sequential = true
	minUnits := 1
	if tr != nil {
		minUnits = 2
	}
	for i := 0; i < minUnits || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		var utr *tracer
		id := ""
		if tr != nil && i%2 == 1 {
			utr = tr
			id = fmt.Sprintf("%s-%d", prefix, i)
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0, t0 := processCPU(), time.Now()
		items, check, err := unit(ctx, utr, id)
		dur, cpu := time.Since(t0), processCPU()-c0
		runtime.ReadMemStats(&m1)
		if err == nil && check != nil {
			err = check()
		}
		rec.add(sample{
			dur: dur, items: items, traced: utr != nil,
			cpu:     cpu,
			allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
			gcs:     float64(m1.NumGC - m0.NumGC),
		}, err)
	}
	return nil
}

// window measures process CPU, wall time and Go allocation over a
// stretch of the run.
type window struct {
	wall0  time.Time
	cpu0   time.Duration
	alloc0 uint64
	gc0    uint32

	wall, cpu time.Duration
	allocMB   float64
	gcs       float64
}

func startWindow() *window {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &window{wall0: time.Now(), cpu0: processCPU(), alloc0: ms.TotalAlloc, gc0: ms.NumGC}
}

func (w *window) stop() {
	w.wall = time.Since(w.wall0)
	w.cpu = processCPU() - w.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.allocMB = float64(ms.TotalAlloc-w.alloc0) / (1 << 20)
	w.gcs = float64(ms.NumGC - w.gc0)
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// errMismatch marks an output that differs from its reference.
var errMismatch = errors.New("output differs from the reference")
