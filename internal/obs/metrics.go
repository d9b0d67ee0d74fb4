package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Registry is a namespace of named metrics. Lookups get-or-create
// under a mutex (they happen once per stage, not per item); updates on
// the returned handles are lock-free atomics, safe from any number of
// goroutines. All methods are no-ops on a nil registry and return nil
// handles, so uninstrumented runs pay nothing.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every metric's current value, with names sorted
// inside each section so the manifest is stable for a given state.
//
// The registry lock guards only the name->handle tables, so Snapshot
// copies those references under the lock and reads every value outside
// it through the handles' own atomics. A scrape walking hundreds of
// histogram buckets therefore never stalls a concurrent
// Counter/Gauge/Histogram lookup on the request-recording path — a
// /metrics scrape under load costs readers nothing but atomic loads.
func (r *Registry) Snapshot() MetricsSnapshot {
	var s MetricsSnapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()

	if len(counters) > 0 {
		s.Counters = make(map[string]int64, len(counters))
		for n, c := range counters {
			s.Counters[n] = c.Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]int64, len(gauges))
		for n, g := range gauges {
			s.Gauges[n] = g.Value()
		}
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(hists))
		for n, h := range hists {
			s.Histograms[n] = h.Snapshot()
		}
	}
	return s
}

// MetricsSnapshot is the registry's state at one instant — the
// manifest's "metrics" section.
type MetricsSnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Counter is a monotonically increasing atomic count. Nil-safe.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-write-wins value. Nil-safe.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Value returns the last stored value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates float64 observations into power-of-two
// buckets: bucket i counts observations v with upper bound
// 2^(i+histMinExp) >= v. Observe is lock-free and safe for any number
// of goroutines; the bucket counts are exact, the sum is a CAS-looped
// float accumulation whose value (not determinism of rounding) is what
// the manifest reports. There is no separate total: the count is
// always the sum of the buckets, so no snapshot can show a bucket
// larger than the total. Nil-safe.
type Histogram struct {
	sumBits atomic.Uint64 // math.Float64bits of the running sum
	minBits atomic.Uint64 // bits of the running minimum
	maxBits atomic.Uint64 // bits of the running maximum
	buckets [histBuckets]atomic.Int64
}

const (
	// histMinExp is the exponent of the smallest bucket bound: the
	// first bucket is (-inf, 2^histMinExp]. With -32 the range spans
	// ~1e-10 .. ~1e12 before over/underflow clamping — wide enough for
	// relative errors, item counts and nanosecond durations alike.
	histMinExp  = -32
	histMaxExp  = 40
	histBuckets = histMaxExp - histMinExp + 1
)

func newHistogram() *Histogram {
	h := &Histogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one sample. NaN is dropped.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.buckets[bucketFor(v)].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// bucketFor returns the index of the first bucket whose upper bound
// 2^(i+histMinExp) is >= v; non-positive values land in bucket 0 and
// huge values clamp to the last bucket.
func bucketFor(v float64) int {
	if v <= 0 {
		return 0
	}
	// v = frac * 2^exp with frac in [0.5, 1), so 2^(exp-1) < v <= 2^exp
	// — except at exact powers of two, where frac == 0.5 and exp sits
	// one above the tight bound.
	frac, exp := math.Frexp(v)
	if frac == 0.5 {
		exp--
	}
	i := exp - histMinExp
	if i < 0 {
		return 0
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// HistogramSnapshot is a histogram's exported state. Buckets lists
// only the occupied buckets, smallest bound first.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     float64           `json:"sum"`
	Min     float64           `json:"min,omitempty"`
	Max     float64           `json:"max,omitempty"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// HistogramBucket is one occupied bucket: Count observations at or
// below UpperBound (and above the previous bucket's bound).
type HistogramBucket struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// Snapshot captures the histogram's current state without a lock.
// Count is the sum of the buckets read in the same walk, so the
// exported histogram is always internally consistent (each bucket at
// most the total) even while Observe runs concurrently. Min and Max
// are read before the walk: Observe counts a sample's bucket before it
// updates the extremes, so every extreme read belongs to a counted
// sample. A counted sample's extreme may not have landed yet — on the
// first observations the extremes still hold their ±Inf sentinels, and
// those are reported as absent (0) rather than as infinities, which
// JSON cannot encode.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	lo := math.Float64frombits(h.minBits.Load())
	hi := math.Float64frombits(h.maxBits.Load())
	s := HistogramSnapshot{Sum: math.Float64frombits(h.sumBits.Load())}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Count += n
			s.Buckets = append(s.Buckets, HistogramBucket{
				UpperBound: math.Ldexp(1, i+histMinExp),
				Count:      n,
			})
		}
	}
	if s.Count > 0 {
		if !math.IsInf(lo, 1) {
			s.Min = lo
		}
		if !math.IsInf(hi, -1) {
			s.Max = hi
		}
	}
	return s
}

// Mean returns Sum/Count, or 0 for an empty histogram.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}
