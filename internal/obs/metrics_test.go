package obs

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

// TestMetricsConcurrent hammers one counter, gauge and histogram from
// many goroutines; run under -race this is the registry's thread-safety
// proof, and the exact totals prove no update was lost.
func TestMetricsConcurrent(t *testing.T) {
	reg := NewRegistry()
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Get-or-create races against the other goroutines on
			// purpose: all must resolve to the same metric.
			c := reg.Counter("shared.counter")
			h := reg.Histogram("shared.hist")
			for i := 0; i < perG; i++ {
				c.Inc()
				reg.Gauge("shared.gauge").Set(int64(i))
				h.Observe(1.0)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared.counter").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	hs := reg.Histogram("shared.hist").Snapshot()
	if hs.Count != goroutines*perG {
		t.Errorf("hist count = %d, want %d", hs.Count, goroutines*perG)
	}
	if hs.Sum != float64(goroutines*perG) {
		t.Errorf("hist sum = %v, want %v", hs.Sum, goroutines*perG)
	}
	if g := reg.Gauge("shared.gauge").Value(); g != perG-1 {
		t.Errorf("gauge = %d, want %d", g, perG-1)
	}
}

func TestHistogramStats(t *testing.T) {
	h := newHistogram()
	for _, v := range []float64{0.25, 0.5, 1.0, 3.0, math.NaN()} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4 (NaN must be dropped)", s.Count)
	}
	if s.Min != 0.25 || s.Max != 3.0 {
		t.Errorf("min/max = %v/%v, want 0.25/3", s.Min, s.Max)
	}
	if s.Sum != 4.75 {
		t.Errorf("sum = %v, want 4.75", s.Sum)
	}
	if got := s.Mean(); got != 4.75/4 {
		t.Errorf("mean = %v, want %v", got, 4.75/4)
	}
}

// TestHistogramBuckets pins the power-of-two bucketing: each value must
// land in the first bucket whose upper bound is >= the value.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v  float64
		le float64 // expected bucket upper bound
	}{
		{0.3, 0.5},
		{0.5, 0.5}, // exact power of two sits in its own bucket
		{0.51, 1},
		{1, 1},
		{1.5, 2},
		{1024, 1024},
		{1025, 2048},
	}
	for _, c := range cases {
		h := newHistogram()
		h.Observe(c.v)
		s := h.Snapshot()
		if len(s.Buckets) != 1 {
			t.Fatalf("Observe(%v): %d buckets occupied, want 1", c.v, len(s.Buckets))
		}
		if s.Buckets[0].UpperBound != c.le {
			t.Errorf("Observe(%v): bucket le=%v, want %v", c.v, s.Buckets[0].UpperBound, c.le)
		}
	}
}

func TestHistogramClamping(t *testing.T) {
	h := newHistogram()
	h.Observe(0)                 // non-positive -> first bucket
	h.Observe(-5)                // ditto
	h.Observe(1e-30)             // below range -> first bucket
	h.Observe(math.Ldexp(1, 80)) // above range -> last bucket
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if len(s.Buckets) != 2 {
		t.Fatalf("%d buckets occupied, want 2 (under+over)", len(s.Buckets))
	}
	if s.Buckets[0].Count != 3 {
		t.Errorf("underflow bucket count = %d, want 3", s.Buckets[0].Count)
	}
	if want := math.Ldexp(1, histMaxExp); s.Buckets[1].UpperBound != want {
		t.Errorf("overflow bucket le = %v, want %v", s.Buckets[1].UpperBound, want)
	}
}

func TestNilMetricsNoOps(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Add(5)
	reg.Counter("x").Inc()
	reg.Gauge("x").Set(5)
	reg.Histogram("x").Observe(5)
	if v := reg.Counter("x").Value(); v != 0 {
		t.Errorf("nil counter value = %d", v)
	}
	if v := reg.Gauge("x").Value(); v != 0 {
		t.Errorf("nil gauge value = %d", v)
	}
	if s := reg.Histogram("x").Snapshot(); s.Count != 0 {
		t.Errorf("nil histogram count = %d", s.Count)
	}
	if s := reg.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Error("nil registry snapshot not empty")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a").Add(1)
	s1 := reg.Snapshot()
	reg.Counter("a").Add(1)
	if s1.Counters["a"] != 1 {
		t.Fatalf("snapshot mutated by later update: %d", s1.Counters["a"])
	}
	if s2 := reg.Snapshot(); s2.Counters["a"] != 2 {
		t.Fatalf("second snapshot = %d, want 2", s2.Counters["a"])
	}
}

// TestSnapshotUnderLoad scrapes continuously while writers hammer the
// registry — the /metrics pattern. The point (beyond -race cleanliness)
// is that Snapshot holds the registry lock only to copy handle
// references, so lookups on the hot path never stall behind a scrape
// walking histogram buckets; and that every snapshot is internally
// sane: cumulative counts only grow between scrapes.
func TestSnapshotUnderLoad(t *testing.T) {
	reg := NewRegistry()
	const writers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			names := []string{"a", "b", "c", "d"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := names[(w+i)%len(names)]
				reg.Counter(n).Inc()
				reg.Gauge(n).Set(int64(i))
				reg.Histogram(n).Observe(float64(i%64) + 0.5)
			}
		}(w)
	}

	var lastTotal int64
	for scrape := 0; scrape < 200; scrape++ {
		s := reg.Snapshot()
		var total int64
		for _, v := range s.Counters {
			total += v
		}
		if total < lastTotal {
			t.Fatalf("scrape %d: counter total went backward: %d -> %d", scrape, lastTotal, total)
		}
		lastTotal = total
		for name, h := range s.Histograms {
			var bucketSum int64
			for _, b := range h.Buckets {
				bucketSum += b.Count
			}
			if bucketSum != h.Count {
				t.Fatalf("scrape %d: histogram %q buckets sum to %d, count is %d",
					scrape, name, bucketSum, h.Count)
			}
		}
	}
	close(stop)
	wg.Wait()

	final := reg.Snapshot()
	var total int64
	for _, v := range final.Counters {
		total += v
	}
	if total < lastTotal {
		t.Fatalf("final total %d below last scrape %d", total, lastTotal)
	}
}

// TestSnapshotMidObserve freezes a histogram inside Observe — the
// sample's bucket counted, its min/max not yet landed — and checks the
// snapshot stays consistent and encodable: the count includes the
// bucket, and the extremes' ±Inf sentinels are reported as absent.
func TestSnapshotMidObserve(t *testing.T) {
	h := newHistogram()
	h.buckets[bucketFor(3)].Add(1)
	s := h.Snapshot()
	if s.Count != 1 || len(s.Buckets) != 1 || s.Buckets[0].Count != 1 {
		t.Fatalf("snapshot %+v, want one sample in one bucket", s)
	}
	if s.Min != 0 || s.Max != 0 {
		t.Fatalf("min/max = %v/%v before they landed, want absent (0)", s.Min, s.Max)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot not encodable: %v", err)
	}
	h.Observe(5)
	if s := h.Snapshot(); s.Count != 2 || s.Min != 5 || s.Max != 5 {
		t.Fatalf("after a full Observe: %+v, want count 2, min = max = 5", s)
	}
}
