package main

import (
	"math"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	b, ok := parseLine("BenchmarkParallelValidationSweep/workers=4-8 \t      12\t  95012345 ns/op\t 1024 B/op\t 17 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if b.Name != "ParallelValidationSweep/workers=4" {
		t.Errorf("name = %q", b.Name)
	}
	if b.Workers != 4 {
		t.Errorf("workers = %d", b.Workers)
	}
	if b.Iterations != 12 {
		t.Errorf("iterations = %d", b.Iterations)
	}
	if b.Metrics["ns/op"] != 95012345 || b.Metrics["B/op"] != 1024 || b.Metrics["allocs/op"] != 17 {
		t.Errorf("metrics = %v", b.Metrics)
	}
}

func TestParseLineRejectsNonBench(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \trepro\t12.3s",
		"BenchmarkBroken   notanumber ns/op",
		"--- BENCH: BenchmarkX",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parsed %q as a benchmark", line)
		}
	}
}

func TestParseLineCustomMetricAndNoWorkers(t *testing.T) {
	b, ok := parseLine("BenchmarkE2PredictionError-2   \t 3\t 1000 ns/op\t 1.04 err%")
	if !ok {
		t.Fatal("line not parsed")
	}
	if b.Workers != 0 {
		t.Errorf("workers = %d, want 0", b.Workers)
	}
	if b.Metrics["err%"] != 1.04 {
		t.Errorf("custom metric = %v", b.Metrics)
	}
}

func TestSpeedups(t *testing.T) {
	benches := []Benchmark{
		{Name: "A/workers=1", Workers: 1, Metrics: map[string]float64{"ns/op": 800}},
		{Name: "A/workers=4", Workers: 4, Metrics: map[string]float64{"ns/op": 200}},
		{Name: "B/workers=1", Workers: 1, Metrics: map[string]float64{"ns/op": 100}},
		{Name: "B/workers=2", Workers: 2, Metrics: map[string]float64{"ns/op": 80}},
		{Name: "NoBase/workers=2", Workers: 2, Metrics: map[string]float64{"ns/op": 50}},
		{Name: "Plain", Workers: 0, Metrics: map[string]float64{"ns/op": 10}},
	}
	s := speedups(benches)
	if got := s["A"]["4"]; math.Abs(got-4) > 1e-12 {
		t.Errorf("A at 4 workers = %v, want 4", got)
	}
	if got := s["B"]["2"]; math.Abs(got-1.25) > 1e-12 {
		t.Errorf("B at 2 workers = %v, want 1.25", got)
	}
	if _, ok := s["NoBase"]; ok {
		t.Error("group without a workers=1 arm got a speedup curve")
	}
	if _, ok := s["Plain"]; ok {
		t.Error("non-worker benchmark got a speedup curve")
	}
}

func TestParseLineMode(t *testing.T) {
	b, ok := parseLine("BenchmarkCacheSweep/mode=warm-8 \t 50\t 2000000 ns/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if b.Mode != "warm" {
		t.Errorf("mode = %q, want warm", b.Mode)
	}
	if b.Name != "CacheSweep/mode=warm" {
		t.Errorf("name = %q", b.Name)
	}
	if b, _ := parseLine("BenchmarkPlain-8 \t 50\t 2000 ns/op"); b.Mode != "" {
		t.Errorf("mode = %q on a modeless benchmark", b.Mode)
	}
}

func TestParseLinePath(t *testing.T) {
	b, ok := parseLine("BenchmarkHotPath/path=bucketed-8 \t 400\t 2900000 ns/op\t 3362 clusters")
	if !ok {
		t.Fatal("line not parsed")
	}
	if b.Path != "bucketed" {
		t.Errorf("path = %q, want bucketed", b.Path)
	}
	if b.Name != "HotPath/path=bucketed" {
		t.Errorf("name = %q", b.Name)
	}
	if b, _ := parseLine("BenchmarkPlain-8 \t 50\t 2000 ns/op"); b.Path != "" {
		t.Errorf("path = %q on a pathless benchmark", b.Path)
	}
	// Digits after the first letter: the shard scaling arms are named
	// path=shards2/4/8.
	b, ok = parseLine("BenchmarkShardSweep/path=shards8-8 \t 10\t 9000000 ns/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if b.Path != "shards8" {
		t.Errorf("path = %q, want shards8", b.Path)
	}
	if b, _ := parseLine("Benchmark2Fast/path=2fast-8 \t 10\t 90 ns/op"); b.Path != "" {
		t.Errorf("path = %q: a path may not start with a digit", b.Path)
	}
}

func TestNaiveSpeedups(t *testing.T) {
	benches := []Benchmark{
		{Name: "HotPath/path=naive", Path: "naive", Metrics: map[string]float64{"ns/op": 15000}},
		{Name: "HotPath/path=bucketed", Path: "bucketed", Metrics: map[string]float64{"ns/op": 3000}},
		{Name: "HotPath/path=exact", Path: "exact", Metrics: map[string]float64{"ns/op": 12000}},
		{Name: "NoBase/path=fast", Path: "fast", Metrics: map[string]float64{"ns/op": 50}},
		{Name: "Plain", Metrics: map[string]float64{"ns/op": 10}},
	}
	s, err := naiveSpeedups(benches)
	if err != nil {
		t.Fatal(err)
	}
	if got := s["HotPath"]["bucketed"]; math.Abs(got-5) > 1e-12 {
		t.Errorf("bucketed speedup = %v, want 5", got)
	}
	if got := s["HotPath"]["exact"]; math.Abs(got-1.25) > 1e-12 {
		t.Errorf("exact speedup = %v, want 1.25", got)
	}
	if _, ok := s["HotPath"]["naive"]; ok {
		t.Error("naive arm normalized against itself")
	}
	if _, ok := s["NoBase"]; ok {
		t.Error("group without a naive arm got a speedup curve")
	}
}

func TestCollapseRepeats(t *testing.T) {
	benches := []Benchmark{
		{Name: "A", Metrics: map[string]float64{"ns/op": 300, "clusters": 5}},
		{Name: "B", Metrics: map[string]float64{"ns/op": 100}},
		{Name: "A", Metrics: map[string]float64{"ns/op": 200, "clusters": 5}},
		{Name: "A", Metrics: map[string]float64{"ns/op": 250, "clusters": 5}},
	}
	got := collapseRepeats(benches)
	if len(got) != 2 {
		t.Fatalf("collapsed to %d benchmarks, want 2", len(got))
	}
	if got[0].Name != "A" || got[0].Metrics["ns/op"] != 200 {
		t.Errorf("A collapsed to %+v, want the ns/op=200 repetition", got[0])
	}
	if got[1].Name != "B" || got[1].Metrics["ns/op"] != 100 {
		t.Errorf("B collapsed to %+v", got[1])
	}
}

func TestCollapseRepeatsRecordsSpread(t *testing.T) {
	benches := []Benchmark{
		{Name: "A", Metrics: map[string]float64{"ns/op": 100}},
		{Name: "A", Metrics: map[string]float64{"ns/op": 90}},
		{Name: "A", Metrics: map[string]float64{"ns/op": 130}},
		{Name: "B", Metrics: map[string]float64{"ns/op": 40}},
		{Name: "B", Metrics: map[string]float64{"ns/op": 60}},
		{Name: "B", Metrics: map[string]float64{"ns/op": 50}},
		{Name: "B", Metrics: map[string]float64{"ns/op": 20}},
		{Name: "Once", Metrics: map[string]float64{"ns/op": 7}},
	}
	got := collapseRepeats(benches)
	// (max - min) over the median; an even count takes the lower middle.
	for i, want := range []struct {
		ns, spread float64
	}{{90, 0.4}, {20, 1.0}, {7, 0}} {
		if got[i].Metrics["ns/op"] != want.ns || math.Abs(got[i].Spread-want.spread) > 1e-12 {
			t.Errorf("%s collapsed to ns/op %v spread %v, want %v and %v",
				got[i].Name, got[i].Metrics["ns/op"], got[i].Spread, want.ns, want.spread)
		}
	}
}

func TestNaiveSpeedupsPairsRounds(t *testing.T) {
	arm := func(path string, ns float64) Benchmark {
		return Benchmark{Name: "G/path=" + path, Path: path, Metrics: map[string]float64{"ns/op": ns}}
	}
	naive := []float64{100, 90, 130}
	fast := []float64{40, 60, 50}
	// `go test -count 3`: each arm's repetitions back to back, so the
	// fastest repetitions are compared: 90/40.
	var backToBack []Benchmark
	for _, ns := range naive {
		backToBack = append(backToBack, arm("naive", ns))
	}
	for _, ns := range fast {
		backToBack = append(backToBack, arm("fast", ns))
	}
	// Three rounds of `go test -count 1`: round i pairs naive[i] with
	// fast[i], ratios 2.5, 1.5 and 2.6, median 2.5.
	var rounds []Benchmark
	for i := range naive {
		rounds = append(rounds, arm("naive", naive[i]), arm("fast", fast[i]))
	}
	for _, c := range []struct {
		name    string
		benches []Benchmark
		want    float64
	}{{"back to back", backToBack, 2.25}, {"rounds", rounds, 2.5}} {
		s, err := naiveSpeedups(c.benches)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := s["G"]["fast"]; math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: speedup = %v, want %v", c.name, got, c.want)
		}
	}
	// A round that stopped after naive leaves the arms unpaired.
	if _, err := naiveSpeedups(append(rounds, arm("naive", 95))); err == nil ||
		!strings.Contains(err.Error(), "G/path=fast has 3 repetitions, G/path=naive 4") {
		t.Errorf("partial round: err = %v", err)
	}
}

func TestWarmSpeedups(t *testing.T) {
	benches := []Benchmark{
		{Name: "CacheSweep/mode=cold", Mode: "cold", Metrics: map[string]float64{"ns/op": 8000}},
		{Name: "CacheSweep/mode=warm", Mode: "warm", Metrics: map[string]float64{"ns/op": 1000}},
		{Name: "OnlyCold/mode=cold", Mode: "cold", Metrics: map[string]float64{"ns/op": 500}},
		{Name: "Plain", Metrics: map[string]float64{"ns/op": 10}},
	}
	s := warmSpeedups(benches)
	if got := s["CacheSweep"]; math.Abs(got-8) > 1e-12 {
		t.Errorf("CacheSweep warm speedup = %v, want 8", got)
	}
	if _, ok := s["OnlyCold"]; ok {
		t.Error("group without a warm arm got a speedup")
	}
	if _, ok := s["Plain"]; ok {
		t.Error("modeless benchmark got a speedup")
	}
}

func TestTimesVsUncached(t *testing.T) {
	b, ok := parseLine("BenchmarkCachePass/mode=uncached-2 \t 20\t 4000000 ns/op")
	if !ok || b.Mode != "uncached" {
		t.Fatalf("parse: %+v ok=%v", b, ok)
	}
	benches := []Benchmark{
		b,
		{Name: "CachePass/mode=cold", Mode: "cold", Metrics: map[string]float64{"ns/op": 5000000}},
		{Name: "CachePass/mode=warm", Mode: "warm", Metrics: map[string]float64{"ns/op": 1000000}},
		{Name: "CacheSweep/mode=cold", Mode: "cold", Metrics: map[string]float64{"ns/op": 8000}},
		{Name: "CacheSweep/mode=warm", Mode: "warm", Metrics: map[string]float64{"ns/op": 1000}},
	}
	got := timesVsUncached(benches)
	if c, w := got["CachePass"]["cold"], got["CachePass"]["warm"]; math.Abs(c-1.25) > 1e-12 || math.Abs(w-0.25) > 1e-12 {
		t.Errorf("CachePass cold %v warm %v, want 1.25 and 0.25", c, w)
	}
	if _, ok := got["CachePass"]["uncached"]; ok {
		t.Error("the uncached arm got a ratio to itself")
	}
	if _, ok := got["CacheSweep"]; ok {
		t.Error("group without an uncached arm got ratios")
	}
	if s := warmSpeedups(benches); math.Abs(s["CachePass"]-5) > 1e-12 {
		t.Errorf("CachePass warm speedup = %v, want 5", s["CachePass"])
	}
}
