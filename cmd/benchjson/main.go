// Command benchjson converts `go test -bench` text output into a JSON
// record. For benchmarks named with a ".../workers=N" sub-benchmark
// convention it additionally derives per-group speedup curves relative
// to workers=1, which is how `make bench` produces BENCH_parallel.json
// from the parallel execution-engine benchmarks. The ".../mode=cold|warm"
// convention likewise yields warm-vs-cold ratios (BENCH_cache.json) and
// ".../path=NAME" yields speedups relative to the path=naive reference
// arm (BENCH_hotpath.json). Repeated names from `go test -count N` are
// collapsed to the fastest repetition before ratios are derived.
//
// Usage:
//
//	go test -bench=Parallel -run '^$' . | benchjson [-match Parallel] [-o BENCH_parallel.json]
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark name with the "Benchmark" prefix and the
	// trailing "-GOMAXPROCS" suffix stripped, e.g.
	// "ParallelClusteringEval/workers=4".
	Name string `json:"name"`

	// Workers is parsed from a "workers=N" path element (0 if absent).
	Workers int `json:"workers,omitempty"`

	// Mode is parsed from a "mode=cold" / "mode=warm" path element
	// (empty if absent) — the cache benchmarks' arm convention.
	Mode string `json:"mode,omitempty"`

	// Path is parsed from a "path=NAME" path element (empty if absent)
	// — the hot-path benchmarks' arm convention, where "naive" is the
	// frozen pre-optimization reference.
	Path string `json:"path,omitempty"`

	Iterations int64 `json:"iterations"`

	// Metrics maps unit to value: "ns/op", "B/op", "allocs/op" and any
	// custom b.ReportMetric units.
	Metrics map[string]float64 `json:"metrics"`
}

// Output is the file schema.
type Output struct {
	// Env echoes the goos/goarch/pkg/cpu header lines of the bench run.
	Env map[string]string `json:"env,omitempty"`

	Benchmarks []Benchmark `json:"benchmarks"`

	// SpeedupVsSequential maps a benchmark group (the name up to
	// "/workers=") to workers -> ns/op(workers=1) / ns/op(workers),
	// e.g. {"ParallelValidationSweep": {"4": 2.31}}. Only present when
	// a group has a workers=1 arm to normalize against.
	SpeedupVsSequential map[string]map[string]float64 `json:"speedup_vs_sequential,omitempty"`

	// WarmSpeedupVsCold maps a benchmark group (the name up to
	// "/mode=") to ns/op(mode=cold) / ns/op(mode=warm), e.g.
	// {"CacheSweep": 7.9}. Only present when a group has both arms —
	// this is how `make bench-cache` records the result-cache payoff
	// in BENCH_cache.json.
	WarmSpeedupVsCold map[string]float64 `json:"warm_speedup_vs_cold,omitempty"`

	// SpeedupVsNaive maps a benchmark group (the name up to "/path=")
	// to path -> ns/op(path=naive) / ns/op(path), e.g.
	// {"HotPath": {"exact": 2.9}}. Only present when the group has a
	// path=naive arm to normalize against — this is how
	// `make bench-hotpath` records the hot-path payoff in
	// BENCH_hotpath.json, and what cmd/benchguard gates CI on. Being a
	// ratio of two arms of the same run, it transfers across machines
	// in a way raw ns/op does not.
	SpeedupVsNaive map[string]map[string]float64 `json:"speedup_vs_naive,omitempty"`
}

var (
	benchLine = regexp.MustCompile(`^Benchmark(\S+)\s+(\d+)\s+(.+)$`)
	cpuSuffix = regexp.MustCompile(`-\d+$`)
	workersRe = regexp.MustCompile(`(?:^|/)workers=(\d+)(?:$|/)`)
	modeRe    = regexp.MustCompile(`(?:^|/)mode=(cold|warm)(?:$|/)`)
	pathRe    = regexp.MustCompile(`(?:^|/)path=([a-z][a-z0-9]*)(?:$|/)`)
)

func parseLine(line string) (Benchmark, bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return Benchmark{}, false
	}
	b := Benchmark{
		Name:    cpuSuffix.ReplaceAllString(m[1], ""),
		Metrics: map[string]float64{},
	}
	b.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
	if wm := workersRe.FindStringSubmatch(b.Name); wm != nil {
		b.Workers, _ = strconv.Atoi(wm[1])
	}
	if mm := modeRe.FindStringSubmatch(b.Name); mm != nil {
		b.Mode = mm[1]
	}
	if pm := pathRe.FindStringSubmatch(b.Name); pm != nil {
		b.Path = pm[1]
	}
	fields := strings.Fields(m[3])
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, len(b.Metrics) > 0
}

// speedups derives per-group curves normalized to the workers=1 arm.
func speedups(benches []Benchmark) map[string]map[string]float64 {
	base := map[string]float64{} // group -> ns/op at workers=1
	for _, b := range benches {
		if b.Workers == 1 {
			if ns, ok := b.Metrics["ns/op"]; ok {
				base[groupOf(b.Name)] = ns
			}
		}
	}
	out := map[string]map[string]float64{}
	for _, b := range benches {
		if b.Workers == 0 {
			continue
		}
		ref, ok := base[groupOf(b.Name)]
		ns := b.Metrics["ns/op"]
		if !ok || ns == 0 {
			continue
		}
		g := groupOf(b.Name)
		if out[g] == nil {
			out[g] = map[string]float64{}
		}
		out[g][strconv.Itoa(b.Workers)] = ref / ns
	}
	return out
}

func groupOf(name string) string {
	if i := strings.Index(name, "/workers="); i >= 0 {
		return name[:i]
	}
	return name
}

// warmSpeedups derives per-group cold/warm ratios: how much faster the
// warm-cache arm ran than the cold-cache arm.
func warmSpeedups(benches []Benchmark) map[string]float64 {
	cold := map[string]float64{}
	warm := map[string]float64{}
	for _, b := range benches {
		ns, ok := b.Metrics["ns/op"]
		if !ok {
			continue
		}
		switch b.Mode {
		case "cold":
			cold[modeGroupOf(b.Name)] = ns
		case "warm":
			warm[modeGroupOf(b.Name)] = ns
		}
	}
	out := map[string]float64{}
	for g, c := range cold {
		if w, ok := warm[g]; ok && w > 0 {
			out[g] = c / w
		}
	}
	return out
}

func modeGroupOf(name string) string {
	if i := strings.Index(name, "/mode="); i >= 0 {
		return name[:i]
	}
	return name
}

// naiveSpeedups derives per-group curves normalized to the path=naive
// arm — how much faster each hot-path arm ran than the frozen
// pre-optimization reference.
func naiveSpeedups(benches []Benchmark) map[string]map[string]float64 {
	base := map[string]float64{} // group -> ns/op at path=naive
	for _, b := range benches {
		if b.Path == "naive" {
			if ns, ok := b.Metrics["ns/op"]; ok {
				base[pathGroupOf(b.Name)] = ns
			}
		}
	}
	out := map[string]map[string]float64{}
	for _, b := range benches {
		if b.Path == "" || b.Path == "naive" {
			continue
		}
		g := pathGroupOf(b.Name)
		ref, ok := base[g]
		ns := b.Metrics["ns/op"]
		if !ok || ns == 0 {
			continue
		}
		if out[g] == nil {
			out[g] = map[string]float64{}
		}
		out[g][b.Path] = ref / ns
	}
	return out
}

func pathGroupOf(name string) string {
	if i := strings.Index(name, "/path="); i >= 0 {
		return name[:i]
	}
	return name
}

// collapseRepeats merges duplicate benchmark names produced by
// `go test -count N`, keeping per name the line with the smallest
// ns/op. Minimum-of-repetitions is the standard noise-robust estimator
// for wall-clock benchmarks: external load only ever adds time.
func collapseRepeats(benches []Benchmark) []Benchmark {
	bestAt := map[string]int{}
	var out []Benchmark
	for _, b := range benches {
		i, seen := bestAt[b.Name]
		if !seen {
			bestAt[b.Name] = len(out)
			out = append(out, b)
			continue
		}
		if b.Metrics["ns/op"] < out[i].Metrics["ns/op"] {
			out[i] = b
		}
	}
	return out
}

func run(ctx context.Context, run *obs.Run, matchPat, outPath string) error {
	var match *regexp.Regexp
	if matchPat != "" {
		var err error
		if match, err = regexp.Compile(matchPat); err != nil {
			return fmt.Errorf("benchjson: bad -match: %w", err)
		}
	}
	out := Output{Env: map[string]string{}}
	_, psp := obs.StartSpan(ctx, "parse-bench")
	lines := 0
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		lines++
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				out.Env[key] = v
			}
		}
		b, ok := parseLine(line)
		if !ok || (match != nil && !match.MatchString(b.Name)) {
			continue
		}
		out.Benchmarks = append(out.Benchmarks, b)
	}
	psp.AddItems(int64(lines))
	psp.End()
	if err := sc.Err(); err != nil {
		return fmt.Errorf("benchjson: reading input: %w", err)
	}
	if len(out.Benchmarks) == 0 {
		return fmt.Errorf("benchjson: no benchmark lines matched")
	}
	run.Metrics().Counter("benchjson.lines").Add(int64(lines))
	run.Metrics().Counter("benchjson.benchmarks").Add(int64(len(out.Benchmarks)))

	_, dsp := obs.StartSpan(ctx, "derive-speedups")
	out.Benchmarks = collapseRepeats(out.Benchmarks)
	out.SpeedupVsSequential = speedups(out.Benchmarks)
	out.WarmSpeedupVsCold = warmSpeedups(out.Benchmarks)
	out.SpeedupVsNaive = naiveSpeedups(out.Benchmarks)
	dsp.AddItems(int64(len(out.SpeedupVsSequential) + len(out.WarmSpeedupVsCold) + len(out.SpeedupVsNaive)))
	dsp.End()

	_, wsp := obs.StartSpan(ctx, "write-json")
	defer wsp.End()
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "" || outPath == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	run.RecordFile("output", outPath)
	return nil
}

func main() {
	var (
		matchPat = flag.String("match", "", "only keep benchmarks whose name matches this regexp")
		outPath  = flag.String("o", "-", "output file (- for stdout)")
		logLevel = flag.String("log-level", "off", "structured logging to stderr: debug, info, warn, error or off")
		manifest = flag.String("manifest", "", "write the run manifest (stages, metrics, output digest) to this JSON file")
		pprofDir = flag.String("pprof-dir", "", "write cpu.pprof and heap.pprof to this directory")
	)
	flag.Parse()
	r, stopProf, err := obs.SetupCLI("benchjson", *logLevel, *pprofDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	err = run(r.Context(context.Background()), r, *matchPat, *outPath)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if merr := r.WriteManifest(*manifest); err == nil {
		err = merr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
