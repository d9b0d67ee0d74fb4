// Command benchguard gates CI on the hot-path benchmark results.
//
// It reads the speedup_vs_naive section of a benchjson file — ratios
// of the frozen pre-optimization reference arm to each optimized arm
// of the same run — and fails when an arm regressed against a
// checked-in baseline or fell below an absolute floor. Ratios, not raw
// ns/op, are compared: both arms of a ratio ran on the same machine in
// the same process, so the comparison transfers between the developer
// box that produced the baseline and whatever runner CI lands on.
//
// Usage:
//
//	benchguard -in BENCH_new.json -baseline BENCH_hotpath.json [-max-regress 0.10]
//	benchguard -in BENCH_new.json -min HotPath/exact=2.0
//
// -baseline requires every ratio present in the baseline to be at
// least (1 - max-regress) of its baseline value in -in. -min (may
// repeat) requires group/path ratios to meet absolute floors
// regardless of the baseline. At least one of the two must be given.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// speedupFile is the slice of the benchjson schema this tool consumes.
type speedupFile struct {
	SpeedupVsNaive map[string]map[string]float64 `json:"speedup_vs_naive"`
}

// minSpec is one parsed -min flag: group/path must reach floor.
type minSpec struct {
	group, path string
	floor       float64
}

// minFlags collects repeated -min arguments.
type minFlags []minSpec

func (m *minFlags) String() string { return fmt.Sprint(*m) }

func (m *minFlags) Set(s string) error {
	key, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want group/path=floor, got %q", s)
	}
	group, path, ok := strings.Cut(key, "/")
	if !ok || group == "" || path == "" {
		return fmt.Errorf("want group/path=floor, got %q", s)
	}
	floor, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("bad floor in %q: %v", s, err)
	}
	*m = append(*m, minSpec{group: group, path: path, floor: floor})
	return nil
}

// check returns one violation message per failed gate, sorted for
// stable output. cur and base map group -> path -> speedup ratio.
func check(cur, base map[string]map[string]float64, mins []minSpec, maxRegress float64) []string {
	var bad []string
	for group, paths := range base {
		for path, want := range paths {
			floor := want * (1 - maxRegress)
			got, ok := cur[group][path]
			if !ok {
				bad = append(bad, fmt.Sprintf("%s/%s: missing from current results (baseline %.2fx)", group, path, want))
				continue
			}
			if got < floor {
				bad = append(bad, fmt.Sprintf("%s/%s: speedup %.2fx regressed below %.2fx (baseline %.2fx - %.0f%%)",
					group, path, got, floor, want, maxRegress*100))
			}
		}
	}
	for _, m := range mins {
		got, ok := cur[m.group][m.path]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s/%s: missing from current results (floor %.2fx)", m.group, m.path, m.floor))
			continue
		}
		if got < m.floor {
			bad = append(bad, fmt.Sprintf("%s/%s: speedup %.2fx below floor %.2fx", m.group, m.path, got, m.floor))
		}
	}
	sort.Strings(bad)
	return bad
}

func load(path string) (map[string]map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f speedupFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.SpeedupVsNaive) == 0 {
		return nil, fmt.Errorf("%s: no speedup_vs_naive section", path)
	}
	return f.SpeedupVsNaive, nil
}

func run(inPath, basePath string, mins minFlags, maxRegress float64) error {
	if basePath == "" && len(mins) == 0 {
		return fmt.Errorf("nothing to check: give -baseline and/or -min")
	}
	if maxRegress < 0 || maxRegress >= 1 {
		return fmt.Errorf("-max-regress %v outside [0, 1)", maxRegress)
	}
	cur, err := load(inPath)
	if err != nil {
		return err
	}
	base := map[string]map[string]float64{}
	if basePath != "" {
		if base, err = load(basePath); err != nil {
			return err
		}
	}
	if bad := check(cur, base, mins, maxRegress); len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, "benchguard:", b)
		}
		return fmt.Errorf("%d gate(s) failed", len(bad))
	}
	var groups []string
	for g := range cur {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		var paths []string
		for p := range cur[g] {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			fmt.Printf("benchguard: %s/%s %.2fx ok\n", g, p, cur[g][p])
		}
	}
	return nil
}

func main() {
	var (
		inPath     = flag.String("in", "", "benchjson file with the current run (required)")
		basePath   = flag.String("baseline", "", "benchjson file with the checked-in baseline ratios")
		maxRegress = flag.Float64("max-regress", 0.10, "allowed fractional regression vs the baseline ratios")
		mins       minFlags
	)
	flag.Var(&mins, "min", "absolute floor as group/path=ratio, e.g. HotPath/exact=2.0 (may repeat)")
	flag.Parse()
	if *inPath == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*inPath, *basePath, mins, *maxRegress); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}
