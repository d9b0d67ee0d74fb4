package shard

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/sweep"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/tracetest"
)

// testProfile shrinks the suite's first game profile to unit-test
// scale; testWorkload memoizes its generation across the package.
func testProfile() synth.Profile {
	p := synth.SuiteProfiles()[0]
	p.Frames = 16
	p.MaterialsPerScene = 30
	p.SharedMaterials = 8
	p.Textures = 60
	p.VSPool = 6
	p.PSPool = 12
	return p
}

func testWorkload(t testing.TB, seed uint64) *trace.Workload {
	t.Helper()
	w, err := tracetest.CachedWorkload(testProfile(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func testGrid(nCore, nMem int) []gpu.Config {
	core := make([]float64, nCore)
	for i := range core {
		core[i] = 0.5 + 0.25*float64(i)
	}
	mem := make([]float64, nMem)
	for i := range mem {
		mem[i] = 0.8 + 0.4*float64(i)
	}
	return sweep.Grid(gpu.BaseConfig(), core, mem)
}

func TestParseSpec(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Spec
	}{
		{"1/1", Spec{0, 1}},
		{"1/4", Spec{0, 4}},
		{"4/4", Spec{3, 4}},
		{" 3 / 8 ", Spec{2, 8}},
	} {
		got, err := ParseSpec(tc.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		if rt, err := ParseSpec(got.String()); err != nil || rt != got {
			t.Fatalf("ParseSpec(String %q) = %+v, %v", got.String(), rt, err)
		}
	}
	for _, in := range []string{"", "3", "0/4", "5/4", "-1/4", "1/0", "1/-2", "a/4", "1/b", "1/2/3"} {
		if sp, err := ParseSpec(in); err == nil {
			t.Fatalf("ParseSpec(%q) = %+v, want error", in, sp)
		}
	}
}

func TestSpecOwnsPartitionsGrid(t *testing.T) {
	const n, grid = 4, 23
	seen := make([]int, grid)
	for i := 0; i < n; i++ {
		sp := Spec{Index: i, Count: n}
		for seq := 0; seq < grid; seq++ {
			if sp.Owns(seq) {
				seen[seq]++
			}
		}
	}
	for seq, c := range seen {
		if c != 1 {
			t.Fatalf("task %d owned by %d shards, want exactly 1", seq, c)
		}
	}
	// Round-robin: shard 1/4 owns 0, 4, 8, ...
	sp := Spec{Index: 0, Count: 4}
	if !sp.Owns(0) || sp.Owns(1) || !sp.Owns(4) {
		t.Fatal("ownership is not round-robin")
	}
}

func TestPlanGridOrderAndKeys(t *testing.T) {
	w := testWorkload(t, 7)
	fp := w.Fingerprint()
	cfgs := testGrid(3, 2)
	tasks, digest, err := Plan(fp, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != len(cfgs) {
		t.Fatalf("planned %d tasks for %d configs", len(tasks), len(cfgs))
	}
	for i, task := range tasks {
		if task.Seq != i {
			t.Fatalf("task %d has seq %d", i, task.Seq)
		}
		if task.Config != cfgs[i] {
			t.Fatalf("task %d config reordered", i)
		}
		if task.Key != sweep.PriceKey(fp, cfgs[i]) {
			t.Fatalf("task %d key diverges from sweep.PriceKey — shard and sequential would miss each other's cache entries", i)
		}
	}
	// Same inputs, same digest; reordered grid, different digest (order
	// is the fold order, so it is part of the sweep's identity).
	_, digest2, err := Plan(fp, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if digest != digest2 {
		t.Fatal("grid digest is not deterministic")
	}
	swapped := append([]gpu.Config(nil), cfgs...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	_, digest3, err := Plan(fp, swapped)
	if err != nil {
		t.Fatal(err)
	}
	if digest == digest3 {
		t.Fatal("grid digest ignores config order")
	}
	if len(digest.String()) != 64 || !strings.EqualFold(digest.String(), digest2.String()) {
		t.Fatalf("digest string %q malformed", digest.String())
	}
}

func TestPlanRejectsEmptyGrid(t *testing.T) {
	w := testWorkload(t, 7)
	if _, _, err := Plan(w.Fingerprint(), nil); err == nil {
		t.Fatal("Plan accepted an empty grid")
	}
}

// TestRunSequentialLeavesNoGoroutine: a cache-free RunSequential hashes
// the workload on a goroutine of its own beside the pricing. An empty
// grid still fails first, an invalid workload and a canceled context
// return their errors, and after each the goroutine count is back
// where it started.
func TestRunSequentialLeavesNoGoroutine(t *testing.T) {
	w := testWorkload(t, 7)
	invalid := tracetest.Tiny()
	invalid.Frames[1].Draws[0].VS = 999
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	start := runtime.NumGoroutine()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		w    *trace.Workload
		cfgs []gpu.Config
		ok   func(error) bool
	}{
		{"empty grid", context.Background(), w, nil, func(err error) bool { return err.Error() == "shard: empty config grid" }},
		{"invalid workload", context.Background(), invalid, testGrid(2, 2), func(err error) bool { return strings.Contains(err.Error(), "999") }},
		{"canceled", canceled, w, testGrid(2, 2), func(err error) bool { return errors.Is(err, context.Canceled) }},
	} {
		rm, err := RunSequential(tc.ctx, nil, tc.w, tc.cfgs)
		if rm != nil || err == nil || !tc.ok(err) {
			t.Errorf("%s: manifest %v, error %v", tc.name, rm != nil, err)
		}
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > start; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before the call", tc.name, runtime.NumGoroutine(), start)
			}
		}
	}
}
