package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/synth"
)

// writeTrace generates a small synthetic workload and writes it as the
// .trace file gpusim consumes.
func writeTrace(t *testing.T, dir string) string {
	t.Helper()
	p := synth.SuiteProfiles()[0]
	p.Frames = 12
	p.MaterialsPerScene = 30
	p.SharedMaterials = 8
	p.Textures = 60
	p.VSPool = 6
	p.PSPool = 12
	w, err := synth.Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, w.Name+".trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func baseCfg(tracePath string, out *bytes.Buffer) config {
	return config{
		tracePath: tracePath,
		core:      1.0,
		mem:       1.0,
		workers:   runtime.GOMAXPROCS(0),
		logLevel:  "off",
		out:       out,
	}
}

// TestShardMergeMatchesSequentialEndToEnd is the CLI-level byte-
// identity check: a sequential grid sweep versus four -shard runs
// (executed concurrently, sharing one cache directory or with no cache
// at all) folded by -merge. Both the -sweep-out JSON and the rendered
// stdout must be byte-identical.
func TestShardMergeMatchesSequentialEndToEnd(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeTrace(t, dir)
	const grid = "0.5,1.0,1.5,2.0"

	var seqOut bytes.Buffer
	seqCfg := baseCfg(tracePath, &seqOut)
	seqCfg.gridCore = grid
	seqCfg.gridMem = "0.8,1.2"
	seqCfg.sweepOut = filepath.Join(dir, "seq.json")
	if err := execute(context.Background(), seqCfg); err != nil {
		t.Fatal(err)
	}
	seqJSON, err := os.ReadFile(seqCfg.sweepOut)
	if err != nil {
		t.Fatal(err)
	}

	for name, cacheDir := range map[string]string{"shared cache dir": filepath.Join(dir, "cache"), "no cache dir": ""} {
		shardDir := t.TempDir()
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var out bytes.Buffer
				cfg := baseCfg(tracePath, &out)
				cfg.gridCore = grid
				cfg.gridMem = "0.8,1.2"
				cfg.shard = fmt.Sprintf("%d/4", i+1)
				cfg.cacheDir = cacheDir
				cfg.shardDir = shardDir
				errs[i] = execute(context.Background(), cfg)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: shard %d/4: %v", name, i+1, err)
			}
		}

		var mergeOut bytes.Buffer
		mergeCfg := baseCfg("", &mergeOut)
		mergeCfg.merge = true
		mergeCfg.shardDir = shardDir
		mergeCfg.sweepOut = filepath.Join(shardDir, "merged.json")
		if err := execute(context.Background(), mergeCfg); err != nil {
			t.Fatal(err)
		}
		mergedJSON, err := os.ReadFile(mergeCfg.sweepOut)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seqJSON, mergedJSON) {
			t.Fatalf("%s: run manifests differ\nseq:    %s\nmerged: %s", name, seqJSON, mergedJSON)
		}
		if seqOut.String() != mergeOut.String() {
			t.Fatalf("%s: stdout differs\nseq:\n%s\nmerged:\n%s", name, seqOut.String(), mergeOut.String())
		}
	}
}

// TestSweepGridFlagValidation covers the operator-error paths.
func TestSweepGridFlagValidation(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeTrace(t, dir)
	var out bytes.Buffer

	bad := baseCfg(tracePath, &out)
	bad.gridCore = "1.0,banana"
	if err := execute(context.Background(), bad); err == nil {
		t.Fatal("unparseable -grid-core accepted")
	}

	noDir := baseCfg(tracePath, &out)
	noDir.gridCore = "1.0"
	noDir.shard = "1/2"
	noDir.cacheDir = filepath.Join(dir, "c")
	if err := execute(context.Background(), noDir); err == nil {
		t.Fatal("-shard without -shard-dir accepted")
	}

	noShardDir := baseCfg("", &out)
	noShardDir.merge = true
	if err := execute(context.Background(), noShardDir); err == nil {
		t.Fatal("-merge without -shard-dir accepted")
	}

	emptyMerge := baseCfg("", &out)
	emptyMerge.merge = true
	emptyMerge.shardDir = t.TempDir()
	if err := execute(context.Background(), emptyMerge); err == nil {
		t.Fatal("-merge over an empty directory accepted")
	}
}

// TestNonFiniteClocksRejectedBeforePricing: a NaN or infinite clock is
// a config error, reported before any draw is priced — not a NaN total,
// a run of bare draw overheads, or a grid priced only to fail encoding
// its JSON.
func TestNonFiniteClocksRejectedBeforePricing(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeTrace(t, dir)
	for name, set := range map[string]func(c *config){
		"-core NaN":          func(c *config) { c.core = math.NaN() },
		"-core Inf -mem Inf": func(c *config) { c.core, c.mem = math.Inf(1), math.Inf(1) },
		"-grid-core NaN,1.0": func(c *config) { c.gridCore = "NaN,1.0" },
	} {
		var out bytes.Buffer
		cfg := baseCfg(tracePath, &out)
		set(&cfg)
		cfg.manifest = filepath.Join(dir, "run.json")
		if err := execute(context.Background(), cfg); err == nil {
			t.Fatalf("%s: accepted, printed %q", name, out.String())
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed %q before failing", name, out.String())
		}
		data, err := os.ReadFile(cfg.manifest)
		if err != nil {
			t.Fatal(err)
		}
		var m obs.Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		if n := m.Metrics.Counters["sweep.pricing_passes"]; n != 0 {
			t.Errorf("%s: %d pricing passes before failing, want 0", name, n)
		}
	}
}

// TestTraceLenientResyncsDamage corrupts one record of the trace and
// prices it under -lenient: the decode must resync past the record
// instead of aborting, and its accounting must reach the degraded line
// and the manifest.
func TestTraceLenientResyncsDamage(t *testing.T) {
	dir := t.TempDir()
	path := writeTrace(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10 // one payload bit — checksum catches it, resync skips the record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cfg := baseCfg(path, &out)
	cfg.lenient = true
	cfg.manifest = filepath.Join(dir, "run.json")
	if err := execute(context.Background(), cfg); err != nil {
		t.Fatalf("-trace -lenient over a damaged trace: %v", err)
	}
	if !strings.Contains(out.String(), "degraded: 1 records resynced") {
		t.Errorf("output does not surface the resynced record:\n%s", out.String())
	}
	data, err = os.ReadFile(cfg.manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Diagnostics["records_resynced"] != 1 {
		t.Errorf("manifest diagnostics %v, want records_resynced 1", m.Diagnostics)
	}
}

// TestGridManifestAttributesSetUp: a grid sweep's manifest records its
// set-up, the input's digest, the fingerprint and the base simulator,
// as spans beside the decode and the pricing pass, so none of it falls
// outside the tree.
func TestGridManifestAttributesSetUp(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	cfg := baseCfg(writeTrace(t, dir), &out)
	cfg.gridCore = "0.6,1.0,1.4,1.8"
	cfg.gridMem = "0.75,1.0,1.25,1.5"
	cfg.manifest = filepath.Join(dir, "run.json")
	if err := execute(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	var walk func([]obs.StageManifest)
	walk = func(stages []obs.StageManifest) {
		for _, s := range stages {
			names[s.Name] = true
			walk(s.Children)
		}
	}
	walk(m.Stages)
	for _, want := range []string{"input-digest", "decode-trace", "fingerprint", "new-simulator", "price-grid"} {
		if !names[want] {
			t.Errorf("manifest stages %v lack %q", names, want)
		}
	}
}

// TestCachedPriceEndToEnd: a cached single-config price stores the
// entry a grid run keys on (sweep.PriceKey). A cold and a warm price
// print the same bytes, the warm one is one cache hit that prices no
// draw, and a one-shard grid over the same directory reads that config
// as a hit and prices only the other.
func TestCachedPriceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeTrace(t, dir)
	cacheDir := filepath.Join(dir, "cache")
	run := func(set func(c *config)) string {
		var out bytes.Buffer
		cfg := baseCfg(tracePath, &out)
		cfg.cacheDir = cacheDir
		set(&cfg)
		if err := execute(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	manifest := filepath.Join(dir, "warm.json")
	cold := run(func(c *config) { c.core = 1.4 })
	warm := run(func(c *config) { c.core, c.manifest = 1.4, manifest })
	if cold != warm {
		t.Fatalf("warm price differs from cold:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if hits, priced := m.Metrics.Counters["cache.hit"], m.Metrics.Counters["sweep.draw_configs_priced"]; hits != 1 || priced != 0 {
		t.Errorf("warm price: %d cache hits and %d draw x configs priced, want 1 and 0", hits, priced)
	}
	grid := run(func(c *config) {
		c.gridCore, c.shard, c.shardDir = "0.6,1.4", "1/1", filepath.Join(dir, "manifests")
	})
	if !strings.Contains(grid, "computed 1  cache hits 1") {
		t.Errorf("grid over the price's cache dir:\n%s\nwant computed 1  cache hits 1", grid)
	}
}
