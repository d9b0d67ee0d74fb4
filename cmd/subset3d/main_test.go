package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/trace"
)

// testProfile is the corpus shrunk to e2e-test scale.
func testProfile() synth.Profile {
	p := synth.Bioshock1Profile()
	p.Frames = 16
	p.MaterialsPerScene = 30
	p.SharedMaterials = 8
	p.Textures = 60
	p.VSPool = 6
	p.PSPool = 12
	return p
}

func defaultTestConfig(t *testing.T) config {
	t.Helper()
	return config{
		threshold: core.DefaultOptions().Subset.Method.Threshold,
		interval:  core.DefaultOptions().Subset.Phase.IntervalFrames,
		workers:   4,
		logLevel:  "off",
		out:       &bytes.Buffer{},
	}
}

func writeTestTrace(t *testing.T, dir string) string {
	t.Helper()
	w, err := synth.Generate(testProfile(), 7)
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

func readManifest(t *testing.T, path string) obs.Manifest {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest does not parse: %v", err)
	}
	return m
}

// TestManifestEndToEnd runs the full -trace pipeline exactly as main
// does and validates the exported manifest against the schema the
// documentation promises: >= 4 top-level stages with durations and item
// counts, a metrics snapshot, the diagnostics section, and the input
// checksum.
func TestManifestEndToEnd(t *testing.T) {
	dir := t.TempDir()
	cfg := defaultTestConfig(t)
	cfg.tracePath = writeTestTrace(t, dir)
	cfg.manifest = filepath.Join(dir, "run.json")

	if err := execute(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	m := readManifest(t, cfg.manifest)

	if m.SchemaVersion != obs.ManifestSchemaVersion {
		t.Errorf("schema_version = %d, want %d", m.SchemaVersion, obs.ManifestSchemaVersion)
	}
	if m.Tool != "subset3d" {
		t.Errorf("tool = %q", m.Tool)
	}
	if m.DurationNs <= 0 {
		t.Error("duration_ns missing")
	}
	if m.Workers != 4 {
		t.Errorf("workers = %d, want 4", m.Workers)
	}

	if len(m.Stages) < 4 {
		t.Fatalf("manifest has %d top-level stages, want >= 4: %+v", len(m.Stages), m.Stages)
	}
	byName := map[string]obs.StageManifest{}
	for _, s := range m.Stages {
		if s.DurationNs <= 0 {
			t.Errorf("stage %s has no duration", s.Name)
		}
		byName[s.Name] = s
	}
	for _, want := range []string{"decode-trace", "clustering-eval", "subset-build", "validation-sweep", "render-report"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("manifest missing stage %q (have %v)", want, stageNames(m.Stages))
		}
	}
	if byName["decode-trace"].Items != 16 {
		t.Errorf("decode-trace items = %d, want 16", byName["decode-trace"].Items)
	}
	// subset-build carries the nested phase-detect/cluster-frames spans.
	kids := stageNames(byName["subset-build"].Children)
	for _, want := range []string{"phase-detect", "cluster-frames"} {
		if !contains(kids, want) {
			t.Errorf("subset-build missing child %q (have %v)", want, kids)
		}
	}

	// The work outside the stages above has spans of its own.
	for _, want := range []string{"input-digest", "new-simulator", "new-extractor", "summarize"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("manifest missing stage %q (have %v)", want, stageNames(m.Stages))
		}
	}
	// clustering-eval is the frame pass: per-frame clustering, pricing
	// and evaluation, each a merged child.
	evalKids := stageNames(byName["clustering-eval"].Children)
	for _, want := range []string{"clustering", "price-grid", "evaluation"} {
		if !contains(evalKids, want) {
			t.Errorf("clustering-eval missing child %q (have %v)", want, evalKids)
		}
	}

	// Each parent pricing pass is a price-grid child counting draws x
	// configs; the counters carry the same sums, so ns per draw x
	// config can be read from the manifest alone. Without a cache the
	// frame pass prices the parent on all 9 validation configs (the
	// oracle's 1.0 GHz is one of them), and the validation sweep
	// prices no parent at all.
	var passes, priced int64
	for _, c := range byName["clustering-eval"].Children {
		if c.Name == "price-grid" {
			passes++
			priced += c.Items
		}
	}
	if passes == 0 || priced == 0 || priced%9 != 0 {
		t.Errorf("clustering-eval has %d price-grid passes over %d draw x configs, want >= 1 pass over 9 configs", passes, priced)
	}
	if kids := stageNames(byName["validation-sweep"].Children); contains(kids, "price-grid") {
		t.Errorf("validation-sweep priced the parent again without a cache: %v", kids)
	}
	if got := m.Metrics.Counters["sweep.pricing_passes"]; got != passes {
		t.Errorf("sweep.pricing_passes = %d, price-grid spans = %d", got, passes)
	}
	if got := m.Metrics.Counters["sweep.draw_configs_priced"]; got != priced {
		t.Errorf("sweep.draw_configs_priced = %d, price-grid items = %d", got, priced)
	}

	if len(m.Metrics.Counters) == 0 {
		t.Fatal("metrics snapshot has no counters")
	}
	for _, c := range []string{"subset.frames", "cluster.frames_evaluated", "sweep.configs_priced", "parallel.tasks"} {
		if m.Metrics.Counters[c] == 0 {
			t.Errorf("counter %s missing or zero (have %v)", c, m.Metrics.Counters)
		}
	}
	if m.Metrics.Histograms["cluster.frame_rel_error"].Count == 0 {
		t.Error("cluster.frame_rel_error histogram empty")
	}

	// Diagnostics must be present (and empty) even on this clean run.
	if m.Diagnostics == nil {
		t.Error("diagnostics section absent")
	}
	for k, v := range m.Diagnostics {
		if v != 0 {
			t.Errorf("clean run has nonzero diagnostic %s=%d", k, v)
		}
	}

	if len(m.Files) != 1 || m.Files[0].Role != "input" || len(m.Files[0].SHA256) != 64 {
		t.Errorf("files = %+v, want one input digest", m.Files)
	}
}

// TestCachedRunsPriceTheSameColumns runs subset3d uncached, then cold
// and warm over one -cache-dir at another worker count. All three print
// the same report. The cold run prices the same draw x configs as the
// uncached one and stores its frame pass as one entry; the warm run
// prices no parent draw. A -fast run stores one parent price per
// validation clock instead.
func TestCachedRunsPriceTheSameColumns(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeTestTrace(t, dir)
	run := func(name, cacheDir string, workers int, fast bool) (string, int64) {
		t.Helper()
		cfg := defaultTestConfig(t)
		cfg.tracePath = tracePath
		cfg.cacheDir = cacheDir
		cfg.workers = workers
		cfg.fast = fast
		cfg.manifest = filepath.Join(dir, name+".json")
		if err := execute(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		return cfg.out.(*bytes.Buffer).String(), readManifest(t, cfg.manifest).Metrics.Counters["sweep.draw_configs_priced"]
	}
	entries := func(cacheDir string) int {
		t.Helper()
		files, err := filepath.Glob(filepath.Join(cacheDir, "*", "*.s3dc"))
		if err != nil {
			t.Fatal(err)
		}
		return len(files)
	}

	want, uncached := run("uncached", "", 4, false)
	cacheDir := filepath.Join(dir, "cache")
	cold, coldPriced := run("cold", cacheDir, 4, false)
	warm, warmPriced := run("warm", cacheDir, 1, false)
	if cold != want || warm != want {
		t.Errorf("reports differ:\nuncached:\n%s\ncold:\n%s\nwarm:\n%s", want, cold, warm)
	}
	if uncached == 0 || coldPriced != uncached {
		t.Errorf("cold run priced %d draw x configs, uncached %d", coldPriced, uncached)
	}
	if warmPriced != 0 {
		t.Errorf("warm run priced %d draw x configs, want 0", warmPriced)
	}
	if n := entries(cacheDir); n != 1 {
		t.Errorf("cold run stored %d entries, want the frame pass's 1", n)
	}

	fastDir := filepath.Join(dir, "fast-cache")
	run("fast", fastDir, 4, true)
	if n, want := entries(fastDir), len(core.DefaultOptions().ValidationClocks); n != want {
		t.Errorf("-fast run stored %d entries, want one per validation clock (%d)", n, want)
	}
}

// TestManifestLenientDiagnostics corrupts one stream record and runs
// the -stream -lenient path: the manifest must account for the skipped
// data and the report must tell the user the run degraded.
func TestManifestLenientDiagnostics(t *testing.T) {
	w, err := synth.Generate(testProfile(), 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.EncodeStream(&buf, w); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0x10 // one payload bit — checksum catches it, resync skips the record

	dir := t.TempDir()
	streamPath := filepath.Join(dir, "damaged.stream")
	if err := os.WriteFile(streamPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	cfg := defaultTestConfig(t)
	cfg.streamIn = streamPath
	cfg.lenient = true
	cfg.manifest = filepath.Join(dir, "run.json")
	cfg.out = &out

	if err := execute(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	m := readManifest(t, cfg.manifest)

	var total int64
	for _, v := range m.Diagnostics {
		total += v
	}
	if total == 0 {
		t.Fatalf("lenient run over damaged stream recorded no diagnostics: %v", m.Diagnostics)
	}
	// The same accounting must be reachable through the metrics.
	var ingest int64
	for name, v := range m.Metrics.Counters {
		if strings.HasPrefix(name, "ingest.") {
			ingest += v
		}
	}
	if ingest == 0 {
		t.Errorf("no ingest.* counters mirrored: %v", m.Metrics.Counters)
	}
	if !strings.Contains(out.String(), "ingestion degraded:") {
		t.Errorf("report does not surface degradation:\n%s", out.String())
	}
	if !contains(stageNames(m.Stages), "stream-ingest") {
		t.Errorf("manifest missing stream-ingest stage: %v", stageNames(m.Stages))
	}
}

// TestStrictRunNoDiagnosticsLine: without -lenient a clean run must not
// mention ingestion at all.
func TestStrictStreamOutput(t *testing.T) {
	w, err := synth.Generate(testProfile(), 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	streamPath := filepath.Join(dir, "clean.stream")
	f, err := os.Create(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.EncodeStream(f, w); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	cfg := defaultTestConfig(t)
	cfg.streamIn = streamPath
	cfg.out = &out
	if err := execute(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "ingestion") {
		t.Errorf("strict clean run mentions ingestion:\n%s", out.String())
	}
}

func stageNames(stages []obs.StageManifest) []string {
	names := make([]string, len(stages))
	for i, s := range stages {
		names[i] = s.Name
	}
	return names
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}
