package obs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestManifestRoundTrip drives a small instrumented run end to end and
// checks the JSON document a consumer would parse.
func TestManifestRoundTrip(t *testing.T) {
	run := NewRun("tool-under-test")
	run.SetWorkers(4)
	ctx := run.Context(context.Background())

	sctx, sp := StartSpan(ctx, "stage-a")
	sp.AddItems(10)
	_, sub := StartSpan(sctx, "sub")
	sub.End()
	sp.End()
	_, sp2 := StartSpan(ctx, "stage-b")
	sp2.End()

	run.Metrics().Counter("c").Add(7)
	run.Metrics().Gauge("g").Set(-2)
	run.Metrics().Histogram("h").Observe(1.5)
	run.RecordDiagnostics(map[string]int64{"frames_skipped": 3})

	path := filepath.Join(t.TempDir(), "run.json")
	m := run.Finish()
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("manifest does not parse: %v", err)
	}

	if back.SchemaVersion != ManifestSchemaVersion {
		t.Errorf("schema_version = %d, want %d", back.SchemaVersion, ManifestSchemaVersion)
	}
	if back.Tool != "tool-under-test" || back.Workers != 4 {
		t.Errorf("tool/workers = %q/%d", back.Tool, back.Workers)
	}
	if back.DurationNs <= 0 {
		t.Error("duration_ns missing")
	}
	if back.GoVersion == "" || back.GOMAXPROCS <= 0 {
		t.Error("go_version/gomaxprocs missing")
	}
	if len(back.Stages) != 2 || back.Stages[0].Name != "stage-a" || back.Stages[1].Name != "stage-b" {
		t.Fatalf("stage tree wrong: %+v", back.Stages)
	}
	if back.Stages[0].Items != 10 || back.Stages[0].DurationNs <= 0 {
		t.Errorf("stage-a items/duration = %d/%d", back.Stages[0].Items, back.Stages[0].DurationNs)
	}
	if len(back.Stages[0].Children) != 1 || back.Stages[0].Children[0].Name != "sub" {
		t.Errorf("nested stage lost: %+v", back.Stages[0].Children)
	}
	if back.Metrics.Counters["c"] != 7 || back.Metrics.Gauges["g"] != -2 {
		t.Errorf("metrics snapshot wrong: %+v", back.Metrics)
	}
	if back.Metrics.Histograms["h"].Count != 1 {
		t.Errorf("histogram lost: %+v", back.Metrics.Histograms)
	}
	// Diagnostics carry both the recorded class and its counter mirror.
	if back.Diagnostics["frames_skipped"] != 3 {
		t.Errorf("diagnostics = %v", back.Diagnostics)
	}
	if back.Metrics.Counters["ingest.frames_skipped"] != 3 {
		t.Errorf("diagnostics not mirrored to counters: %+v", back.Metrics.Counters)
	}
}

// TestManifestDiagnosticsAlwaysPresent: a clean run must still export
// the diagnostics key (as an empty object) so consumers can rely on it.
func TestManifestDiagnosticsAlwaysPresent(t *testing.T) {
	run := NewRun("clean")
	var buf bytes.Buffer
	if err := run.Finish().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	raw, ok := doc["diagnostics"]
	if !ok {
		t.Fatal("diagnostics key absent from clean manifest")
	}
	if string(bytes.TrimSpace(raw)) != "{}" {
		t.Fatalf("clean diagnostics = %s, want {}", raw)
	}
}

func TestDigestFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blob")
	content := []byte("digest me")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := DigestFile("input", path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(content)
	if d.SHA256 != hex.EncodeToString(sum[:]) {
		t.Errorf("sha256 = %s", d.SHA256)
	}
	if d.Bytes != int64(len(content)) || d.Role != "input" || d.Path != path {
		t.Errorf("digest = %+v", d)
	}
	if _, err := DigestFile("input", filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file digested")
	}
}

// TestRecordFileMissing: a failed digest must not break the run — the
// file still appears, with an empty checksum.
func TestRecordFileMissing(t *testing.T) {
	run := NewRun("t")
	run.RecordFile("input", filepath.Join(t.TempDir(), "missing"))
	m := run.Finish()
	if len(m.Files) != 1 || m.Files[0].SHA256 != "" || m.Files[0].Role != "input" {
		t.Fatalf("files = %+v", m.Files)
	}
}

// TestRecordFileDigestsOnlyWithManifest: a run that writes no manifest
// never reads its recorded files, so a missing one logs nothing and no
// digest span appears. With a manifest path the same files are hashed
// in "<role>-digest" spans: the present one listed with its SHA-256,
// the missing one with an empty checksum and a logged warning.
func TestRecordFileDigestsOnlyWithManifest(t *testing.T) {
	dir := t.TempDir()
	present := filepath.Join(dir, "blob")
	content := []byte("digest me")
	if err := os.WriteFile(present, content, 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing")
	record := func(log *bytes.Buffer) *Run {
		run := NewRun("t")
		run.Log = NewLogger(log, LevelDebug)
		run.RecordFile("input", missing)
		run.RecordFile("output", present)
		return run
	}
	digestSpans := func(run *Run) (n int) {
		for _, s := range run.Root().childManifests() {
			if s.Name == "input-digest" || s.Name == "output-digest" {
				n++
			}
		}
		return n
	}

	var log bytes.Buffer
	run := record(&log)
	if err := run.WriteManifest(""); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(log.Bytes(), []byte("digest")) {
		t.Errorf("a run without a manifest logged a digest:\n%s", log.String())
	}
	if n := digestSpans(run); n != 0 {
		t.Errorf("a run without a manifest has %d digest spans", n)
	}

	log.Reset()
	run = record(&log)
	path := filepath.Join(dir, "run.json")
	if err := run.WriteManifest(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(content)
	want := []FileDigest{
		{Role: "input", Path: missing},
		{Role: "output", Path: present, SHA256: hex.EncodeToString(sum[:]), Bytes: int64(len(content))},
	}
	if len(m.Files) != 2 || m.Files[0] != want[0] || m.Files[1] != want[1] {
		t.Errorf("files = %+v, want %+v", m.Files, want)
	}
	if n := digestSpans(run); n != 2 {
		t.Errorf("a run with a manifest has %d digest spans, want 2", n)
	}
	if !bytes.Contains(log.Bytes(), []byte("file digest failed")) {
		t.Errorf("the missing file's digest failure was not logged:\n%s", log.String())
	}
}

func TestErrorClass(t *testing.T) {
	if got := ErrorClass(nil); got != "ok" {
		t.Errorf("ErrorClass(nil) = %q", got)
	}
	if got := ErrorClass(context.Canceled); got != "canceled" {
		t.Errorf("ErrorClass(Canceled) = %q", got)
	}
	if got := ErrorClass(context.DeadlineExceeded); got != "deadline" {
		t.Errorf("ErrorClass(DeadlineExceeded) = %q", got)
	}
	if got := ErrorClass(os.ErrNotExist); got != "not-found" {
		t.Errorf("ErrorClass(ErrNotExist) = %q", got)
	}
}
