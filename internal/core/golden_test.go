package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/phase"
	"repro/internal/subset"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/traceerr"
	"repro/internal/tracetest"
)

var update = flag.Bool("update", false, "rewrite golden report files under testdata/golden")

// goldenSubset mirrors subset.Subset minus the Parent back-pointer:
// the parent workload is the test input, not pipeline output, and
// serializing it (shader registry included) would bloat the corpus
// with bytes the pipeline never computes.
type goldenSubset struct {
	Detection   phase.Detection
	Frames      []subset.Frame
	ParentDraws int
}

// goldenReport is the serialized projection of a core.Report: every
// computed field, in a stable shape, marshaled with deterministic
// JSON. Byte-equality of two goldenReports is the regression contract.
type goldenReport struct {
	Summary     trace.Summary
	Clustering  *metrics.WorkloadReport
	Detection   phase.Detection
	Subset      goldenSubset
	SizeRatio   float64
	Validation  sweep.Result
	Validated   bool
	Diagnostics traceerr.Diagnostics
}

func goldenBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	g := goldenReport{
		Summary:    rep.Summary,
		Clustering: rep.Clustering,
		Detection:  rep.Detection,
		Subset: goldenSubset{
			Detection:   rep.Subset.Detection,
			Frames:      rep.Subset.Frames,
			ParentDraws: rep.Subset.ParentDraws,
		},
		SizeRatio:   rep.SizeRatio,
		Validation:  rep.Validation,
		Validated:   rep.Validated,
		Diagnostics: rep.Diagnostics,
	}
	out, err := json.MarshalIndent(&g, "", "  ")
	if err != nil {
		t.Fatalf("marshal golden report: %v", err)
	}
	return append(out, '\n')
}

func goldenRun(t *testing.T, w *trace.Workload, c *cache.Cache, workers int) *Report {
	t.Helper()
	opt := DefaultOptions()
	opt.Workers = workers
	opt.Cache = c
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestGoldenReports pins the full pipeline output for the three-game
// corpus against checked-in golden files. Run with -update after an
// intentional model change:
//
//	go test ./internal/core/ -run TestGoldenReports -update
func TestGoldenReports(t *testing.T) {
	for _, p := range detProfiles() {
		w, err := tracetest.CachedWorkload(p, 7)
		if err != nil {
			t.Fatal(err)
		}
		got := goldenBytes(t, goldenRun(t, w, nil, 1))
		path := filepath.Join("testdata", "golden", fmt.Sprintf("%s-seed7.json", p.Name))
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update to create): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: report diverged from %s (re-run with -update if the change is intentional); got %d bytes, want %d",
				p.Name, path, len(got), len(want))
		}
	}
}

// TestGoldenReportsCacheAndWorkerInvariant is the cache's headline
// contract, anchored to the golden corpus: cached runs — cold cache,
// warm memory tier, warm disk tier via a fresh Cache over the same
// directory — and different worker counts all render to the exact
// bytes the golden files hold.
func TestGoldenReportsCacheAndWorkerInvariant(t *testing.T) {
	if *update {
		t.Skip("golden files being rewritten")
	}
	for _, p := range detProfiles() {
		w, err := tracetest.CachedWorkload(p, 7)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "golden", fmt.Sprintf("%s-seed7.json", p.Name))
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update to create): %v", err)
		}

		dir := t.TempDir()
		c, err := cache.New(cache.Config{Dir: dir, MaxMemBytes: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		runs := []struct {
			name    string
			cache   *cache.Cache
			workers int
		}{
			{"cold cache workers=4", c, 4},
			{"warm cache workers=1", c, 1},
			{"warm cache workers=4", c, 4},
		}
		for _, r := range runs {
			if got := goldenBytes(t, goldenRun(t, w, r.cache, r.workers)); !bytes.Equal(got, want) {
				t.Errorf("%s: %s diverged from golden bytes", p.Name, r.name)
			}
		}
		if st := c.Stats(); st.Hits == 0 {
			t.Errorf("%s: warm runs recorded no cache hits (stats %+v)", p.Name, st)
		}

		// Disk tier: a fresh Cache over the same directory has an empty
		// memory tier and must serve the same bytes from disk entries.
		c2, err := cache.New(cache.Config{Dir: dir, MaxMemBytes: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if got := goldenBytes(t, goldenRun(t, w, c2, 4)); !bytes.Equal(got, want) {
			t.Errorf("%s: disk-tier warm run diverged from golden bytes", p.Name)
		}
		if st := c2.Stats(); st.DiskHits == 0 {
			t.Errorf("%s: fresh cache over warm directory recorded no disk hits (stats %+v)", p.Name, st)
		}
	}
}

// TestCacheOnVsOffIdenticalReports is the metamorphic form of the same
// invariant, across all three profiles and two seeds: enabling the
// cache must not change a single byte of the report, whether the cache
// is cold or warm.
func TestCacheOnVsOffIdenticalReports(t *testing.T) {
	for _, p := range detProfiles() {
		for _, seed := range []uint64{7, 1234} {
			w, err := tracetest.CachedWorkload(p, seed)
			if err != nil {
				t.Fatal(err)
			}
			baseline := goldenBytes(t, goldenRun(t, w, nil, 1))
			c, err := cache.New(cache.Config{Dir: t.TempDir(), MaxMemBytes: 64 << 20})
			if err != nil {
				t.Fatal(err)
			}
			if cold := goldenBytes(t, goldenRun(t, w, c, 4)); !bytes.Equal(cold, baseline) {
				t.Errorf("%s seed %d: cold cached run differs from uncached run", p.Name, seed)
			}
			if warm := goldenBytes(t, goldenRun(t, w, c, 4)); !bytes.Equal(warm, baseline) {
				t.Errorf("%s seed %d: warm cached run differs from uncached run", p.Name, seed)
			}
		}
	}
}

// readTree returns every regular file under dir, by slash path
// relative to dir, with its bytes.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(rel)], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestColdCacheDirectoriesReproducible: two cold passes into two fresh
// disk caches, at different worker counts, write the same file names
// with the same bytes, with clustering evaluation (the frame pass's
// entry) and without it (the sweep's per-config entries). A cache
// directory can then be compared with diff -r.
func TestColdCacheDirectoriesReproducible(t *testing.T) {
	for _, p := range detProfiles() {
		w, err := tracetest.CachedWorkload(p, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, skipEval := range []bool{false, true} {
			var trees []map[string][]byte
			for _, workers := range []int{4, 1} {
				dir := t.TempDir()
				c, err := cache.New(cache.Config{Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				opt := DefaultOptions()
				opt.SkipClusteringEval = skipEval
				opt.Workers = workers
				opt.Cache = c
				s, err := New(opt)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Run(w); err != nil {
					t.Fatal(err)
				}
				trees = append(trees, readTree(t, dir))
			}
			a, b := trees[0], trees[1]
			if len(a) == 0 {
				t.Fatalf("%s skip-eval=%v: cold run wrote no entries", p.Name, skipEval)
			}
			if len(a) != len(b) {
				t.Errorf("%s skip-eval=%v: %d files vs %d", p.Name, skipEval, len(a), len(b))
			}
			for name, data := range a {
				if other, ok := b[name]; !ok {
					t.Errorf("%s skip-eval=%v: %s written by one cold run only", p.Name, skipEval, name)
				} else if !bytes.Equal(data, other) {
					t.Errorf("%s skip-eval=%v: %s differs between cold runs", p.Name, skipEval, name)
				}
			}
		}
	}
}
