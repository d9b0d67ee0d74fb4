package cache

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Workload persistence: the disk tier doubles as the durable workload
// store a restarted server rebuilds its registry from. Each workload is
// written once, fingerprint-keyed, under <dir>/workloads/<fp-hex>.s3dw
// — the payload is the workload's stream container (trace.EncodeStream;
// entries written by older builds hold a v2 container, still readable)
// wrapped in the same framed container (magic, version, length,
// SHA-256) every other cache artifact uses, so a torn or tampered file
// is detected exactly like a torn cache entry and dropped on rescan
// instead of poisoning the registry.

// workloadExt is the workload store's file extension.
const workloadExt = ".s3dw"

// workloadsDir is the store's subdirectory under the disk tier root.
func (c *Cache) workloadsDir() string { return filepath.Join(c.dir, "workloads") }

func (c *Cache) workloadPath(fp trace.Fingerprint) string {
	return filepath.Join(c.workloadsDir(), fp.String()+workloadExt)
}

// StoreWorkload persists w into the workload store, atomically (temp
// file then rename). Content addressing makes the store idempotent: a
// fingerprint already on disk is left untouched. Nil caches and
// memory-only caches are a no-op — persistence is a property of having
// a disk tier.
func (c *Cache) StoreWorkload(w *trace.Workload) error {
	if c == nil || c.dir == "" {
		return nil
	}
	fp := w.Fingerprint()
	path := c.workloadPath(fp)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := trace.EncodeStream(&buf, w); err != nil {
		return fmt.Errorf("cache: encoding workload %s: %w", fp, err)
	}
	dir := c.workloadsDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "tmp-workload-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	_, werr := tmp.Write(encodeEntry(buf.Bytes()))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("cache: writing workload %s: %w", fp, werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}

// LoadWorkloads rescans the workload store and returns every decodable
// workload, sorted by fingerprint so a rebuilt registry lists in a
// deterministic order. Damage degrades to omission, never to failure:
// a file whose framing, stream payload or fingerprint-vs-filename
// identity does not check out is counted corrupt, removed and skipped —
// the same contract diskLookup applies to result entries. Nil and
// memory-only caches return nothing.
func (c *Cache) LoadWorkloads(ctx context.Context) ([]*trace.Workload, error) {
	if c == nil || c.dir == "" {
		return nil, nil
	}
	paths, err := filepath.Glob(filepath.Join(c.workloadsDir(), "*"+workloadExt))
	if err != nil {
		return nil, fmt.Errorf("cache: scanning workload store: %w", err)
	}
	sort.Strings(paths)
	run := obs.RunFromContext(ctx)
	var out []*trace.Workload
	for _, p := range paths {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w, err := c.loadWorkloadFile(p)
		if err != nil {
			c.corrupt.Add(1)
			run.Metrics().Counter("cache.workload_corrupt").Inc()
			run.Logger().Warn("corrupt persisted workload dropped",
				"file", filepath.Base(p), "err", err)
			if rmErr := os.Remove(p); rmErr != nil && !os.IsNotExist(rmErr) {
				c.errs.Add(1)
			}
			continue
		}
		out = append(out, w)
	}
	return out, nil
}

// loadWorkloadFile reads one store file: framed container, strict
// stream decode (the bytes were written by this process family, so any
// damage is damage — leniency would mask it), and the identity check
// that the content's fingerprint matches the name it was stored under.
func (c *Cache) loadWorkloadFile(path string) (*trace.Workload, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := decodeEntry(raw)
	if err != nil {
		return nil, err
	}
	w, _, err := trace.ReadStream(bytes.NewReader(payload), trace.ReaderOptions{})
	if err != nil {
		return nil, err
	}
	fp := w.Fingerprint()
	want := strings.TrimSuffix(filepath.Base(path), workloadExt)
	if fp.String() != want {
		return nil, fmt.Errorf("cache: workload fingerprint %s does not match store name %s", fp, want)
	}
	return w, nil
}
