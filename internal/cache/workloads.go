package cache

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

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
// workload, once each, sorted by fingerprint so a rebuilt registry
// lists in a deterministic order. Damage degrades to omission, never
// to failure: a file whose framing or stream payload does not check
// out is counted corrupt, removed and skipped — the same contract
// diskLookup applies to result entries. An intact file stored under
// another name, such as the fingerprint an older fingerprintVersion
// gave it, is refiled under its content's fingerprint and returned.
// Nil and memory-only caches return nothing.
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
	type stored struct {
		fp trace.Fingerprint
		w  *trace.Workload
	}
	var found []stored
	seen := map[trace.Fingerprint]bool{}
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
		fp := w.Fingerprint()
		if fp.String()+workloadExt != filepath.Base(p) {
			c.refileWorkload(run, p, w, fp)
		}
		if !seen[fp] {
			seen[fp] = true
			found = append(found, stored{fp, w})
		}
	}
	slices.SortFunc(found, func(a, b stored) int { return bytes.Compare(a.fp[:], b.fp[:]) })
	out := make([]*trace.Workload, len(found))
	for i, s := range found {
		out[i] = s.w
	}
	return out, nil
}

// refileWorkload moves the intact workload w, read from path, to the
// name its fingerprint fp gives it. Its content passed the checksum
// and the strict decode, so only its address is stale; if the store
// fails, the old file stays for the next rescan.
func (c *Cache) refileWorkload(run *obs.Run, path string, w *trace.Workload, fp trace.Fingerprint) {
	if err := c.StoreWorkload(w); err != nil {
		c.errs.Add(1)
		run.Logger().Warn("persisted workload not refiled",
			"file", filepath.Base(path), "err", err)
		return
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		c.errs.Add(1)
	}
	run.Metrics().Counter("cache.workload_refiled").Inc()
	run.Logger().Info("persisted workload refiled under its fingerprint",
		"file", filepath.Base(path), "fingerprint", fp.String())
}

// loadWorkloadFile reads one store file: framed container and strict
// stream decode (the bytes were written by this process family, so any
// damage is damage — leniency would mask it).
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
	return w, err
}
