package shard

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/cache"
	"repro/internal/gpu"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// RunManifestVersion versions the merged run-manifest JSON schema.
const RunManifestVersion = 1

// RunEntry is one grid point in the merged run manifest.
type RunEntry struct {
	Seq          int     `json:"seq"`
	CoreClockGHz float64 `json:"core_clock_ghz"`
	MemClockGHz  float64 `json:"mem_clock_ghz"`
	ConfigFP     string  `json:"config_fp"`
	Key          string  `json:"key"`
	Frames       int     `json:"frames"`
	FrameDigest  string  `json:"frame_digest"`
	TotalNs      float64 `json:"total_ns"`
	ComputeNs    float64 `json:"compute_ns"`
	MemoryNs     float64 `json:"memory_ns"`
	TrafficBytes float64 `json:"traffic_bytes"`

	// SpeedupVsFirst is entry 0's runtime over this entry's — the
	// sweep's pathfinding signal, normalized to the grid's first config.
	SpeedupVsFirst float64 `json:"speedup_vs_first"`
}

// RunManifest is the reduced product of a sweep: one entry per grid
// point in grid order, plus the folded aggregates. It is the
// byte-exactness contract of the shard layer — the sequential path and
// any merge of any shard partition must Encode to identical bytes.
type RunManifest struct {
	SchemaVersion int    `json:"schema_version"`
	Workload      string `json:"workload_fp"`
	Grid          string `json:"grid_digest"`
	Configs       int    `json:"configs"`

	// BestSeq is the argmin of TotalNs over the grid; ties break to the
	// lowest seq, so "best" is a pure fold in grid order.
	BestSeq     int     `json:"best_seq"`
	BestTotalNs float64 `json:"best_total_ns"`

	// SumTotalNs folds entry totals in grid order — the sweep's total
	// simulated time, and a one-number tripwire for any fold-order
	// drift.
	SumTotalNs float64 `json:"sum_total_ns"`

	Entries []RunEntry `json:"entries"`

	// Digest is the SHA-256 (hex) of this manifest encoded with Digest
	// itself blank: a self-certifying identity, so two runs are
	// byte-identical iff their digests match.
	Digest string `json:"digest"`
}

// foldRun reduces a complete, grid-ordered entry set to the run
// manifest. Every aggregate is a left fold in grid order; this helper
// is the only fold implementation, shared by the sequential path and
// the merge path, so the two cannot disagree.
func foldRun(workload trace.Fingerprint, grid GridDigest, gridSize int, entries []Entry) (*RunManifest, error) {
	if len(entries) != gridSize {
		return nil, fmt.Errorf("shard: folding %d entries over a grid of %d", len(entries), gridSize)
	}
	rm := &RunManifest{
		SchemaVersion: RunManifestVersion,
		Workload:      fmt.Sprintf("%x", workload[:]),
		Grid:          grid.String(),
		Configs:       gridSize,
		Entries:       make([]RunEntry, 0, gridSize),
	}
	first := entries[0].TotalNs
	for i := range entries {
		e := &entries[i]
		if e.Seq != i {
			return nil, fmt.Errorf("shard: fold expects seq %d, got %d", i, e.Seq)
		}
		speedup := 0.0
		if e.TotalNs != 0 {
			speedup = first / e.TotalNs
		}
		rm.Entries = append(rm.Entries, RunEntry{
			Seq:            e.Seq,
			CoreClockGHz:   e.CoreClockGHz,
			MemClockGHz:    e.MemClockGHz,
			ConfigFP:       fmt.Sprintf("%x", e.ConfigFP[:]),
			Key:            e.Key.String(),
			Frames:         e.Frames,
			FrameDigest:    fmt.Sprintf("%x", e.FrameDigest[:]),
			TotalNs:        e.TotalNs,
			ComputeNs:      e.Totals.ComputeNs,
			MemoryNs:       e.Totals.MemoryNs,
			TrafficBytes:   e.Totals.TrafficBytes,
			SpeedupVsFirst: speedup,
		})
		rm.SumTotalNs += e.TotalNs
		if i == 0 || e.TotalNs < rm.BestTotalNs {
			rm.BestSeq = e.Seq
			rm.BestTotalNs = e.TotalNs
		}
	}
	data, err := rm.encode()
	if err != nil {
		return nil, err
	}
	rm.Digest = fmt.Sprintf("%x", sha256.Sum256(data))
	return rm, nil
}

// encode is the canonical serialization (indented JSON, trailing
// newline). The digest is computed over the encoding with Digest
// blank, then filled in — Encode on a folded manifest includes it.
func (rm *RunManifest) encode() ([]byte, error) {
	data, err := json.MarshalIndent(rm, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("shard: encode run manifest: %w", err)
	}
	return append(data, '\n'), nil
}

// Encode serializes the run manifest to its canonical byte form.
func (rm *RunManifest) Encode() ([]byte, error) { return rm.encode() }

// Render writes the human-readable sweep table. Sequential and merged
// runs print through this one renderer, so their stdout is
// byte-comparable too.
func (rm *RunManifest) Render(w io.Writer) {
	fmt.Fprintf(w, "sweep     %d configs  workload %s\n", rm.Configs, rm.Workload[:12])
	fmt.Fprintf(w, "%-4s  %9s  %8s  %12s  %8s\n", "seq", "core GHz", "mem GHz", "total ms", "speedup")
	for i := range rm.Entries {
		e := &rm.Entries[i]
		marker := " "
		if e.Seq == rm.BestSeq {
			marker = "*"
		}
		fmt.Fprintf(w, "%-4d  %9.2f  %8.2f  %12.3f  %7.2fx %s\n",
			e.Seq, e.CoreClockGHz, e.MemClockGHz, e.TotalNs/1e6, e.SpeedupVsFirst, marker)
	}
	fmt.Fprintf(w, "best      seq %d (core %.2f GHz, mem %.2f GHz)  %.3f ms\n",
		rm.BestSeq, rm.Entries[rm.BestSeq].CoreClockGHz, rm.Entries[rm.BestSeq].MemClockGHz,
		rm.BestTotalNs/1e6)
}

// Merge folds per-shard manifests into the run manifest. The manifests
// must all describe the same sweep (workload, grid digest, grid size);
// together they must cover every grid task; and where they overlap —
// two shards that both resolved a task, by cache hit or duplicated
// compute — the duplicate entries must agree exactly, or the merge
// fails loudly rather than pick a side. The fold itself ignores which
// shard contributed an entry: results depend only on the grid.
func Merge(ms []*Manifest) (*RunManifest, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("shard: merge of zero manifests")
	}
	ref := ms[0]
	bySeq := make([]*Entry, ref.GridSize)
	from := make([]Spec, ref.GridSize)
	for _, m := range ms {
		if m.Version != ref.Version {
			return nil, fmt.Errorf("shard: merge: manifest versions differ (%d vs %d)", m.Version, ref.Version)
		}
		if m.Workload != ref.Workload {
			return nil, fmt.Errorf("shard: merge: shard %s priced workload %x, shard %s priced %x",
				m.Shard, m.Workload[:6], ref.Shard, ref.Workload[:6])
		}
		if m.Grid != ref.Grid || m.GridSize != ref.GridSize {
			return nil, fmt.Errorf("shard: merge: shard %s ran a different grid than shard %s",
				m.Shard, ref.Shard)
		}
		for i := range m.Entries {
			e := &m.Entries[i]
			if prev := bySeq[e.Seq]; prev != nil {
				if *prev != *e {
					return nil, fmt.Errorf("shard: merge: task %d computed differently by shard %s and shard %s — cache or model mismatch",
						e.Seq, from[e.Seq], m.Shard)
				}
				continue
			}
			bySeq[e.Seq] = e
			from[e.Seq] = m.Shard
		}
	}
	entries := make([]Entry, ref.GridSize)
	missing, firstGap := 0, -1
	for seq, e := range bySeq {
		if e == nil {
			missing++
			if firstGap < 0 {
				firstGap = seq
			}
			continue
		}
		entries[seq] = *e
	}
	if missing > 0 {
		return nil, fmt.Errorf("shard: merge: %d of %d tasks missing (first gap: task %d) — a shard has not completed",
			missing, ref.GridSize, firstGap)
	}
	return foldRun(ref.Workload, ref.Grid, ref.GridSize, entries)
}

// RunSequential prices the whole grid in-process, in grid order, and
// folds it with the same foldRun the merge path uses. This is the
// reference the determinism suite compares every sharded run against;
// it is also gpusim's single-process sweep mode. It prices through the
// same priceTasks as RunShard, so sequential and sharded runs read and
// write the same entries of one cache.
//
// The workload's fingerprint is needed only for the cache keys, before
// the first lookup, and for the plan after pricing, so it is hashed on
// a goroutine of its own beside the simulator's build and, without a
// cache, beside the pricing. The goroutine is joined on every return.
func RunSequential(ctx context.Context, c *cache.Cache, w *trace.Workload, cfgs []gpu.Config) (*RunManifest, error) {
	if len(cfgs) == 0 {
		return nil, errEmptyGrid
	}
	hashed := make(chan trace.Fingerprint, 1)
	go func() { hashed <- fingerprint(ctx, w) }()
	fp := sync.OnceValue(func() trace.Fingerprint { return <-hashed })
	defer fp()
	base, err := newSimulator(ctx, cfgs[0], w)
	if err != nil {
		return nil, err
	}
	priced, _, err := priceTasks(ctx, c, base, w, fp, cfgs)
	if err != nil {
		return nil, err
	}
	tasks, grid, err := Plan(fp(), cfgs)
	if err != nil {
		return nil, err
	}
	return foldRun(fp(), grid, len(tasks), newEntries(tasks, priced))
}

// priceTasks prices the parent on cfgs and returns the priced parents
// in order and the number it priced rather than read from c.
//
// Without a cache it prices every config in one sweep.PriceGrid pass,
// its frames claimed on GOMAXPROCS goroutines, and never calls fp.
// With one, each config is one cache entry under sweep.PriceKey(fp(),
// cfg), resolved by one cache.GetOrCompute on this goroutine whose
// compute is sweep.PriceConfig: an entry is stored as soon as its
// config is priced, which is what a rerun after a crash resumes from.
func priceTasks(ctx context.Context, c *cache.Cache, base *gpu.Simulator, w *trace.Workload, fp func() trace.Fingerprint, cfgs []gpu.Config) ([]sweep.PricedParent, int, error) {
	if c == nil {
		priced, err := sweep.PriceGrid(ctx, base, w, cfgs, 0)
		return priced, len(cfgs), err
	}
	priced := make([]sweep.PricedParent, len(cfgs))
	computed := 0
	for i, cfg := range cfgs {
		var err error
		priced[i], err = cache.GetOrCompute(ctx, c, sweep.PriceKey(fp(), cfg), func() (sweep.PricedParent, error) {
			computed++
			_, p, err := sweep.PriceConfig(ctx, base, w, cfg, i, len(cfgs))
			return p, err
		})
		if err != nil {
			return nil, 0, err
		}
	}
	return priced, computed, nil
}
