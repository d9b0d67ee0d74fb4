package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"repro/internal/gpu"
	"repro/internal/shard"
	"repro/internal/sweep"
	"repro/internal/synth"
	"repro/internal/trace"
)

// The 16-config core×memory grid the grid and fleet workloads sweep.
var (
	gridCore = []float64{0.6, 1.0, 1.4, 1.8}
	gridMem  = []float64{0.75, 1.0, 1.25, 1.5}
)

// grid runs one shard.RunSequential sweep per unit, with no cache and
// under a fresh observability run as gpusim binds one, over the
// 16-config grid on the full bioshockinf trace, decoded once at set-up.
// An item is one draw priced on one config.
type grid struct {
	w     *trace.Workload
	cfgs  []gpu.Config
	draws int64
	ref   []byte // encoded run manifest of the reference sweep
}

func setupGrid(_ context.Context, seed uint64) (instance, time.Duration, error) {
	t0 := time.Now()
	w, err := synth.Generate(synth.BioshockInfiniteProfile(), seed)
	if err != nil {
		return nil, 0, err
	}
	gen := time.Since(t0)
	var buf bytes.Buffer
	if err := w.Encode(&buf); err != nil {
		return nil, 0, err
	}
	// Generating and loading are separate processes for the CLIs
	// (tracegen, then gpusim): release the generator's copy, and its
	// pages, before the load.
	w = nil
	debug.FreeOSMemory()
	if w, err = trace.Decode(&buf); err != nil {
		return nil, 0, err
	}
	return &grid{
		w:     w,
		cfgs:  sweep.Grid(gpu.BaseConfig(), gridCore, gridMem),
		draws: int64(w.NumDraws()),
	}, gen, nil
}

func (g *grid) sweep(ctx context.Context) (data []byte, err error) {
	err = cliRun(ctx, "gpusim", func(ctx context.Context) error {
		rm, err := shard.RunSequential(ctx, nil, g.w, g.cfgs)
		if err == nil {
			data, err = rm.Encode()
		}
		return err
	})
	return data, err
}

// replay is the traced unit: sweep with RunSequential's calls made one
// by one — fingerprint, plan, base simulator, one PriceConfig per task
// — then the fold, through shard.Merge over a single manifest holding
// every entry. Its manifest must be byte-identical to RunSequential's.
func (g *grid) replay(ctx context.Context, tr *tracer, id string) (data []byte, err error) {
	root := tr.start(id, 0, "bench.sweep")
	defer tr.end(root)
	call := func(name string, fn func() error) error { return tr.call(id, root, name, fn) }
	err = cliRun(ctx, "gpusim", func(ctx context.Context) (err error) {
		data, err = g.steps(ctx, call)
		return err
	})
	return data, err
}

func (g *grid) steps(ctx context.Context, call func(string, func() error) error) ([]byte, error) {
	var fp trace.Fingerprint
	call("trace.fingerprint", func() error { fp = g.w.Fingerprint(); return nil })
	var tasks []shard.Task
	var digest shard.GridDigest
	if err := call("shard.plan", func() (err error) {
		tasks, digest, err = shard.Plan(fp, g.cfgs)
		return err
	}); err != nil {
		return nil, err
	}
	var base *gpu.Simulator
	if err := call("gpu.new_simulator", func() (err error) {
		base, err = gpu.NewSimulator(g.cfgs[0], g.w)
		return err
	}); err != nil {
		return nil, err
	}
	m := &shard.Manifest{
		Version:  shard.ManifestVersion,
		Workload: fp,
		Grid:     digest,
		GridSize: len(tasks),
		Shard:    shard.Spec{Index: 0, Count: 1},
	}
	for _, t := range tasks {
		var priced sweep.PricedParent
		if err := call("sweep.price_config", func() (err error) {
			_, priced, err = sweep.PriceConfig(ctx, base, g.w, t.Config, t.Seq, len(tasks))
			return err
		}); err != nil {
			return nil, err
		}
		m.Entries = append(m.Entries, shard.Entry{
			Seq:          t.Seq,
			CoreClockGHz: t.Config.CoreClockGHz,
			MemClockGHz:  t.Config.MemClockGHz,
			ConfigFP:     t.Config.Fingerprint(),
			Key:          t.Key,
			Frames:       len(priced.FrameNs),
			FrameDigest:  frameDigest(priced.FrameNs),
			TotalNs:      priced.TotalNs,
			Totals:       priced.Totals,
		})
	}
	var rm *shard.RunManifest
	if err := call("shard.fold", func() (err error) {
		rm, err = shard.Merge([]*shard.Manifest{m})
		return err
	}); err != nil {
		return nil, err
	}
	return rm.Encode()
}

// frameDigest is the shard manifest's per-config digest: SHA-256 over
// the per-frame nanosecond curve, IEEE-754 bits big-endian, in frame
// order.
func frameDigest(frameNs []float64) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	for _, v := range frameNs {
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

func (g *grid) reference(ctx context.Context, rec *recorder) error {
	var err error
	g.ref, err = g.sweep(ctx)
	rec.op(err)
	return err
}

func (g *grid) measure(ctx context.Context, deadline time.Time, rec *recorder, tr *tracer) error {
	items := g.draws * int64(len(g.cfgs))
	return loop(ctx, deadline, rec, tr, "grid", func(ctx context.Context, tr *tracer, id string) (int64, func() error, error) {
		var data []byte
		var err error
		if tr == nil {
			data, err = g.sweep(ctx)
		} else {
			data, err = g.replay(ctx, tr, id)
		}
		return items, func() error {
			if !bytes.Equal(data, g.ref) {
				return fmt.Errorf("grid manifest: %w", errMismatch)
			}
			return nil
		}, err
	})
}

func (g *grid) layers(lm map[string]float64, tr *tracer, _ *recorder) {
	for _, l := range []string{"trace.fingerprint", "shard.plan", "gpu.new_simulator", "shard.fold"} {
		lm[l+"_ms"] = median(tr.perTrace(l))
	}
	sweeps := len(tr.perTrace("shard.plan"))
	lm["gpu.new_simulator_calls"] = ratio(float64(len(tr.calls("gpu.new_simulator"))), float64(sweeps))
	lm["sweep.price_config_ms"] = median(tr.calls("sweep.price_config"))
	lm["sweep.ns_per_draw_config"] = median(tr.perTrace("sweep.price_config")) * 1e6 /
		float64(g.draws*int64(len(g.cfgs)))
}

func (g *grid) close() error { return nil }
