package serve

import (
	"context"
	"errors"

	"repro/internal/trace"
)

// RestoreWorkloads rebuilds the in-memory workload registry from the
// result cache's workload store — the startup half of registry
// persistence. Uploads persist their workload fingerprint-keyed next to
// the cache's disk tier (see handleUpload and cache.StoreWorkload);
// a killed-and-relaunched server calls this before listening, so it
// resumes serving shard dispatches for every workload it knew without
// waiting for a re-upload.
//
// Restored entries carry Format "stream" and no ingestion diagnostics:
// the store holds the post-sanitization canonical bytes, so whatever
// leniency repaired at original upload time is already baked in and the
// content fingerprint is unchanged. Returns how many entries were
// newly registered. A full registry stops the rescan with a warning
// rather than failing startup — serving the workloads that fit beats
// serving none.
func (s *Server) RestoreWorkloads(ctx context.Context) (int, error) {
	wls, err := s.opt.Cache.LoadWorkloads(s.run.Context(ctx))
	if err != nil {
		return 0, err
	}
	restored := 0
	for _, wl := range wls {
		e := &workloadEntry{
			W:       wl,
			FP:      wl.Fingerprint(),
			Summary: trace.Summarize(wl),
			Format:  "stream",
		}
		created, err := s.reg.register(e)
		if errors.Is(err, ErrRegistryFull) {
			s.run.Logger().Warn("registry full during restore, remaining persisted workloads skipped",
				"restored", restored)
			break
		}
		if err != nil {
			return restored, err
		}
		if created {
			restored++
			s.run.Metrics().Counter("serve.workloads_restored").Inc()
			s.run.Logger().Info("workload restored", "workload", wl.Name,
				"fingerprint", e.FP.String(), "frames", e.Summary.Frames)
		}
	}
	return restored, nil
}
