package serve

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"

	"repro/internal/cache"
	"repro/internal/shard"
)

// ShardSweepRequest asks the server to price ONE shard of a config
// grid over a registered workload. The grid is specified exactly like
// /v1/sweep's, so a fleet of these requests (one per shard, against
// one server or several) covers the same grid a single /v1/sweep
// would.
type ShardSweepRequest struct {
	Workload   string    `json:"workload"`
	CoreClocks []float64 `json:"core_clocks,omitempty"` // default: the standard ladder
	MemClocks  []float64 `json:"mem_clocks,omitempty"`  // default: 1.0
	Shard      string    `json:"shard"`                 // "i/n", 1-based
}

// ShardSweepResponse carries the per-shard manifest (base64 in JSON)
// plus its digest and the worker's accounting. The manifest bytes are
// exactly what `gpusim -shard` writes to disk: feed them to `gpusim
// -merge` (or shard.Merge) together with the other shards' manifests.
type ShardSweepResponse struct {
	Workload       string `json:"workload"`
	Shard          string `json:"shard"`
	GridConfigs    int    `json:"grid_configs"`
	GridDigest     string `json:"grid_digest"`
	Owned          int    `json:"owned"`
	Computed       int    `json:"computed"`
	CacheHits      int    `json:"cache_hits"`
	Manifest       []byte `json:"manifest"`
	ManifestDigest string `json:"manifest_digest"`
}

// handleShardSweep prices one shard of a sweep with shard.RunShard,
// through the server's result cache when it has one. It rides the same
// admission/coalescing path as every compute query, but its answer is
// never stored (runQuery gets no cache). The cache holds RunShard's
// per-task entries instead, the unit a rerun resumes from, and the
// response's stats report which tasks this request priced and which it
// read from the cache.
func (s *Server) handleShardSweep(w http.ResponseWriter, r *http.Request) {
	var req ShardSweepRequest
	if err := s.decodeReq(r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	cfgs, err := queryGrid(&req.CoreClocks, &req.MemClocks)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	spec, err := shard.ParseSpec(req.Shard)
	if err != nil {
		s.writeErr(w, badRequest("%v", err))
		return
	}
	e, err := s.reg.get(req.Workload)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	kb := cache.NewKey("serve.shardsweep", 1).
		Bytes(e.FP[:]).
		Int(int64(spec.Index)).
		Int(int64(spec.Count)).
		Int(int64(len(req.CoreClocks)))
	for _, c := range req.CoreClocks {
		kb.Float(c)
	}
	for _, c := range req.MemClocks {
		kb.Float(c)
	}
	s.runQuery(w, r, kb.Sum(), nil, func(ctx context.Context) (any, error) {
		m, st, err := shard.RunShard(ctx, s.opt.Cache, e.W, e.FP, cfgs, spec)
		if err != nil {
			return nil, err
		}
		data, err := m.Encode()
		if err != nil {
			return nil, err
		}
		return ShardSweepResponse{
			Workload:       e.FP.String(),
			Shard:          spec.String(),
			GridConfigs:    len(cfgs),
			GridDigest:     m.Grid.String(),
			Owned:          st.Owned,
			Computed:       st.Computed,
			CacheHits:      st.CacheHits,
			Manifest:       data,
			ManifestDigest: fmt.Sprintf("%x", sha256.Sum256(data)),
		}, nil
	})
}
