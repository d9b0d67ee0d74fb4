package gpu

import "repro/internal/dcmath"

// texTraffic is the analytic texture-memory model: given the number of
// samples a draw issues, its texture working set, and the cache
// geometry, it estimates DRAM line fetches.
//
// The model decomposes misses the classic way:
//
//   - compulsory: every distinct line of the working set is fetched at
//     least once (ws / lineB lines);
//   - capacity: once the working set exceeds the cache, lines are
//     evicted before reuse and refetched. The refetch multiplier grows
//     with ws/cache, saturating at the point where every sample misses.
//
// It is deliberately simple — monotone in working set, anti-monotone in
// cache size — and is validated in direction against the exact LRU
// cache in detailed mode.
type texTraffic struct {
	Misses  float64 // DRAM line fetches
	Bytes   float64 // Misses * lineB
	HitRate float64 // 1 - Misses/Samples (1.0 when no samples)
}

// capacityExponent shapes how quickly refetching grows past cache
// capacity; calibrated against the LRU cache on streaming-with-reuse
// access patterns.
const capacityExponent = 1.3

// texelBytes is the modeled texel size (32-bit formats dominate game
// content); used to convert between samples and working-set bytes.
const texelBytes = 4

func modelTexTraffic(samples, workingSetBytes float64, cacheBytes, lineB int) texTraffic {
	if samples <= 0 || workingSetBytes <= 0 {
		return texTraffic{HitRate: 1}
	}
	compulsory := workingSetBytes / float64(lineB)
	refetch := 1.0
	if ratio := workingSetBytes / float64(cacheBytes); ratio > 1 {
		refetch = dcmath.Pow(ratio, capacityExponent)
	}
	misses := compulsory * refetch
	if misses > samples {
		misses = samples // cannot miss more than once per access
	}
	return texTraffic{
		Misses:  misses,
		Bytes:   misses * float64(lineB),
		HitRate: 1 - misses/samples,
	}
}
