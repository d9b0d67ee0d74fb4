package cluster

import (
	"testing"

	"repro/internal/dcmath"
	"repro/internal/linalg"
	"repro/internal/testutil"
)

// Leader takes its index buffers (row norms, pivot distances, leaders
// and the norm-sorted entries) from a pool, so a call allocates only
// what it returns: the assignment, the centroid matrix header and
// data, and the centroid counts. That count must not grow with the
// frame. Per-call index buffers would add allocations that grow with
// the rows and the leaders, and cost a pipeline pass about a tenth of
// its allocation.
func TestLeaderAllocsIndependentOfN(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	const maxAllocs = 4
	first := -1.0
	for _, n := range []int{64, 1000, 4000} {
		// Frames of materials: each run of 8 draws scatters tightly
		// around a fresh center, so K grows with n as in a real frame.
		rng := dcmath.NewRNG(uint64(n))
		x := linalg.NewMatrix(n, 8)
		var center [8]float64
		for i := 0; i < n; i++ {
			if i%8 == 0 {
				for j := range center {
					center[j] = rng.Float64() * 40
				}
			}
			for j, c := range center {
				x.Set(i, j, c+rng.Float64()*0.1)
			}
		}
		res, err := Leader(x, 1)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Leader(x, 1); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("n=%d: K=%d, %.0f allocs per call", n, res.K, allocs)
		if first < 0 {
			first = allocs
		}
		if allocs != first || allocs > maxAllocs {
			t.Errorf("n=%d: Leader allocates %.0f per call (%.0f at n=64), want the same count, at most %d, at every frame size",
				n, allocs, first, maxAllocs)
		}
	}
}
