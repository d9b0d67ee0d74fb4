package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/dcmath"
	"repro/internal/features"
	"repro/internal/linalg"
	"repro/internal/synth"
	"repro/internal/tracetest"
)

// referenceLeader is Leader as it was before the norm-sorted leader
// index, frozen as the differential oracle: every point is priced
// against every live leader in founding order, and `<=` hands ties to
// the later leader. Leader must agree with it bit for bit.
func referenceLeader(x *linalg.Matrix, threshold float64) (Result, error) {
	if threshold <= 0 {
		return Result{}, fmt.Errorf("cluster: leader threshold %v <= 0", threshold)
	}
	n := x.Rows
	limit := threshold * threshold
	assign := make([]int, n)
	var leaders []int // point index of each cluster's founder
	for i := 0; i < n; i++ {
		row := x.Row(i)
		best := -1
		bestD := limit
		for c, li := range leaders {
			d := sqDistEarlyExit(row, x.Row(li), bestD)
			if d <= bestD {
				best = c
				bestD = d
			}
		}
		if best == -1 {
			best = len(leaders)
			leaders = append(leaders, i)
		}
		assign[i] = best
	}
	res := Result{
		Assign:    assign,
		K:         len(leaders),
		Centroids: computeCentroids(x, assign, len(leaders)),
	}
	return res, nil
}

// sameResult reports the first difference between two clusterings:
// K, any assignment, or any centroid value compared by its bits.
func sameResult(got, want Result) error {
	if got.K != want.K {
		return fmt.Errorf("K = %d, want %d", got.K, want.K)
	}
	if len(got.Assign) != len(want.Assign) {
		return fmt.Errorf("%d assignments, want %d", len(got.Assign), len(want.Assign))
	}
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			return fmt.Errorf("point %d in cluster %d, want %d", i, got.Assign[i], want.Assign[i])
		}
	}
	g, w := got.Centroids, want.Centroids
	if g.Rows != w.Rows || g.Cols != w.Cols {
		return fmt.Errorf("centroids %dx%d, want %dx%d", g.Rows, g.Cols, w.Rows, w.Cols)
	}
	for i := range w.Data {
		if math.Float64bits(g.Data[i]) != math.Float64bits(w.Data[i]) {
			return fmt.Errorf("centroid value %d = %v, want %v", i, g.Data[i], w.Data[i])
		}
	}
	return nil
}

// checkAgainstReference clusters x with both Leader and the frozen
// reference and fails on any difference.
func checkAgainstReference(t *testing.T, name string, x *linalg.Matrix, threshold float64) {
	t.Helper()
	want, err := referenceLeader(x, threshold)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	got, err := Leader(x, threshold)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := sameResult(got, want); err != nil {
		t.Fatalf("%s at threshold %v: %v", name, threshold, err)
	}
}

// TestLeaderMatchesReferenceOnFrames runs both on z-scored frames
// built the way subset's per-frame clustering builds them, for all
// three game profiles, two seeds each, across the threshold range
// the experiments sweep. +Inf exercises the linear-scan fallback.
func TestLeaderMatchesReferenceOnFrames(t *testing.T) {
	thresholds := []float64{0.1, 0.25, 0.5, 1, 2, math.Inf(1)}
	for _, p := range synth.SuiteProfiles() {
		p.Frames = 8
		for _, seed := range []uint64{3, 11} {
			w, err := tracetest.CachedWorkload(p, seed)
			if err != nil {
				t.Fatal(err)
			}
			ex, err := features.NewExtractor(w)
			if err != nil {
				t.Fatal(err)
			}
			for fi := range w.Frames {
				x := ex.FrameInto(&w.Frames[fi], &linalg.Matrix{})
				var z linalg.ZScore
				z.Fit(x)
				for i := 0; i < x.Rows; i++ {
					z.Apply(x.Row(i))
				}
				for _, th := range thresholds {
					checkAgainstReference(t, fmt.Sprintf("%s/seed%d/frame%d", p.Name, seed, fi), x, th)
				}
			}
		}
	}
}

// TestLeaderTieGoesToLaterLeader pins the tie rule from both sides: a
// point equidistant from leaders 0 and 1 joins 1 whether the probe of
// the previous point's leader finds 0 or 1 first.
func TestLeaderTieGoesToLaterLeader(t *testing.T) {
	for name, x := range map[string]*linalg.Matrix{
		"probe-finds-earlier": linalg.FromRows([][]float64{{-1, 0}, {1, 0}, {-1, 0.1}, {0, 0}}),
		"probe-finds-later":   linalg.FromRows([][]float64{{-1, 0}, {1, 0}, {1, 0.1}, {0, 0}}),
	} {
		res, err := Leader(x, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		if res.K != 2 || res.Assign[3] != 1 {
			t.Errorf("%s: K=%d, equidistant point in cluster %d, want 2 clusters and cluster 1", name, res.K, res.Assign[3])
		}
		checkAgainstReference(t, name, x, 1.5)
	}
}

// TestLeaderMatchesReferenceOnCraftedMatrices covers the shapes real
// frames rarely produce: exact ties on a lattice, duplicates, constant
// columns, one row, non-finite values, overflowing squares and
// subnormals.
func TestLeaderMatchesReferenceOnCraftedMatrices(t *testing.T) {
	rng := dcmath.NewRNG(42)
	lattice := linalg.NewMatrix(300, 3)
	for i := range lattice.Data {
		lattice.Data[i] = float64(rng.Intn(5)) // integer distances: ties everywhere
	}
	dups := linalg.NewMatrix(40, 4)
	for i := 0; i < dups.Rows; i++ {
		copy(dups.Row(i), []float64{float64(i % 3), 1, 2, 3})
	}
	constCols := linalg.NewMatrix(60, 5)
	for i := 0; i < constCols.Rows; i++ {
		copy(constCols.Row(i), []float64{7, rng.Normal(0, 1), 7, rng.Normal(0, 1), -2})
	}
	nan := randomPoints(rng, 50, 3, 1)
	nan.Set(17, 1, math.NaN())
	inf := randomPoints(rng, 50, 3, 1)
	inf.Set(0, 0, math.Inf(1))
	inf.Set(30, 2, math.Inf(-1))
	cases := map[string]*linalg.Matrix{
		"lattice":     lattice,
		"duplicates":  dups,
		"const-cols":  constCols,
		"one-row":     linalg.FromRows([][]float64{{0.5, -0.5}}),
		"nan-row":     nan,
		"inf-rows":    inf,
		"all-nan-row": linalg.FromRows([][]float64{{1, 1}, {math.NaN(), math.NaN()}, {1, 1.1}}),
	}
	// Magnitudes near and past the square's overflow: 1e154 squares to
	// 1e308, two such coordinates overflow the norm, and distances
	// between ±1e154 overflow while both norms stay finite.
	for _, mag := range []float64{1e154, 1.3e154, 1e200, 1e300} {
		big := linalg.NewMatrix(40, 2)
		for i := 0; i < big.Rows; i++ {
			sign := float64(1 - 2*(i%2))
			big.Set(i, i%2, sign*mag*(1+float64(i%4)/8))
		}
		cases[fmt.Sprintf("magnitude-%g", mag)] = big
		one := linalg.NewMatrix(40, 1)
		for i := 0; i < one.Rows; i++ {
			one.Data[i] = float64(1-2*(i%2)) * mag * float64(1+i%3)
		}
		cases[fmt.Sprintf("magnitude-%g-1d", mag)] = one
	}
	sub := linalg.NewMatrix(40, 3)
	for i := range sub.Data {
		sub.Data[i] = float64(rng.Intn(7)) * math.SmallestNonzeroFloat64 * 3
	}
	cases["subnormals"] = sub
	for name, x := range cases {
		for _, th := range []float64{1e-300, 1e-10, 0.5, 1, 2, 1e10, 1e154, 1e160, math.Inf(1)} {
			checkAgainstReference(t, name, x, th)
		}
	}
}

// TestLeaderBoundsFallback pins which inputs take the index and which
// the linear scan: the choice is made from the input alone.
func TestLeaderBoundsFallback(t *testing.T) {
	finite := linalg.FromRows([][]float64{{1, 2}, {1e154, 0}, {-1e154, 0}, {5e-324, 0}})
	if !new(leaderIndex).bound(finite, 0.25) {
		t.Error("finite matrix fell back to the linear scan")
	}
	for name, tc := range map[string]struct {
		x     *linalg.Matrix
		limit float64
	}{
		"no rows":           {&linalg.Matrix{Cols: 2}, 1},
		"nan coordinate":    {linalg.FromRows([][]float64{{1, 2}, {math.NaN(), 0}}), 1},
		"inf coordinate":    {linalg.FromRows([][]float64{{1, 2}, {0, math.Inf(-1)}}), 1},
		"norm overflows":    {linalg.FromRows([][]float64{{1e154, 1e154}}), 1},
		"pivot overflows":   {linalg.FromRows([][]float64{{1e154, 0}, {-1.2e154, 0}}), 1},
		"limit is infinite": {finite, math.Inf(1)},
	} {
		if new(leaderIndex).bound(tc.x, tc.limit) {
			t.Errorf("%s: took the index, want the linear scan", name)
		}
	}
}

// edgeThreshold returns the smallest threshold whose square reaches the
// squared distance d, which puts a pair at distance d exactly on the
// edge of the band.
func edgeThreshold(d float64) float64 {
	th := math.Sqrt(d)
	for th*th < d {
		th = math.Nextafter(th, math.Inf(1))
	}
	return th
}

// TestLeaderBandMarginAtBoundary builds leaders whose squared distance
// to a later point sits exactly at the limit while the computed norm
// gap, or pivot gap, exceeds the computed sqrt(limit): a band without
// the rounding margin would skip the leader the linear scan accepts.
// The test requires both kinds of case to occur, so it keeps
// exercising the margin.
func TestLeaderBandMarginAtBoundary(t *testing.T) {
	rng := dcmath.NewRNG(9)
	var normCritical, pivotCritical int
	for trial := 0; trial < 4000; trial++ {
		// Rows: pivot z, leader q, a far row that steers the probe
		// away from q, then p. q lies on the ray from z through p, so
		// the exact pivot gap equals the exact distance (and, with
		// z = 0, so does the norm gap): rounding alone decides which
		// computed value is larger.
		dim := 1 + rng.Intn(4)
		z, p, q, far := make([]float64, dim), make([]float64, dim), make([]float64, dim), make([]float64, dim)
		stretch := 1 + rng.Float64()*0.9
		for j := range p {
			if trial%2 == 1 {
				z[j] = rng.Normal(0, 1)
			}
			p[j] = rng.Normal(0, 1) * math.Pow(10, float64(rng.Intn(7)-3))
			q[j] = z[j] + (p[j]-z[j])*stretch
			far[j] = 1e9
		}
		x := linalg.FromRows([][]float64{z, q, far, p})
		th := edgeThreshold(sqDistEarlyExit(p, q, math.Inf(1)))
		limit := th * th
		var ix leaderIndex
		if !ix.bound(x, limit) {
			t.Fatalf("trial %d: finite rows fell back to the linear scan", trial)
		}
		if math.Abs(ix.norms[1]-ix.norms[3]) > math.Sqrt(limit) {
			normCritical++
		}
		if math.Abs(ix.pivots[1]-ix.pivots[3]) > math.Sqrt(limit) {
			pivotCritical++
		}
		checkAgainstReference(t, fmt.Sprintf("trial %d", trial), x, th)
	}
	if normCritical == 0 || pivotCritical == 0 {
		t.Fatalf("%d norm-critical and %d pivot-critical trials; the margin is untested", normCritical, pivotCritical)
	}
	t.Logf("%d norm-critical and %d pivot-critical trials", normCritical, pivotCritical)
}

// FuzzLeader holds Leader to the frozen reference bit for bit on
// arbitrary matrices. raw decodes data as float64 bit patterns (NaN,
// ±Inf, subnormals, overflowing squares); otherwise each byte is a
// signed lattice coordinate in quarter steps times scale, where exact
// ties abound, lattice points often lie on one ray (their norm gap
// equals their distance), and scale reaches the overflow and underflow
// edges. A nonzero snap replaces the threshold with the smallest one
// whose square reaches the squared distance from the last row to row
// snap-1, which puts that pair exactly on the band's edge.
func FuzzLeader(f *testing.F) {
	f.Add([]byte{0, 4, 8, 4, 0, 8, 4, 4, 2, 6}, uint8(2), 1.0, 1.0, false, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(0), 0.5, 1e154, false, uint8(0))
	f.Add([]byte{1, 2, 3, 255, 254, 253}, uint8(1), 1e-321, 1e-320, false, uint8(0))
	f.Add(make([]byte, 48), uint8(3), 2.0, 1.0, true, uint8(0))
	f.Add([]byte{4, 8, 100, 100, 6, 12}, uint8(1), 1.0, 0.3, false, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, cols uint8, threshold, scale float64, raw bool, snap uint8) {
		dim := int(cols%8) + 1
		var vals []float64
		if raw {
			for ; len(data) >= 8; data = data[8:] {
				vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			}
		} else {
			for _, b := range data {
				vals = append(vals, float64(int8(b))/4*scale)
			}
		}
		rows := min(len(vals)/dim, 256)
		if rows == 0 {
			return
		}
		x := linalg.NewMatrix(rows, dim)
		copy(x.Data, vals)
		if snap > 0 {
			d := sqDistEarlyExit(x.Row(rows-1), x.Row(int(snap-1)%rows), math.Inf(1))
			if d > 0 && d <= math.MaxFloat64 {
				threshold = edgeThreshold(d)
			}
		}
		if !(threshold > 0) {
			if _, err := Leader(x, threshold); err == nil {
				t.Fatalf("threshold %v accepted", threshold)
			}
			return
		}
		checkAgainstReference(t, "fuzz", x, threshold)
	})
}
