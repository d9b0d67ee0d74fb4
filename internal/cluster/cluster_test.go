package cluster

import (
	"math"
	"testing"

	"repro/internal/dcmath"
	"repro/internal/linalg"
)

// blobs builds n points around k well-separated 2D centers with the
// given spread, returning the matrix and ground-truth labels.
func blobs(n, k int, spread float64, seed uint64) (*linalg.Matrix, []int) {
	rng := dcmath.NewRNG(seed)
	x := linalg.NewMatrix(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % k
		labels[i] = c
		x.Set(i, 0, float64(c)*10+rng.Normal(0, spread))
		x.Set(i, 1, float64(c%3)*10+rng.Normal(0, spread))
	}
	return x, labels
}

// agree checks that two labelings induce the same partition.
func agree(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[int]int{}
	rev := map[int]int{}
	for i := range a {
		if m, ok := fwd[a[i]]; ok && m != b[i] {
			return false
		}
		if m, ok := rev[b[i]]; ok && m != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		rev[b[i]] = a[i]
	}
	return true
}

func TestLeaderRecoverBlobs(t *testing.T) {
	x, want := blobs(300, 4, 0.3, 1)
	res, err := Leader(x, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.K != 4 {
		t.Fatalf("K = %d, want 4", res.K)
	}
	if !agree(res.Assign, want) {
		t.Error("leader clustering did not recover the blob partition")
	}
}

func TestLeaderThresholdMonotone(t *testing.T) {
	x, _ := blobs(200, 4, 1.0, 2)
	prevK := math.MaxInt
	for _, th := range []float64{0.5, 1.0, 2.0, 5.0, 50.0} {
		res, err := Leader(x, th)
		if err != nil {
			t.Fatal(err)
		}
		if res.K > prevK {
			t.Errorf("threshold %v: K=%d grew from %d", th, res.K, prevK)
		}
		prevK = res.K
	}
	// Enormous threshold: one cluster; efficiency maximal.
	res, _ := Leader(x, 1e9)
	if res.K != 1 {
		t.Errorf("huge threshold K = %d", res.K)
	}
	if got := res.Efficiency(); got != 1-1.0/200 {
		t.Errorf("efficiency = %v", got)
	}
}

func TestLeaderTinyThresholdSingletons(t *testing.T) {
	x, _ := blobs(50, 4, 1.0, 3)
	res, _ := Leader(x, 1e-12)
	if res.K != 50 {
		t.Errorf("K = %d, want 50 singletons", res.K)
	}
	if res.Efficiency() != 0 {
		t.Errorf("efficiency of singletons = %v", res.Efficiency())
	}
}

func TestLeaderIdenticalPointsOneCluster(t *testing.T) {
	x := linalg.NewMatrix(20, 3)
	for i := 0; i < 20; i++ {
		copy(x.Row(i), []float64{1, 2, 3})
	}
	res, _ := Leader(x, 0.1)
	if res.K != 1 {
		t.Errorf("identical points K = %d", res.K)
	}
	if !linalg.EqualVec(res.Centroids.Row(0), []float64{1, 2, 3}, 1e-12) {
		t.Error("centroid wrong")
	}
}

func TestLeaderErrors(t *testing.T) {
	x, _ := blobs(10, 2, 1, 4)
	if _, err := Leader(x, 0); err == nil {
		t.Error("zero threshold accepted")
	}
}

// TestThresholdNaNRejected: a NaN threshold fails every `<= 0` test,
// so each entry point must reject it explicitly instead of clustering
// every point alone.
func TestThresholdNaNRejected(t *testing.T) {
	x, _ := blobs(10, 2, 1, 4)
	nan := math.NaN()
	if _, err := Leader(x, nan); err == nil {
		t.Error("Leader accepted a NaN threshold")
	}
	if _, err := Agglomerative(x, nan); err == nil {
		t.Error("Agglomerative accepted a NaN threshold")
	}
}

func TestKMeansRecoverBlobs(t *testing.T) {
	x, want := blobs(300, 4, 0.3, 5)
	res, err := KMeans(x, 4, dcmath.NewRNG(1), 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if !agree(res.Assign, want) {
		t.Error("kmeans did not recover the blob partition")
	}
}

func TestKMeansClampK(t *testing.T) {
	x, _ := blobs(5, 2, 0.1, 6)
	res, err := KMeans(x, 50, dcmath.NewRNG(2), 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 5 {
		t.Errorf("K = %d, want clamped to 5", res.K)
	}
	if err := res.Validate(); err != nil {
		t.Error(err)
	}
}

func TestKMeansDeterministicGivenRNG(t *testing.T) {
	x, _ := blobs(120, 3, 0.5, 7)
	a, _ := KMeans(x, 3, dcmath.NewRNG(9), 100)
	b, _ := KMeans(x, 3, dcmath.NewRNG(9), 100)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("kmeans not deterministic with fixed rng")
		}
	}
}

func TestKMeansNoEmptyClusters(t *testing.T) {
	// Adversarial: far fewer distinct points than k.
	x := linalg.NewMatrix(30, 2)
	for i := 0; i < 30; i++ {
		x.Set(i, 0, float64(i%3))
	}
	res, err := KMeans(x, 10, dcmath.NewRNG(3), 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Errorf("empty clusters survived: %v", err)
	}
}

func TestKMeansErrors(t *testing.T) {
	x, _ := blobs(10, 2, 1, 8)
	if _, err := KMeans(x, 0, dcmath.NewRNG(1), 10); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := KMeans(x, 2, dcmath.NewRNG(1), 0); err == nil {
		t.Error("maxIter=0 accepted")
	}
}

func TestKMeansObjectiveNotWorseThanLeader(t *testing.T) {
	// With the same cluster count, k-means (which optimizes WithinSS)
	// should not be dramatically worse than leader clustering.
	x, _ := blobs(200, 4, 1.0, 10)
	lead, _ := Leader(x, 3.0)
	km, _ := KMeans(x, lead.K, dcmath.NewRNG(4), 100)
	if WithinSS(x, &km) > WithinSS(x, &lead)*1.5 {
		t.Errorf("kmeans WithinSS %v much worse than leader %v", WithinSS(x, &km), WithinSS(x, &lead))
	}
}

func TestAgglomerativeRecoverBlobs(t *testing.T) {
	x, want := blobs(120, 4, 0.3, 11)
	res, err := Agglomerative(x, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.K != 4 {
		t.Fatalf("K = %d, want 4", res.K)
	}
	if !agree(res.Assign, want) {
		t.Error("agglomerative did not recover the blob partition")
	}
}

func TestAgglomerativeThresholdExtremes(t *testing.T) {
	x, _ := blobs(40, 4, 0.5, 12)
	all, _ := Agglomerative(x, 1e9)
	if all.K != 1 {
		t.Errorf("huge threshold K = %d", all.K)
	}
	none, _ := Agglomerative(x, 1e-12)
	if none.K != 40 {
		t.Errorf("tiny threshold K = %d", none.K)
	}
	if _, err := Agglomerative(x, 0); err == nil {
		t.Error("zero threshold accepted")
	}
}

func TestMedoids(t *testing.T) {
	x, _ := blobs(90, 3, 0.4, 13)
	res, _ := Leader(x, 3.0)
	meds := res.Medoids(x)
	if len(meds) != res.K {
		t.Fatalf("medoids = %d, K = %d", len(meds), res.K)
	}
	members := res.Members()
	for c, m := range meds {
		if res.Assign[m] != c {
			t.Fatalf("medoid %d not member of cluster %d", m, c)
		}
		// Medoid must be at least as close to the centroid as any member.
		md := linalg.SqDist(x.Row(m), res.Centroids.Row(c))
		for _, i := range members[c] {
			if linalg.SqDist(x.Row(i), res.Centroids.Row(c)) < md-1e-12 {
				t.Fatalf("cluster %d: member %d closer to centroid than medoid", c, i)
			}
		}
	}
}

func TestResultValidateRejects(t *testing.T) {
	x, _ := blobs(10, 2, 0.1, 14)
	res, _ := Leader(x, 3.0)
	bad := res
	bad.Assign = append([]int{}, res.Assign...)
	bad.Assign[0] = 99
	if bad.Validate() == nil {
		t.Error("out-of-range assignment accepted")
	}
	bad2 := res
	bad2.Centroids = nil
	if bad2.Validate() == nil {
		t.Error("nil centroids accepted")
	}
}

func TestSilhouetteQualityOrdering(t *testing.T) {
	// Well-separated blobs clustered correctly -> high silhouette;
	// random assignment -> near zero or negative.
	x, want := blobs(120, 3, 0.3, 15)
	good := Result{Assign: want, K: 3, Centroids: computeCentroids(x, want, 3)}
	s := Silhouette(x, &good)
	if s < 0.7 {
		t.Errorf("good clustering silhouette = %v, want high", s)
	}
	rng := dcmath.NewRNG(16)
	randAssign := make([]int, 120)
	for i := range randAssign {
		randAssign[i] = rng.Intn(3)
	}
	randRes := Result{Assign: randAssign, K: 3, Centroids: computeCentroids(x, randAssign, 3)}
	if rs := Silhouette(x, &randRes); rs >= s {
		t.Errorf("random clustering silhouette %v >= good %v", rs, s)
	}
}

func TestDaviesBouldinOrdering(t *testing.T) {
	x, want := blobs(120, 3, 0.3, 17)
	good := Result{Assign: want, K: 3, Centroids: computeCentroids(x, want, 3)}
	rng := dcmath.NewRNG(18)
	randAssign := make([]int, 120)
	for i := range randAssign {
		randAssign[i] = rng.Intn(3)
	}
	randRes := Result{Assign: randAssign, K: 3, Centroids: computeCentroids(x, randAssign, 3)}
	g, r := DaviesBouldin(x, &good), DaviesBouldin(x, &randRes)
	if g >= r {
		t.Errorf("DB good %v >= random %v (lower is better)", g, r)
	}
	single := Result{Assign: make([]int, 10), K: 1, Centroids: linalg.NewMatrix(1, 2)}
	if DaviesBouldin(x, &single) != 0 {
		t.Error("single-cluster DB should be 0")
	}
}

func TestQualityAgreement(t *testing.T) {
	// All three algorithms on the same easy data should yield the same
	// partition.
	x, _ := blobs(90, 3, 0.2, 19)
	lead, _ := Leader(x, 3.0)
	km, _ := KMeans(x, 3, dcmath.NewRNG(5), 100)
	agg, _ := Agglomerative(x, 3.0)
	if !agree(lead.Assign, km.Assign) || !agree(lead.Assign, agg.Assign) {
		t.Error("algorithms disagree on trivially separable data")
	}
}
