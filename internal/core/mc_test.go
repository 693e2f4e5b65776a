package core

import (
	"math"
	"testing"

	"landmarkrd/internal/graph"
	"landmarkrd/internal/lap"
	"landmarkrd/internal/randx"
)

func TestAbWalkUnbiasedAcrossSeeds(t *testing.T) {
	g := testBA(t, 80, 70)
	v := g.MaxDegreeVertex()
	s, u := 3, 70
	if s == v || u == v {
		s, u = 4, 71
	}
	want := exactRD(t, g, s, u)
	// Average over independent estimator instances: the grand mean must
	// approach the truth (unbiasedness), and the spread must shrink.
	var grand float64
	const reps = 20
	for i := 0; i < reps; i++ {
		ab, err := NewAbWalkEstimator(g, v, AbWalkOptions{Walks: 500}, uint64(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		est, err := ab.Pair(s, u)
		if err != nil {
			t.Fatal(err)
		}
		grand += est.Value / reps
	}
	if math.Abs(grand-want) > 0.02*math.Max(want, 0.2) {
		t.Errorf("grand mean %v, want %v", grand, want)
	}
}

func TestAbWalkCIContainsTruth(t *testing.T) {
	g := testBA(t, 100, 71)
	v := g.MaxDegreeVertex()
	s, u := 5, 80
	if s == v || u == v {
		s, u = 6, 81
	}
	want := exactRD(t, g, s, u)
	hits := 0
	const reps = 20
	for i := 0; i < reps; i++ {
		ab, _ := NewAbWalkEstimator(g, v, AbWalkOptions{Walks: 400}, uint64(2000+i))
		est, half, err := ab.PairWithCI(s, u)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.Value-want) <= half {
			hits++
		}
	}
	// A 95% CI should cover the truth almost always over 20 reps; require
	// at least 16 to keep the test robust.
	if hits < 16 {
		t.Errorf("CI covered truth only %d/%d times", hits, reps)
	}
}

func TestAbWalkTruncationReported(t *testing.T) {
	g, err := graph.Grid2D(20, 20, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := NewAbWalkEstimator(g, 0, AbWalkOptions{Walks: 10, MaxSteps: 3}, 3)
	est, err := ab.Pair(150, 399)
	if err != nil {
		t.Fatal(err)
	}
	if est.Converged {
		t.Error("3-step truncated walks reported as converged")
	}
}

func TestAbWalkValidation(t *testing.T) {
	g := testBA(t, 50, 72)
	if _, err := NewAbWalkEstimator(g, 999, AbWalkOptions{}, 1); err == nil {
		t.Error("invalid landmark accepted")
	}
	ab, _ := NewAbWalkEstimator(g, 3, AbWalkOptions{Walks: 10}, 1)
	if _, err := ab.Pair(3, 10); err != ErrLandmarkConflict {
		t.Errorf("Pair(landmark,.) = %v", err)
	}
	if est, err := ab.Pair(8, 8); err != nil || est.Value != 0 || !est.Converged {
		t.Errorf("Pair(s,s) = %+v, %v", est, err)
	}
	if ab.Landmark() != 3 {
		t.Errorf("Landmark() = %d", ab.Landmark())
	}
}

func TestBiPushZeroWalksEqualsPush(t *testing.T) {
	// With Walks forced to zero the correction vanishes and BiPush must
	// coincide with plain Push at the same theta.
	g := testBA(t, 120, 73)
	v := g.MaxDegreeVertex()
	s, u := 7, 100
	if s == v || u == v {
		s, u = 8, 101
	}
	theta := 1e-3
	bp, _ := NewBiPushEstimator(g, v, BiPushOptions{PushTheta: theta, Walks: -1}, 1)
	got, err := bp.Pair(s, u)
	if err != nil {
		t.Fatal(err)
	}
	pe, _ := NewPushEstimator(g, v, PushOptions{Theta: theta})
	want, err := pe.Pair(s, u)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Value-want.Value) > 1e-12 {
		t.Errorf("BiPush(walks=0) = %v, Push = %v", got.Value, want.Value)
	}
}

func TestBiPushUnbiasedAcrossSeeds(t *testing.T) {
	g := testBA(t, 100, 74)
	v := g.MaxDegreeVertex()
	s, u := 9, 90
	if s == v || u == v {
		s, u = 10, 91
	}
	want := exactRD(t, g, s, u)
	var grand float64
	const reps = 20
	for i := 0; i < reps; i++ {
		bp, _ := NewBiPushEstimator(g, v, BiPushOptions{PushTheta: 5e-2, Walks: 300}, uint64(3000+i))
		est, err := bp.Pair(s, u)
		if err != nil {
			t.Fatal(err)
		}
		grand += est.Value / reps
	}
	if math.Abs(grand-want) > 0.03*math.Max(want, 0.2) {
		t.Errorf("grand mean %v, want %v", grand, want)
	}
}

func TestBiPushVarianceBelowAbWalk(t *testing.T) {
	// At an equal walk budget BiPush must have (much) lower spread than
	// AbWalk on a hub-landmark BA graph, since the push removes most of
	// the mass before sampling.
	g := testBA(t, 150, 75)
	v := g.MaxDegreeVertex()
	s, u := 11, 120
	if s == v || u == v {
		s, u = 12, 121
	}
	spread := func(f func(seed uint64) float64) float64 {
		var vals []float64
		var mean float64
		const reps = 15
		for i := 0; i < reps; i++ {
			x := f(uint64(4000 + i))
			vals = append(vals, x)
			mean += x / reps
		}
		var ss float64
		for _, x := range vals {
			ss += (x - mean) * (x - mean)
		}
		return math.Sqrt(ss / reps)
	}
	walks := 400
	sdAb := spread(func(seed uint64) float64 {
		ab, _ := NewAbWalkEstimator(g, v, AbWalkOptions{Walks: walks}, seed)
		est, _ := ab.Pair(s, u)
		return est.Value
	})
	sdBi := spread(func(seed uint64) float64 {
		bp, _ := NewBiPushEstimator(g, v, BiPushOptions{PushTheta: 1e-3, Walks: walks}, seed)
		est, _ := bp.Pair(s, u)
		return est.Value
	})
	if sdBi > sdAb {
		t.Errorf("BiPush spread %v not below AbWalk spread %v", sdBi, sdAb)
	}
}

func TestBiPushValidation(t *testing.T) {
	g := testBA(t, 50, 76)
	bp, err := NewBiPushEstimator(g, 3, BiPushOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bp.Pair(3, 10); err != ErrLandmarkConflict {
		t.Errorf("Pair(landmark,.) = %v", err)
	}
	if est, err := bp.Pair(8, 8); err != nil || est.Value != 0 {
		t.Errorf("Pair(s,s) = %v, %v", est.Value, err)
	}
	if _, err := NewBiPushEstimator(g, -2, BiPushOptions{}, 1); err == nil {
		t.Error("invalid landmark accepted")
	}
	if bp.Landmark() != 3 {
		t.Errorf("Landmark() = %d", bp.Landmark())
	}
}

func TestEstimatorsAgreeOnWeightedGraph(t *testing.T) {
	rng := randx.New(77)
	g0 := testBA(t, 100, 78)
	g, err := graph.TriangleWeighted(g0)
	if err != nil {
		t.Fatal(err)
	}
	v := g.MaxDegreeVertex()
	s, u := 3, 90
	if s == v || u == v {
		s, u = 4, 91
	}
	want, err := lap.ResistanceCG(g, s, u)
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := NewAbWalkEstimator(g, v, AbWalkOptions{Walks: 20000}, rng.Uint64())
	estAb, err := ab.Pair(s, u)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(estAb.Value-want) > 0.05*math.Max(want, 0.2) {
		t.Errorf("weighted AbWalk = %v, want %v", estAb.Value, want)
	}
	bp, _ := NewBiPushEstimator(g, v, BiPushOptions{PushTheta: 1e-3, Walks: 2000}, rng.Uint64())
	estBp, err := bp.Pair(s, u)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(estBp.Value-want) > 0.03*math.Max(want, 0.2) {
		t.Errorf("weighted BiPush = %v, want %v", estBp.Value, want)
	}
}
