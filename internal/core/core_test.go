package core

import (
	"math"
	"testing"

	"landmarkrd/internal/graph"
	"landmarkrd/internal/lap"
	"landmarkrd/internal/randx"
)

// testBA returns a small BA graph used across the core tests.
func testBA(t testing.TB, n int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.BarabasiAlbert(n, 3, randx.New(seed))
	if err != nil {
		t.Fatalf("BarabasiAlbert: %v", err)
	}
	return g
}

func exactRD(t testing.TB, g *graph.Graph, s, u int) float64 {
	t.Helper()
	r, err := lap.ResistanceCG(g, s, u)
	if err != nil {
		t.Fatalf("ResistanceCG(%d,%d): %v", s, u, err)
	}
	return r
}

func TestPushMatchesExact(t *testing.T) {
	g := testBA(t, 300, 42)
	rng := randx.New(7)
	v, err := SelectLandmark(g, MaxDegree, rng)
	if err != nil {
		t.Fatalf("SelectLandmark: %v", err)
	}
	pe, err := NewPushEstimator(g, v, PushOptions{Theta: 1e-8})
	if err != nil {
		t.Fatalf("NewPushEstimator: %v", err)
	}
	for _, pair := range [][2]int{{5, 250}, {0, 299}, {17, 111}} {
		s, u := pair[0], pair[1]
		if s == v || u == v {
			continue
		}
		exact := exactRD(t, g, s, u)
		est, err := pe.Pair(s, u)
		if err != nil {
			t.Fatalf("Pair(%d,%d): %v", s, u, err)
		}
		if !est.Converged {
			t.Errorf("Pair(%d,%d): not converged", s, u)
		}
		if diff := math.Abs(est.Value - exact); diff > 1e-4 {
			t.Errorf("Pair(%d,%d) = %v, want %v (diff %v)", s, u, est.Value, exact, diff)
		}
		if est.ErrBound > 0 && math.Abs(est.Value-exact) > est.ErrBound+1e-12 {
			t.Errorf("Pair(%d,%d): error %v exceeds claimed bound %v",
				s, u, math.Abs(est.Value-exact), est.ErrBound)
		}
	}
}

func TestAbWalkMatchesExact(t *testing.T) {
	g := testBA(t, 200, 43)
	rng := randx.New(9)
	v, _ := SelectLandmark(g, MaxDegree, rng)
	ab, err := NewAbWalkEstimator(g, v, AbWalkOptions{Walks: 30000}, rng.Uint64())
	if err != nil {
		t.Fatalf("NewAbWalkEstimator: %v", err)
	}
	s, u := 5, 150
	if s == v || u == v {
		s, u = 6, 151
	}
	exact := exactRD(t, g, s, u)
	est, err := ab.Pair(s, u)
	if err != nil {
		t.Fatalf("Pair: %v", err)
	}
	if diff := math.Abs(est.Value - exact); diff > 0.05*math.Max(exact, 0.2) {
		t.Errorf("AbWalk = %v, want %v (diff %v)", est.Value, exact, diff)
	}
}

func TestBiPushMatchesExact(t *testing.T) {
	g := testBA(t, 300, 44)
	rng := randx.New(11)
	v, _ := SelectLandmark(g, MaxDegree, rng)
	bp, err := NewBiPushEstimator(g, v, BiPushOptions{PushTheta: 1e-2, Walks: 4000}, rng.Uint64())
	if err != nil {
		t.Fatalf("NewBiPushEstimator: %v", err)
	}
	s, u := 5, 250
	if s == v || u == v {
		s, u = 6, 251
	}
	exact := exactRD(t, g, s, u)
	est, err := bp.Pair(s, u)
	if err != nil {
		t.Fatalf("Pair: %v", err)
	}
	if diff := math.Abs(est.Value - exact); diff > 0.03*math.Max(exact, 0.2) {
		t.Errorf("BiPush = %v, want %v (diff %v)", est.Value, exact, diff)
	}
}

func TestIndexSingleSourceExact(t *testing.T) {
	g := testBA(t, 150, 45)
	rng := randx.New(13)
	v, _ := SelectLandmark(g, MaxDegree, rng)
	idx, err := BuildIndex(g, v, IndexOptions{Mode: DiagExactCG}, rng)
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	s := 7
	if s == v {
		s = 8
	}
	all, err := idx.SingleSource(s, SingleSourceOptions{})
	if err != nil {
		t.Fatalf("SingleSource: %v", err)
	}
	for _, u := range []int{0, 50, 100, 149, v} {
		want := exactRD(t, g, s, u)
		if diff := math.Abs(all[u] - want); diff > 1e-5 {
			t.Errorf("SingleSource[%d] = %v, want %v", u, all[u], want)
		}
	}
	if all[s] != 0 {
		t.Errorf("SingleSource[s] = %v, want 0", all[s])
	}
}
