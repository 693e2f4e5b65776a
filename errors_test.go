package landmarkrd

// Error-path contract for the public API: every entry point must reject
// nil graphs, disconnected graphs, out-of-range vertices, and invalid
// landmarks with typed, errors.Is-testable errors — never a panic, never
// a NaN, never a silently wrong finite answer.

import (
	"errors"
	"testing"
)

// disconnectedGraph returns two disjoint triangles.
func disconnectedGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(5, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func smallGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := BarabasiAlbert(50, 2, 3)
	if err != nil {
		t.Fatalf("BarabasiAlbert: %v", err)
	}
	return g
}

// TestNilGraphRejected drives every public constructor and query function
// with a nil graph and requires ErrNilGraph — not a panic.
func TestNilGraphRejected(t *testing.T) {
	cases := []struct {
		name string
		call func() error
	}{
		{"Exact", func() error { _, err := Exact(nil, 0, 1); return err }},
		{"CommuteTime", func() error { _, err := CommuteTime(nil, 0, 1); return err }},
		{"Potential", func() error { _, err := Potential(nil, 0, 1); return err }},
		{"ComputeElectricFlow", func() error { _, err := ComputeElectricFlow(nil, 0, 1); return err }},
		{"ConditionNumber", func() error { _, err := ConditionNumber(nil, 1); return err }},
		{"NewEstimator", func() error { _, err := NewEstimator(nil, BiPush, Options{}); return err }},
		{"NewEstimatorAt", func() error { _, err := NewEstimatorAt(nil, Push, 0, Options{}); return err }},
		{"SelectLandmark", func() error { _, err := SelectLandmark(nil, MaxDegree, 1); return err }},
		{"BuildLandmarkIndex", func() error { _, err := BuildLandmarkIndex(nil, 0, DiagExactCG, 1); return err }},
		{"NewLapSolver", func() error { _, err := NewLapSolver(nil, 1); return err }},
		{"BuildSketch", func() error { _, err := BuildSketch(nil, 0.3, 1); return err }},
		{"NewMultiLandmark", func() error { _, err := NewMultiLandmark(nil, 3, Options{}); return err }},
		{"ClusterGraph", func() error { _, err := ClusterGraph(nil, 2, 1); return err }},
		{"NewDynamic", func() error { _, err := NewDynamic(nil); return err }},
		{"NewBatchEngine", func() error { _, err := NewBatchEngine(nil, BiPush, BatchOptions{}); return err }},
		{"Pairs", func() error { _, err := Pairs(nil, BiPush, []PairQuery{{0, 1}}, BatchOptions{}); return err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.call()
			if !errors.Is(err, ErrNilGraph) {
				t.Errorf("got %v, want ErrNilGraph", err)
			}
		})
	}
}

// TestDisconnectedGraphRejected drives constructors and exact solvers with
// a two-component graph and requires ErrDisconnected. Before this
// contract existed, AbWalk would hang-then-truncate into a biased finite
// value, Push would spin to its op cap, and CG would simply not converge —
// three different silent failures for the same user error.
func TestDisconnectedGraphRejected(t *testing.T) {
	g := disconnectedGraph(t)
	cases := []struct {
		name string
		call func() error
	}{
		{"Exact", func() error { _, err := Exact(g, 0, 3); return err }},
		{"ExactWithinComponent", func() error { _, err := Exact(g, 0, 1); return err }},
		{"CommuteTime", func() error { _, err := CommuteTime(g, 0, 3); return err }},
		{"Potential", func() error { _, err := Potential(g, 0, 3); return err }},
		{"ComputeElectricFlow", func() error { _, err := ComputeElectricFlow(g, 0, 3); return err }},
		{"NewEstimatorAbWalk", func() error { _, err := NewEstimatorAt(g, AbWalk, 0, Options{}); return err }},
		{"NewEstimatorPush", func() error { _, err := NewEstimatorAt(g, Push, 0, Options{}); return err }},
		{"NewEstimatorBiPush", func() error { _, err := NewEstimatorAt(g, BiPush, 0, Options{}); return err }},
		{"BuildLandmarkIndex", func() error { _, err := BuildLandmarkIndex(g, 0, DiagExactCG, 1); return err }},
		{"BuildSketch", func() error { _, err := BuildSketch(g, 0.3, 1); return err }},
		{"NewMultiLandmark", func() error { _, err := NewMultiLandmark(g, 2, Options{}); return err }},
		{"ClusterGraph", func() error { _, err := ClusterGraph(g, 2, 1); return err }},
		{"NewDynamic", func() error { _, err := NewDynamic(g); return err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.call()
			if !errors.Is(err, ErrDisconnected) {
				t.Errorf("got %v, want ErrDisconnected", err)
			}
		})
	}
}

// TestOutOfRangeVerticesRejected checks vertex validation on query paths.
func TestOutOfRangeVerticesRejected(t *testing.T) {
	g := smallGraph(t)
	est, err := NewEstimatorAt(g, BiPush, g.MaxDegreeVertex(), Options{Seed: 1})
	if err != nil {
		t.Fatalf("NewEstimatorAt: %v", err)
	}
	idx, err := BuildLandmarkIndex(g, g.MaxDegreeVertex(), DiagExactCG, 1)
	if err != nil {
		t.Fatalf("BuildLandmarkIndex: %v", err)
	}
	dyn, err := NewDynamic(g)
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	pf, err := BuildPortfolioIndex(g, PortfolioBuildOptions{K: 4, Mode: DiagExactCG, Seed: 1})
	if err != nil {
		t.Fatalf("BuildPortfolioIndex: %v", err)
	}
	routed, err := NewBatchEngine(g, BiPush, BatchOptions{Portfolio: pf, Options: Options{Seed: 1}})
	if err != nil {
		t.Fatalf("NewBatchEngine: %v", err)
	}
	// routedErr returns q's error from a routed batch, in which the query
	// beside it must still be answered.
	routedErr := func(q PairQuery) error {
		res, err := routed.Pairs([]PairQuery{q, {S: 1, T: 2}})
		if err != nil || res[1].Err != nil {
			t.Fatalf("batch err %v, valid query's err %v", err, res[1].Err)
		}
		return res[0].Err
	}
	cases := []struct {
		name string
		call func() error
	}{
		{"ExactNegative", func() error { _, err := Exact(g, -1, 3); return err }},
		{"ExactTooLarge", func() error { _, err := Exact(g, 2, g.N()); return err }},
		{"EstimatorPairNegative", func() error { _, err := est.Pair(-1, 3); return err }},
		{"EstimatorPairTooLarge", func() error { _, err := est.Pair(1, g.N()+5); return err }},
		{"SingleSourceTooLarge", func() error { _, err := SingleSource(idx, g.N()); return err }},
		{"DynamicAddEdgeBad", func() error { return dyn.AddEdge(0, g.N(), 1) }},
		{"DynamicResistanceBad", func() error { _, err := dyn.Resistance(-2, 1); return err }},
		{"PotentialNegative", func() error { _, err := Potential(g, -1, 1); return err }},
		// Portfolio routing indexes the landmark columns by s and t.
		{"RoutedBatchNegative", func() error { return routedErr(PairQuery{S: -1, T: 3}) }},
		{"RoutedBatchTooLarge", func() error { return routedErr(PairQuery{S: 4, T: g.N()}) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.call()
			if err == nil {
				t.Error("out-of-range vertex accepted")
			}
			if errors.Is(err, ErrInternal) {
				t.Errorf("out-of-range vertex raised a panic: %v", err)
			}
		})
	}
}

// TestInvalidLandmarkRejected checks landmark validation in every
// constructor that takes one.
func TestInvalidLandmarkRejected(t *testing.T) {
	g := smallGraph(t)
	for _, lm := range []int{-1, g.N(), g.N() + 100} {
		if _, err := NewEstimatorAt(g, BiPush, lm, Options{}); err == nil {
			t.Errorf("NewEstimatorAt accepted landmark %d", lm)
		}
		if _, err := BuildLandmarkIndex(g, lm, DiagExactCG, 1); err == nil {
			t.Errorf("BuildLandmarkIndex accepted landmark %d", lm)
		}
		if _, err := NewBatchEngine(g, BiPush, BatchOptions{PinLandmark: true, Landmark: lm}); err == nil {
			t.Errorf("NewBatchEngine accepted landmark %d", lm)
		}
	}
}

// TestZeroWeightEdgesRejected: non-positive conductances are rejected at
// graph construction, the single place they can be stopped before they
// poison every downstream degree and transition probability.
func TestZeroWeightEdgesRejected(t *testing.T) {
	for _, w := range []float64{0, -1} {
		b := NewBuilder(3)
		b.AddWeightedEdge(0, 1, 1)
		b.AddWeightedEdge(1, 2, w)
		if _, err := b.Build(); err == nil {
			t.Errorf("Build accepted edge weight %v", w)
		}
	}
	// The dynamic updater takes weights at query time too.
	g := smallGraph(t)
	dyn, err := NewDynamic(g)
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	if err := dyn.AddEdge(0, 1, 0); err == nil {
		t.Error("dynamic AddEdge accepted zero weight")
	}
	if err := dyn.AddEdge(0, 1, -2); err == nil {
		t.Error("dynamic AddEdge accepted negative weight")
	}
}

// TestSingleVertexGraph: the one-vertex graph is connected by convention;
// the only answerable query is r(0,0) = 0, and everything needing two
// distinct vertices must fail cleanly.
func TestSingleVertexGraph(t *testing.T) {
	g, err := NewBuilder(1).Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !g.IsConnected() {
		t.Error("single-vertex graph should count as connected")
	}
	if r, err := Exact(g, 0, 0); err != nil || r != 0 {
		t.Errorf("Exact(0,0) = %v, %v; want 0, nil", r, err)
	}
	if _, err := Exact(g, 0, 1); err == nil {
		t.Error("Exact accepted out-of-range vertex on n=1")
	}
	if _, err := BuildSketch(g, 0.3, 1); err == nil {
		t.Error("BuildSketch accepted single-vertex graph")
	}
	if _, err := ComputeElectricFlow(g, 0, 0); err == nil {
		t.Error("ComputeElectricFlow accepted s == t")
	}
}

// TestSameVertexQueries: r(s,s) = 0 with a nil error on every query path
// that defines it.
func TestSameVertexQueries(t *testing.T) {
	g := smallGraph(t)
	if r, err := Exact(g, 7, 7); err != nil || r != 0 {
		t.Errorf("Exact(7,7) = %v, %v; want 0, nil", r, err)
	}
	est, err := NewEstimatorAt(g, BiPush, g.MaxDegreeVertex(), Options{Seed: 1})
	if err != nil {
		t.Fatalf("NewEstimatorAt: %v", err)
	}
	s := (g.MaxDegreeVertex() + 1) % g.N()
	res, err := est.Pair(s, s)
	if err != nil || res.Value != 0 || !res.Converged {
		t.Errorf("Pair(s,s) = %+v, %v; want zero converged estimate", res, err)
	}
	dyn, err := NewDynamic(g)
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	if r, err := dyn.Resistance(s, s); err != nil || r != 0 {
		t.Errorf("dynamic.Resistance(s,s) = %v, %v; want 0, nil", r, err)
	}
}
