package core

import (
	"context"
	"math"
	"testing"

	"landmarkrd/internal/graph"
	"landmarkrd/internal/lap"
)

func adaptiveTestPairs(g *graph.Graph, landmark, n int) []AdaptivePair {
	pairs := make([]AdaptivePair, 0, n)
	for i := 0; len(pairs) < n; i++ {
		s := (i*7 + 1) % g.N()
		t := (i*13 + g.N()/2) % g.N()
		if s == landmark || t == landmark || s == t {
			continue
		}
		pairs = append(pairs, AdaptivePair{S: s, T: t})
	}
	return pairs
}

// TestAdaptiveBatchDeterministicAcrossWorkers: for a fixed seed the full
// result set — values, error bounds, walk counts — must be bit-identical at
// any worker count, because each pair samples from a private stream and the
// allocation depends only on the deterministic pilot statistics.
func TestAdaptiveBatchDeterministicAcrossWorkers(t *testing.T) {
	g := testBA(t, 300, 41)
	landmark := g.MaxDegreeVertex()
	pairs := adaptiveTestPairs(g, landmark, 9)
	run := func(workers int) []AdaptiveResult {
		res, err := AdaptiveBatch(context.Background(), g, landmark, pairs,
			AdaptiveOptions{TotalWalks: 4000, PilotWalks: 32, Workers: workers}, 77)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		for i := range ref {
			a, b := ref[i].Estimate, got[i].Estimate
			if math.Float64bits(a.Value) != math.Float64bits(b.Value) ||
				math.Float64bits(a.ErrBound) != math.Float64bits(b.ErrBound) ||
				a.Walks != b.Walks || a.WalkSteps != b.WalkSteps {
				t.Fatalf("workers=%d pair %d: %+v != %+v", w, i, b, a)
			}
		}
	}
}

// TestAdaptiveBatchMatchesFixedBudget: AdaptiveBatch keys its walks as
// AbWalkEstimator does and folds its per-walk-pair statistic in walk-pair
// order, so a pair that got k walk-pairs over the pilot and top-up is
// answered bit for bit as a k-walk PairWithCI with the same seed, asked
// either way round.
func TestAdaptiveBatchMatchesFixedBudget(t *testing.T) {
	g := testBA(t, 300, 41)
	landmark := g.MaxDegreeVertex()
	pairs := adaptiveTestPairs(g, landmark, 6)
	const seed = 77
	res, err := AdaptiveBatch(context.Background(), g, landmark, pairs,
		AdaptiveOptions{TotalWalks: 2400, PilotWalks: 48, Workers: 2}, seed)
	if err != nil {
		t.Fatal(err)
	}
	topped := 0
	for i, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		k := r.Estimate.Walks / 2
		if k > 48 {
			topped++
		}
		ab, err := NewAbWalkEstimator(g, landmark, AbWalkOptions{Walks: k}, seed)
		if err != nil {
			t.Fatal(err)
		}
		p := pairs[i]
		est, half, err := ab.PairWithCI(p.T, p.S)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(est.Value) != math.Float64bits(r.Estimate.Value) ||
			math.Float64bits(half) != math.Float64bits(r.ErrBound) || est.WalkSteps != r.Estimate.WalkSteps {
			t.Errorf("pair %v (%d walk-pairs): adaptive %v ± %v (%d steps), fixed budget %v ± %v (%d steps)",
				p, k, r.Estimate.Value, r.ErrBound, r.Estimate.WalkSteps, est.Value, half, est.WalkSteps)
		}
	}
	if topped == 0 {
		t.Fatal("test is vacuous: no pair got a top-up")
	}
}

// TestAdaptiveBatchConservesBudget: the pilot plus top-up rounds must spend
// exactly TotalWalks walk-pairs across the live pairs, with every pair
// getting at least the pilot.
func TestAdaptiveBatchConservesBudget(t *testing.T) {
	g := testBA(t, 200, 42)
	landmark := g.MaxDegreeVertex()
	pairs := adaptiveTestPairs(g, landmark, 7)
	const total, pilot = 3000, 50
	res, err := AdaptiveBatch(context.Background(), g, landmark, pairs,
		AdaptiveOptions{TotalWalks: total, PilotWalks: pilot}, 5)
	if err != nil {
		t.Fatal(err)
	}
	spent := 0
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("pair %d: %v", i, r.Err)
		}
		walkPairs := r.Estimate.Walks / 2 // Walks counts both directions
		if walkPairs < pilot {
			t.Errorf("pair %d got %d walk-pairs, below the %d pilot", i, walkPairs, pilot)
		}
		spent += walkPairs
	}
	if spent != total {
		t.Errorf("budget: spent %d walk-pairs, want exactly %d", spent, total)
	}
}

// TestAdaptiveBatchSpendsMoreOnHardPairs: a pair with higher per-walk
// variance (distant endpoints on a path) must receive more budget than an
// easy near-landmark pair in the same batch.
func TestAdaptiveBatchSpendsMoreOnHardPairs(t *testing.T) {
	g, err := graph.Path(120)
	if err != nil {
		t.Fatal(err)
	}
	landmark := 0
	pairs := []AdaptivePair{
		{S: 1, T: 2},     // hugs the landmark: tiny variance
		{S: 100, T: 119}, // far end of the path: long walks, high variance
	}
	res, err := AdaptiveBatch(context.Background(), g, landmark, pairs,
		AdaptiveOptions{TotalWalks: 2000, PilotWalks: 64, MaxSteps: 200000}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res[1].Estimate.Walks <= res[0].Estimate.Walks {
		t.Errorf("hard pair got %d walks, easy pair %d — allocation is not variance-driven",
			res[1].Estimate.Walks, res[0].Estimate.Walks)
	}
}

// TestAdaptiveBatchAccuracy: estimates must land within a few reported error
// bounds of the exact resistance.
func TestAdaptiveBatchAccuracy(t *testing.T) {
	g := testBA(t, 150, 43)
	landmark := g.MaxDegreeVertex()
	pairs := adaptiveTestPairs(g, landmark, 5)
	res, err := AdaptiveBatch(context.Background(), g, landmark, pairs,
		AdaptiveOptions{TotalWalks: 30000, PilotWalks: 200}, 23)
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range pairs {
		exact, err := lap.ResistanceCG(g, pr.S, pr.T)
		if err != nil {
			t.Fatal(err)
		}
		got := res[i].Estimate.Value
		bound := res[i].ErrBound
		if math.Abs(got-exact) > 4*bound+0.02 {
			t.Errorf("pair %v: estimate %v, exact %v, bound %v", pr, got, exact, bound)
		}
	}
}

// TestAdaptiveBatchPerPairErrors: conflicts and degenerate pairs must stay
// per-pair; healthy pairs in the same batch still get answers.
func TestAdaptiveBatchPerPairErrors(t *testing.T) {
	g := testBA(t, 100, 44)
	landmark := g.MaxDegreeVertex()
	s := (landmark + 1) % g.N()
	pairs := []AdaptivePair{
		{S: landmark, T: s}, // landmark conflict
		{S: 5, T: 5},        // s == t
		{S: s, T: (landmark + 2) % g.N()},
	}
	if pairs[2].S == pairs[2].T {
		t.Skip("degenerate vertex arithmetic for this landmark")
	}
	res, err := AdaptiveBatch(context.Background(), g, landmark, pairs,
		AdaptiveOptions{TotalWalks: 1000}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil {
		t.Error("landmark conflict not reported")
	}
	if res[1].Err != nil || res[1].Estimate.Value != 0 || !res[1].Estimate.Converged {
		t.Errorf("s==t pair: %+v", res[1])
	}
	if res[2].Err != nil || res[2].Estimate.Walks == 0 {
		t.Errorf("healthy pair starved: %+v", res[2])
	}
	// Batch-level failures: bad landmark, empty batch.
	if _, err := AdaptiveBatch(context.Background(), g, -1, pairs, AdaptiveOptions{}, 3); err == nil {
		t.Error("invalid landmark accepted")
	}
	empty, err := AdaptiveBatch(context.Background(), g, landmark, nil, AdaptiveOptions{}, 3)
	if err != nil || len(empty) != 0 {
		t.Errorf("empty batch: %v %v", empty, err)
	}
}

// TestAdaptiveBatchCancellation: a canceled context fails the whole batch.
func TestAdaptiveBatchCancellation(t *testing.T) {
	g := testBA(t, 200, 45)
	landmark := g.MaxDegreeVertex()
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	if _, err := AdaptiveBatch(ctx, g, landmark, adaptiveTestPairs(g, landmark, 4),
		AdaptiveOptions{TotalWalks: 100000}, 1); err == nil {
		t.Error("canceled context accepted")
	}
}

// TestAllocateByVariance: unit-level checks of the largest-remainder split.
func TestAllocateByVariance(t *testing.T) {
	mk := func(sum, sumSq float64, walks int) *adaptivePairState {
		return &adaptivePairState{sum: sum, sumSq: sumSq, walks: walks}
	}
	// Variances 0.0, 1.0 (walks=1, mean 0 → var = sumSq): all extra to the
	// noisy pair.
	states := []*adaptivePairState{mk(0, 0, 1), mk(0, 1, 1)}
	allocateByVariance(states, 10)
	if states[0].extra != 0 || states[1].extra != 10 {
		t.Errorf("extra = %d,%d; want 0,10", states[0].extra, states[1].extra)
	}
	// Zero variance everywhere → even split, exact budget.
	states = []*adaptivePairState{mk(0, 0, 1), mk(0, 0, 1), mk(0, 0, 1)}
	allocateByVariance(states, 8)
	got := states[0].extra + states[1].extra + states[2].extra
	if got != 8 {
		t.Errorf("even split leaked budget: %d", got)
	}
	// Inactive pairs are skipped.
	states = []*adaptivePairState{{inactive: true}, mk(0, 1, 1)}
	allocateByVariance(states, 4)
	if states[0].extra != 0 || states[1].extra != 4 {
		t.Errorf("inactive pair allocated: %d,%d", states[0].extra, states[1].extra)
	}
}
