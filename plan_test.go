package landmarkrd

// Tests of the Auto method planner: which path each corpus graph plans,
// that the plan is a pure function of graph, options and seed, and that
// both paths answer bit-identically to the pinned path they stand for.

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"landmarkrd/internal/elim"
)

func loadCorpusGraph(t *testing.T, name string) *Graph {
	t.Helper()
	g, _, err := LoadEdgeList(corpusDir + "/" + name + ".edges")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// planQueries is a fixed batch for g: uniform pairs, two pairs touching
// the landmark, and an s == t pair.
func planQueries(g *Graph, landmark int) []PairQuery {
	n := g.N()
	var qs []PairQuery
	for i := 0; len(qs) < 12; i++ {
		s, u := (i*7919+13)%n, (i*104729+7)%n
		if s != u && s != landmark && u != landmark {
			qs = append(qs, PairQuery{S: s, T: u})
		}
	}
	return append(qs,
		PairQuery{S: landmark, T: (landmark + 5) % n},
		PairQuery{S: (landmark + 9) % n, T: landmark},
		PairQuery{S: 3, T: 3},
	)
}

// TestAutoPlan holds the planner to its contract on corpus graphs: grids
// and paths plan exact, BA(5000,4) (well past the ~BA(2000,4) crossover)
// plans bipush; the plan is identical at every worker count and across
// builds; walk-plan answers are bit-identical to a BiPush engine and
// exact-plan answers to Exact; landmark conflicts and s == t resolve.
// TestBatchWorkerCountInvariance covers Auto's answers across worker
// counts.
func TestAutoPlan(t *testing.T) {
	ba, err := BarabasiAlbert(5000, 4, 2023)
	if err != nil {
		t.Fatal(err)
	}
	grid := loadCorpusGraph(t, "grid_14x14")
	gridPF, err := BuildPortfolioIndex(grid, PortfolioBuildOptions{K: 2, Mode: DiagExactCG, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *Graph
		pf   *PortfolioIndex
		want string
	}{
		{"grid_14x14", grid, nil, "exact"},
		{"grid_14x14/portfolio", grid, gridPF, "exact"},
		{"path_40", loadCorpusGraph(t, "path_40"), nil, "exact"},
		{"cycle_48", loadCorpusGraph(t, "cycle_48"), nil, "exact"},
		{"ba_120_2_weighted", loadCorpusGraph(t, "ba_120_2_weighted"), nil, ""},
		{"er_150", loadCorpusGraph(t, "er_150"), nil, "exact"}, // over the label budget: CG
		{"ba_5000_4", ba, nil, "bipush"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mk := func(m Method, workers int) *BatchEngine {
				e, err := NewBatchEngine(c.g, m, BatchOptions{
					Options: Options{Seed: 5}, Workers: workers, Portfolio: c.pf,
				})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			eng := mk(Auto, 1)
			plan := eng.Plan()
			if c.want != "" && plan.Path != c.want {
				t.Fatalf("plan %v, want path %s", plan, c.want)
			}
			if plan.PilotPairs != planPilotPairs || !(plan.WalkMS > 0) || !(plan.ExactMS > 0) {
				t.Errorf("plan %+v: want %d pilot pairs and positive modelled work", plan, planPilotPairs)
			}
			for _, w := range []int{1, 2, 4} {
				if p := mk(Auto, w).Plan(); p != plan {
					t.Errorf("workers=%d plan %+v != %+v", w, p, plan)
				}
			}
			// The pilot prices the exact path's backend: label entries
			// read when the graph has labels (a few hundred ns a pair),
			// CG iterations otherwise.
			lab, err := elim.For(c.g, nil)
			if err != nil {
				t.Fatal(err)
			}
			if wantMS := planLabelNS * float64(2*c.g.N()) / 1e6; lab != nil && plan.ExactMS > wantMS {
				t.Errorf("plan %+v: exact side %v ms/pair on a graph with labels, want at most %v", plan, plan.ExactMS, wantMS)
			}

			queries := planQueries(c.g, eng.Landmark())
			got, err := eng.Pairs(queries)
			if err != nil {
				t.Fatal(err)
			}
			var want []PairResult
			if plan.Path == "bipush" {
				if want, err = mk(BiPush, 2).Pairs(queries); err != nil {
					t.Fatal(err)
				}
			}
			for i, q := range queries {
				r := got[i]
				if r.Err != nil {
					t.Fatalf("query %v unresolved: %v", q, r.Err)
				}
				if q.S == q.T && r.Estimate.Value != 0 {
					t.Errorf("query %v: r(s,s) = %v", q, r.Estimate.Value)
				}
				if want != nil {
					if math.Float64bits(r.Estimate.Value) != math.Float64bits(want[i].Estimate.Value) {
						t.Errorf("query %v: %v != BiPush engine %v (bitwise)", q, r.Estimate.Value, want[i].Estimate.Value)
					}
					continue
				}
				exact, err := Exact(c.g, q.S, q.T)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(r.Estimate.Value) != math.Float64bits(exact) || !r.Estimate.Converged {
					t.Errorf("query %v: %+v, want Exact %v (bitwise)", q, r.Estimate, exact)
				}
			}
			stats := eng.Stats()
			if plan.Path == pathExact {
				if stats.PlannedExact != int64(len(queries)) || stats.ExactFallbacks != 0 {
					t.Errorf("exact plan: PlannedExact %d (want %d), ExactFallbacks %d (want 0)",
						stats.PlannedExact, len(queries), stats.ExactFallbacks)
				}
				// One exact answer per distinct-endpoint pair, from
				// labels when the graph has them and by CG otherwise.
				if lab != nil && (stats.LabelAnswers < int64(len(queries)-1) || stats.CGSolves != 0) {
					t.Errorf("exact plan on labels: LabelAnswers %d, CGSolves %d; want one answer per distinct-endpoint pair, no solve",
						stats.LabelAnswers, stats.CGSolves)
				}
				if lab == nil && (stats.CGSolves < int64(len(queries)-1) || stats.LabelAnswers != 0) {
					t.Errorf("exact plan on CG: CGSolves %d, LabelAnswers %d; want a solve per distinct-endpoint pair, no label answer",
						stats.CGSolves, stats.LabelAnswers)
				}
			} else if stats.PlannedExact != 0 {
				t.Errorf("bipush plan: PlannedExact %d, want 0", stats.PlannedExact)
			}
		})
	}
}

// TestEngineExactSolvesRecordIntoEngine: the exact answer behind a
// landmark-conflict fallback records its work in the engine's own
// metrics, not only in the process-wide solver sink: the label build and
// the label answer on grid_14x14, and the over-budget attempt and the CG
// solve on er_150.
func TestEngineExactSolvesRecordIntoEngine(t *testing.T) {
	for _, c := range []struct {
		name   string
		labels bool
	}{{"grid_14x14", true}, {"er_150", false}} {
		g := loadCorpusGraph(t, c.name)
		eng, err := NewBatchEngine(g, BiPush, BatchOptions{Options: Options{Seed: 2}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Pairs([]PairQuery{{S: eng.Landmark(), T: (eng.Landmark() + 7) % g.N()}})
		if err != nil || res[0].Err != nil {
			t.Fatalf("%s: conflict pair: %v / %v", c.name, err, res[0].Err)
		}
		stats := eng.Stats()
		if stats.ExactFallbacks != 1 || stats.LabelBuilds != 1 {
			t.Errorf("%s: ExactFallbacks %d, LabelBuilds %d: want 1, 1", c.name, stats.ExactFallbacks, stats.LabelBuilds)
		}
		if c.labels && (stats.LabelAnswers != 1 || stats.CGSolves != 0) {
			t.Errorf("%s: LabelAnswers %d, CGSolves %d: want 1, 0", c.name, stats.LabelAnswers, stats.CGSolves)
		}
		if !c.labels && (stats.LabelAnswers != 0 || stats.CGSolves < 1 || stats.CGIterations < 1) {
			t.Errorf("%s: LabelAnswers %d, CGSolves %d, CGIterations %d: want 0, ≥1, ≥1",
				c.name, stats.LabelAnswers, stats.CGSolves, stats.CGIterations)
		}
	}
}

// TestParseMethod: every method name round-trips through ParseMethod, and
// the single-estimator constructors refuse Auto with an error naming the
// constructors that plan it.
func TestParseMethod(t *testing.T) {
	for _, m := range []Method{AbWalk, Push, BiPush, Auto} {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMethod("exact"); err == nil {
		t.Error(`ParseMethod("exact") accepted`)
	}
	g := loadCorpusGraph(t, "grid_14x14")
	_, e1 := NewEstimator(g, Auto, Options{})
	_, e2 := NewEstimatorAt(g, Auto, 0, Options{})
	for i, err := range []error{e1, e2} {
		if err == nil || !strings.Contains(err.Error(), "NewBatchEngine") || !strings.Contains(err.Error(), "NewLiveIndex") {
			t.Errorf("constructor %d: err %v, want one naming NewBatchEngine and NewLiveIndex", i, err)
		}
	}
}

// TestLiveRebaseReplans: every LiveIndex epoch plans afresh on its own
// graph — the re-based epoch's plan is the plan a cold engine builds on
// the materialized graph, not the superseded epoch's.
func TestLiveRebaseReplans(t *testing.T) {
	g := loadCorpusGraph(t, "grid_14x14")
	opts := LiveOptions{
		Method:     Auto,
		Batch:      BatchOptions{Options: Options{Seed: 4}},
		PortfolioK: 2,
		Mode:       DiagExactCG,
		MaxPatches: -1,
	}
	li, err := NewLiveIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ep := li.Pin()
	before := ep.Engine().Plan()
	ep.Release()
	for i := 0; i < 40; i++ {
		u := GraphUpdate{Op: UpdateAddEdge, S: i, T: (i*53 + 97) % g.N(), Weight: 2}
		if u.S == u.T {
			continue
		}
		if _, err := li.ApplyUpdate(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := li.Rebase(ctx); err != nil {
		t.Fatal(err)
	}
	ep = li.Pin()
	defer ep.Release()
	after := ep.Engine().Plan()
	cold, err := NewBatchEngine(ep.Graph(), Auto, BatchOptions{Options: opts.Batch.Options, Portfolio: ep.Portfolio()})
	if err != nil {
		t.Fatal(err)
	}
	if after != cold.Plan() {
		t.Errorf("re-based plan %+v != cold plan %+v on the same graph", after, cold.Plan())
	}
	if after == before {
		t.Errorf("re-based plan %+v equals the superseded epoch's: not re-planned", after)
	}
	res, err := ep.PairsContext(ctx, []PairQuery{{S: 1, T: 150}})
	if err != nil || res[0].Err != nil {
		t.Fatalf("re-based epoch query: %v / %v", err, res[0].Err)
	}
	want, err := Exact(ep.Graph(), 1, 150)
	if err != nil {
		t.Fatal(err)
	}
	if after.Path == pathExact && math.Float64bits(res[0].Estimate.Value) != math.Float64bits(want) {
		t.Errorf("exact-plan answer %v != Exact %v on the re-based graph", res[0].Estimate.Value, want)
	}
}

// TestAutoPlanExactBlocks: an exact-plan batch wider than exactBlockRHS is
// cut into blocks of at most exactBlockRHS pairs, so the memory a batch
// holds does not grow with its size, and every answer is still
// bit-identical to Exact at any worker count. Load-shed and
// deadline-degraded queries on the exact plan are answered exactly too:
// there the solve is cheaper than the degraded tier and has no error.
func TestAutoPlanExactBlocks(t *testing.T) {
	g := loadCorpusGraph(t, "grid_14x14")
	n := g.N()
	queries := make([]PairQuery, 3*exactBlockRHS+5)
	for i := range queries {
		queries[i] = PairQuery{S: (i*17 + 1) % n, T: (i*41 + 60) % n}
	}
	want := make([]float64, len(queries))
	for i, q := range queries {
		v, err := Exact(g, q.S, q.T)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	check := func(t *testing.T, what string, res []PairResult) {
		t.Helper()
		for i, r := range res {
			if r.Err != nil || r.Degraded || math.Float64bits(r.Estimate.Value) != math.Float64bits(want[i]) {
				t.Fatalf("%s: query %v: %+v (err %v, degraded %v), want Exact %v (bitwise)",
					what, queries[i], r.Estimate, r.Err, r.Degraded, want[i])
			}
		}
	}
	for _, workers := range []int{1, 2, 4} {
		eng, err := NewBatchEngine(g, Auto, BatchOptions{
			Options: Options{Seed: 5}, Workers: workers, DegradeBelow: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		if eng.Plan().Path != pathExact {
			t.Fatalf("plan %v, want exact", eng.Plan())
		}

		pending := make([]PairResult, len(queries))
		for i, q := range queries {
			pending[i] = PairResult{PairQuery: q, Err: errPlannedExact}
		}
		seen := make([]int, len(queries))
		for _, b := range eng.exactBlocks(pending) {
			if len(b.idxs) == 0 || len(b.idxs) > exactBlockRHS {
				t.Errorf("block of %d pairs, want 1..%d", len(b.idxs), exactBlockRHS)
			}
			for _, i := range b.idxs {
				seen[i]++
			}
		}
		for i, c := range seen {
			if c != 1 {
				t.Errorf("query %d in %d blocks, want 1", i, c)
			}
		}

		res, err := eng.Pairs(queries)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "Pairs", res)
		ctx, cancelCtx := context.WithTimeout(context.Background(), time.Minute)
		res, err = eng.PairsContext(ctx, queries) // every query starts below DegradeBelow
		cancelCtx()
		if err != nil {
			t.Fatal(err)
		}
		check(t, "PairsContext under DegradeBelow", res)
		if res, err = eng.DegradedPairsContext(context.Background(), queries); err != nil {
			t.Fatal(err)
		}
		check(t, "DegradedPairsContext", res)
		if st := eng.Stats(); st.Degraded != 0 || st.PlannedExact != int64(3*len(queries)) {
			t.Errorf("workers=%d: Degraded %d, PlannedExact %d; want 0, %d", workers, st.Degraded, st.PlannedExact, 3*len(queries))
		}
	}

	// A walk plan keeps its degraded tier.
	ba, err := BarabasiAlbert(5000, 4, 2023)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewBatchEngine(ba, Auto, BatchOptions{Options: Options{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.DegradedPairsContext(context.Background(), []PairQuery{{S: 17, T: 150}})
	if err != nil || res[0].Err != nil || !res[0].Degraded {
		t.Fatalf("bipush plan %v: DegradedPairsContext %+v / %v, want a degraded answer", eng.Plan(), res, err)
	}
}
