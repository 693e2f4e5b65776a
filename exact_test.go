package landmarkrd

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"landmarkrd/internal/elim"
)

// exactTestGraphs is every corpus graph plus rdload's road stand-in, as
// rdload and its servers see it (written as an edge list and read back),
// so both exact backends are covered: labels within the fill budget, CG
// over it.
func exactTestGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.edges"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	graphs := map[string]*Graph{}
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), ".edges")
		graphs[name] = loadCorpusGraph(t, name)
	}
	road, err := Grid(25, 25, 0.08, 2023)
	if err != nil {
		t.Fatal(err)
	}
	graphs["road"], _, _ = reload(t, road)
	return graphs
}

// reload writes g as an edge list and reads it back twice, as rdload and
// each of its replicas do. It returns the two copies and the copies' id of
// each vertex of g (ReadEdgeList renumbers vertices in order of first
// appearance).
func reload(t *testing.T, g *Graph) (a, b *Graph, ids map[int]int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.edges")
	if err := g.SaveEdgeList(path); err != nil {
		t.Fatal(err)
	}
	a, ids, err := LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	if b, _, err = LoadEdgeList(path); err != nil {
		t.Fatal(err)
	}
	return a, b, ids
}

// TestOneExactAnswerPerPair: on every corpus graph and the road stand-in,
// one pair gets one exact bit pattern. Exact(s,t) and Exact(t,s) agree;
// an Auto engine on its exact plan answers the pair at batch positions 0
// and 5 and through DegradedPairsContext with Exact's bits; and two
// SaveEdgeList→LoadEdgeList copies of the graph, loaded from one file,
// build their own labels and answer with the same bits. This is what
// keeps rdload's road-uniform abs_err at exactly 0: its truth is Exact in
// rdload's process, and its replicas serve the engine's answers on their
// own copy of the graph.
func TestOneExactAnswerPerPair(t *testing.T) {
	for name, g := range exactTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			n := g.N()
			var pairs [][2]int
			for i := 0; len(pairs) < 6; i++ {
				if s, u := (i*7919+3)%n, (i*104729+11)%n; s != u {
					pairs = append(pairs, [2]int{s, u})
				}
			}
			want := make([]float64, len(pairs))
			for i, p := range pairs {
				v, err := Exact(g, p[0], p[1])
				if err != nil {
					t.Fatal(err)
				}
				rev, err := Exact(g, p[1], p[0])
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(v) != math.Float64bits(rev) {
					t.Errorf("Exact%v = %v but reversed %v", p, v, rev)
				}
				want[i] = v
			}
			lab, err := elim.For(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("labels: %v", lab != nil)
			if (name == "road" || name == "grid_14x14") && lab == nil {
				t.Fatal("no labels; want the road stand-in and grid_14x14 within the budget")
			}

			eng, err := NewBatchEngine(g, Auto, BatchOptions{Options: Options{Seed: 5}, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if eng.Plan().Path != pathExact {
				t.Fatalf("plan %v, want exact", eng.Plan())
			}
			for i, p := range pairs {
				queries := make([]PairQuery, 6)
				for j := range queries {
					f := pairs[(i+j)%len(pairs)]
					queries[j] = PairQuery{S: f[1], T: f[0]}
				}
				queries[0] = PairQuery{S: p[0], T: p[1]}
				queries[5] = PairQuery{S: p[1], T: p[0]}
				for _, run := range []struct {
					what string
					f    func(context.Context, []PairQuery) ([]PairResult, error)
				}{{"PairsContext", eng.PairsContext}, {"DegradedPairsContext", eng.DegradedPairsContext}} {
					res, err := run.f(context.Background(), queries)
					if err != nil {
						t.Fatal(err)
					}
					for _, at := range []int{0, 5} {
						if r := res[at]; r.Err != nil || math.Float64bits(r.Estimate.Value) != math.Float64bits(want[i]) {
							t.Errorf("%s position %d: %v = %v (%v), want Exact %v", run.what, at, queries[at], r.Estimate.Value, r.Err, want[i])
						}
					}
				}
			}

			// The copies rdload and a replica load from one written edge
			// list build their labels apart and give the same bits. The
			// renumbering changes the elimination order, so against g they
			// agree to rounding.
			a, b, ids := reload(t, g)
			for i, p := range pairs {
				s, u := ids[p[0]], ids[p[1]]
				va, err := Exact(a, s, u)
				if err != nil {
					t.Fatal(err)
				}
				vb, err := Exact(b, s, u)
				if err != nil || math.Float64bits(va) != math.Float64bits(vb) {
					t.Errorf("copies of one file: Exact%v = %v and %v (%v)", p, va, vb, err)
				}
				if math.Abs(va-want[i]) > 1e-9*want[i] {
					t.Errorf("renumbered copy: Exact%v = %v, want %v", p, va, want[i])
				}
			}
		})
	}
}
