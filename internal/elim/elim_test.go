package elim

import (
	"math"
	"path/filepath"
	"sync"
	"testing"

	"landmarkrd/internal/graph"
	"landmarkrd/internal/obs"
	"landmarkrd/internal/oracle"
	"landmarkrd/internal/randx"
)

const corpusDir = "../../testdata/corpus"

// roadGraph is rdload's road stand-in, Grid(25, 25, 0.08) from seed 2023,
// as its servers see it: written as an edge list and read back.
func roadGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.Grid2D(25, 25, 0.08, randx.New(2023))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "road.txt")
	if err := g.SaveEdgeList(path); err != nil {
		t.Fatal(err)
	}
	g, _, err = graph.LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// wideGraph is a 10×10 grid whose edge weights are 10^x for x uniform in
// [−2, 2]. The ratio stays at 10⁴ because the dense oracle's own Cholesky
// subtracts: on this grid, against a 300-bit reference, the oracle drifts
// to 2e-12 at a ratio of 10⁶ while the labels stay near 1e-15 up to 10¹².
// TestLabelsWideWeights covers wider ratios against closed forms.
func wideGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.Grid2D(10, 10, 0, randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(6)
	b := graph.NewBuilder(g.N())
	g.ForEachEdge(func(u, v int32, _ float64) {
		b.AddWeightedEdge(int(u), int(v), math.Pow(10, 4*rng.Float64()-2))
	})
	if g, err = b.Build(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestLabelsMatchOracle checks every pair of every corpus graph within the
// budget, the road stand-in and a grid with widely ranging weights against
// the dense oracle at 1e-12 relative, and (s,t) against (t,s) bit for bit.
func TestLabelsMatchOracle(t *testing.T) {
	corpus, err := oracle.LoadCorpus(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	corpus = append(corpus,
		oracle.CorpusGraph{Name: "road", G: roadGraph(t)},
		oracle.CorpusGraph{Name: "grid_10x10_wide", G: wideGraph(t)})
	within := 0
	for _, c := range corpus {
		lab := Build(c.G)
		if lab == nil {
			t.Logf("%s: over the budget", c.Name)
			continue
		}
		within++
		o, err := oracle.New(c.G)
		if err != nil {
			t.Fatal(err)
		}
		r := o.ResistanceMatrix()
		n := c.G.N()
		worst := 0.0
		for s := 0; s < n; s++ {
			for u := s; u < n; u++ {
				got := lab.Resistance(s, u)
				if rev := lab.Resistance(u, s); math.Float64bits(got) != math.Float64bits(rev) {
					t.Fatalf("%s: r(%d,%d) = %v but r(%d,%d) = %v", c.Name, s, u, got, u, s, rev)
				}
				want := r.At(s, u)
				if s == u {
					want = 0
				}
				rel := math.Abs(got-want) / math.Max(want, 1e-300)
				if s == u && got != 0 {
					t.Fatalf("%s: r(%d,%d) = %v, want 0", c.Name, s, s, got)
				}
				if s != u && rel > 1e-12 {
					t.Fatalf("%s: r(%d,%d) = %v, oracle %v (relative %.3g)", c.Name, s, u, got, want, rel)
				}
				worst = math.Max(worst, rel)
			}
		}
		t.Logf("%s: %d label floats, worst relative error %.3g", c.Name, len(lab.vals), worst)
	}
	if within < 6 {
		t.Errorf("%d graphs within the budget, want at least the grid, path, cycle, road, wide grid and one more", within)
	}
}

// TestLabelsWideWeights checks series and parallel compositions whose
// weights span 10⁻⁸…10⁸ against their closed forms, which involve no
// cancellation, at 1e-12 relative.
func TestLabelsWideWeights(t *testing.T) {
	for _, c := range []struct {
		name  string
		paths [][]float64
	}{
		{"series 1e6,1e-6", [][]float64{{1e6, 1e-6}}},
		{"series 1e8,8e-9", [][]float64{{1e8, 8e-9}}},
		{"series 1e-6,1e6,1e-6", [][]float64{{1e-6, 1e6, 1e-6}}},
		{"parallel", [][]float64{{1e8, 3e-8, 1e8}, {2e-7, 5e7}, {1e-8}, {4e6, 4e6, 7e-5, 1}}},
	} {
		g, err := oracle.ParallelPaths(c.paths)
		if err != nil {
			t.Fatal(err)
		}
		lab := Build(g)
		if lab == nil {
			t.Fatalf("%s: no labels", c.name)
		}
		want := oracle.ParallelResistance(c.paths)
		got := lab.Resistance(0, 1)
		if rel := math.Abs(got-want) / want; rel > 1e-12 {
			t.Errorf("%s: r(0,1) = %v, closed form %v (relative %.3g)", c.name, got, want, rel)
		}
	}
}

// TestBudgetHeadroom: the road stand-in and grid_14x14 keep at least 1.5×
// headroom under the budget on label floats, elimination work and scanned
// adjacency entries, and BA(5000,4) is over it.
func TestBudgetHeadroom(t *testing.T) {
	grid, _, err := graph.LoadEdgeList(filepath.Join(corpusDir, "grid_14x14.edges"))
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{"road": roadGraph(t), "grid_14x14": grid} {
		s := symbolic(g, math.MaxInt64)
		size := float64(int64(g.N()) + g.M())
		work, floats, scan := float64(s.work)/size, float64(s.floats)/size, float64(s.scan)/size
		t.Logf("%s: work %.1f·(n+m), floats %.1f·(n+m), scan %.1f·(n+m), max depth %d",
			name, work, floats, scan, s.maxDepth())
		if 1.5*max(work, floats, scan) > Budget {
			t.Errorf("%s: work %.1f·(n+m), floats %.1f·(n+m), scan %.1f·(n+m): under 1.5× headroom of %d",
				name, work, floats, scan, Budget)
		}
	}
	ba, err := graph.BarabasiAlbert(5000, 4, randx.New(2023))
	if err != nil {
		t.Fatal(err)
	}
	if Build(ba) != nil {
		t.Error("BA(5000,4) has labels; want it over the budget")
	}
}

// TestHubScan: joining a clique reads every member's list but the
// longest, so a star, a tree around one hub, reads each list about once
// and has labels, while K_{2,L}, whose every leaf elimination reads the
// second hub's list, is stopped by the scan budget although its work and
// floats are small.
func TestHubScan(t *testing.T) {
	star, err := graph.Star(5000)
	if err != nil {
		t.Fatal(err)
	}
	size := float64(int64(star.N()) + star.M())
	if s := symbolic(star, math.MaxInt64); float64(s.scan) > 2*size {
		t.Errorf("star: scan %.1f·(n+m), want at most 2", float64(s.scan)/size)
	}
	lab := Build(star)
	if lab == nil {
		t.Fatal("star has no labels")
	}
	if r := lab.Resistance(0, 17); r != 1 {
		t.Errorf("star: r(0,17) = %v, want 1", r)
	}
	if r := lab.Resistance(4999, 17); r != 2 {
		t.Errorf("star: r(4999,17) = %v, want 2", r)
	}

	const leaves = 1000
	b := graph.NewBuilder(leaves + 2)
	for v := 2; v < leaves+2; v++ {
		b.AddEdge(0, v)
		b.AddEdge(1, v)
	}
	k2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	size = float64(int64(k2.N()) + k2.M())
	s := symbolic(k2, math.MaxInt64)
	if work, floats := float64(s.work)/size, float64(s.floats)/size; work > 2 || floats > 2 || float64(s.scan) <= Budget*size {
		t.Fatalf("K_{2,%d}: work %.1f, floats %.1f, scan %.1f·(n+m); want work and floats small, scan over %d",
			leaves, work, floats, float64(s.scan)/size, Budget)
	}
	if Build(k2) != nil {
		t.Errorf("K_{2,%d} has labels; want the scan budget to stop it", leaves)
	}
}

// TestNoLabels: a disconnected graph and a one-vertex graph have none.
func TestNoLabels(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if Build(g) != nil {
		t.Error("disconnected graph has labels")
	}
	one, err := graph.NewBuilder(1).Build()
	if err != nil {
		t.Fatal(err)
	}
	if Build(one) != nil {
		t.Error("one-vertex graph has labels")
	}
}

// TestForConcurrent: concurrent first callers share one build.
func TestForConcurrent(t *testing.T) {
	g := roadGraph(t)
	m := &obs.Metrics{}
	const callers = 8
	got := make([]*Labels, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lab, err := For(g, m)
			if err != nil {
				t.Error(err)
			}
			got[i] = lab
		}(i)
	}
	wg.Wait()
	for i, lab := range got {
		if lab == nil || lab != got[0] {
			t.Fatalf("caller %d got %p, caller 0 %p", i, lab, got[0])
		}
	}
	if n := m.LabelBuilds.Load(); n != 1 {
		t.Errorf("LabelBuilds = %d, want 1", n)
	}
}

func (s *symbolicFactor) maxDepth() int {
	d := 0
	for _, x := range s.depth {
		d = max(d, x)
	}
	return d
}
