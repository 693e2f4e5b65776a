package landmarkrd_test

// The benchmarks in this file regenerate every experiment in DESIGN.md's
// experiment index (one benchmark per table/figure, named as promised
// there), plus micro-benchmarks of the individual algorithm kernels.
//
// Experiment benchmarks run the eval harness at Tiny scale with a small
// query budget so `go test -bench=.` completes quickly; run
// `go run ./cmd/rdbench -scale small` (or medium/large) for the full
// reproduction tables recorded in EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"testing"

	landmarkrd "landmarkrd"
	"landmarkrd/internal/baseline"
	"landmarkrd/internal/core"
	"landmarkrd/internal/dynamic"
	"landmarkrd/internal/elim"
	"landmarkrd/internal/eval"
	"landmarkrd/internal/graph"
	"landmarkrd/internal/lanczos"
	"landmarkrd/internal/lap"
	"landmarkrd/internal/randx"
	"landmarkrd/internal/sketch"
	"landmarkrd/internal/walk"
)

func benchConfig() eval.ExpConfig {
	return eval.ExpConfig{Scale: eval.Tiny, Seed: 2023, Queries: 4, Out: io.Discard}
}

func runExp(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := eval.RunExperiment(id, benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- experiment benchmarks (one per table/figure; see DESIGN.md §4) ---

func BenchmarkT2DatasetStats(b *testing.B) { runExp(b, "stats") }
func BenchmarkE1SmallKappa(b *testing.B)   { runExp(b, "e1a") }
func BenchmarkE1LargeKappa(b *testing.B)   { runExp(b, "e1b") }
func BenchmarkE2Weighted(b *testing.B)     { runExp(b, "e2") }
func BenchmarkE3Scalability(b *testing.B)  { runExp(b, "e3") }
func BenchmarkE4Memory(b *testing.B)       { runExp(b, "e4") }
func BenchmarkE5Landmark(b *testing.B)     { runExp(b, "e5") }
func BenchmarkE6Stability(b *testing.B)    { runExp(b, "e6") }
func BenchmarkE7SingleSource(b *testing.B) { runExp(b, "e7") }
func BenchmarkE8Identities(b *testing.B)   { runExp(b, "e8") }
func BenchmarkE9Lanczos(b *testing.B)      { runExp(b, "e9") }

// BenchmarkCSLinkPrediction covers the case study (examples/linkprediction)
// at reduced size: score one batch of candidate pairs by BiPush.
func BenchmarkCSLinkPrediction(b *testing.B) {
	g, err := landmarkrd.BarabasiAlbert(2000, 4, 2023)
	if err != nil {
		b.Fatal(err)
	}
	est, err := landmarkrd.NewEstimator(g, landmarkrd.BiPush, landmarkrd.Options{Seed: 7, Walks: 128})
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(5)
	pairs := make([][2]int, 64)
	for i := range pairs {
		s, t := rng.Intn(g.N()), rng.Intn(g.N())
		for s == t || s == est.Landmark() || t == est.Landmark() {
			s, t = rng.Intn(g.N()), rng.Intn(g.N())
		}
		pairs[i] = [2]int{s, t}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := est.Pair(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- kernel micro-benchmarks on the two canonical graph classes ---

func benchGraphs(b *testing.B) (social, road *graph.Graph) {
	b.Helper()
	var err error
	social, err = graph.BarabasiAlbert(5000, 4, randx.New(1))
	if err != nil {
		b.Fatal(err)
	}
	road, err = graph.Grid2D(70, 70, 0.05, randx.New(2))
	if err != nil {
		b.Fatal(err)
	}
	return social, road
}

func pairOn(g *graph.Graph, rng *randx.RNG, avoid int) (int, int) {
	s, t := rng.Intn(g.N()), rng.Intn(g.N())
	for s == t || s == avoid || t == avoid {
		s, t = rng.Intn(g.N()), rng.Intn(g.N())
	}
	return s, t
}

func BenchmarkExactCGSocial(b *testing.B) {
	g, _ := benchGraphs(b)
	rng := randx.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, t := pairOn(g, rng, -1)
		if _, err := lap.ResistanceCG(g, s, t); err != nil {
			b.Fatal(err)
		}
	}
}

// labelBenchGraphs returns rdload's road stand-in, Grid(25,25,0.08) from
// seed 2023 read back from its edge list as rdload's replicas read it,
// which is within the elimination-label budget, and BA(n,4), which is
// over it.
func labelBenchGraphs(b *testing.B, baN int) (road, ba *landmarkrd.Graph) {
	b.Helper()
	g, err := landmarkrd.Grid(25, 25, 0.08, 2023)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "road.txt")
	if err := g.SaveEdgeList(path); err != nil {
		b.Fatal(err)
	}
	if road, _, err = landmarkrd.LoadEdgeList(path); err != nil {
		b.Fatal(err)
	}
	if ba, err = landmarkrd.BarabasiAlbert(baN, 4, 2023); err != nil {
		b.Fatal(err)
	}
	return road, ba
}

// BenchmarkExactPair times one Exact answer per op on each backend of the
// exact path: label answers on the road stand-in (its labels are built
// before the timer starts) and the grounded CG solve on BA(2000,4), which
// is over the label budget, so the CG speed stays gated too.
func BenchmarkExactPair(b *testing.B) {
	road, ba := labelBenchGraphs(b, 2000)
	for _, c := range []struct {
		name string
		g    *landmarkrd.Graph
	}{{"road", road}, {"ba2000", ba}} {
		b.Run(c.name, func(b *testing.B) {
			if _, err := landmarkrd.Exact(c.g, 0, 1); err != nil {
				b.Fatal(err)
			}
			rng := randx.New(3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, t := pairOn(c.g, rng, -1)
				if _, err := landmarkrd.Exact(c.g, s, t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLabelBuild times one elimination-label build per op: the full
// build on the road stand-in, and the attempt on BA(5000,4) that its
// symbolic pass ends at the fill budget.
func BenchmarkLabelBuild(b *testing.B) {
	road, ba := labelBenchGraphs(b, 5000)
	for _, c := range []struct {
		name   string
		g      *landmarkrd.Graph
		labels bool
	}{{"road", road, true}, {"ba5000", ba, false}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := elim.Build(c.g) != nil; got != c.labels {
					b.Fatalf("labels %v, want %v", got, c.labels)
				}
			}
		})
	}
}

func BenchmarkPushPairSocial(b *testing.B) {
	g, _ := benchGraphs(b)
	v := g.MaxDegreeVertex()
	pe, err := core.NewPushEstimator(g, v, core.PushOptions{Theta: 1e-4})
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, t := pairOn(g, rng, v)
		if _, err := pe.Pair(s, t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPushPairRoad(b *testing.B) {
	_, g := benchGraphs(b)
	v := g.MaxDegreeVertex()
	pe, err := core.NewPushEstimator(g, v, core.PushOptions{Theta: 1e-4})
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, t := pairOn(g, rng, v)
		if _, err := pe.Pair(s, t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAbWalkPairSocial(b *testing.B) {
	g, _ := benchGraphs(b)
	v := g.MaxDegreeVertex()
	ab, err := core.NewAbWalkEstimator(g, v, core.AbWalkOptions{Walks: 400}, randx.New(6))
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, t := pairOn(g, rng, v)
		if _, err := ab.Pair(s, t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBiPushPairSocial(b *testing.B) {
	g, _ := benchGraphs(b)
	v := g.MaxDegreeVertex()
	bp, err := core.NewBiPushEstimator(g, v, core.BiPushOptions{PushTheta: 1e-2, Walks: 256}, randx.New(8))
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, t := pairOn(g, rng, v)
		if _, err := bp.Pair(s, t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBiPushPairSocialWeighted is BenchmarkBiPushPairSocial on the
// social graph plus 500 streamed weight-0.5 edges: the weighted graph a
// live replica serves after its first re-base, where every walk step goes
// through the alias table.
func BenchmarkBiPushPairSocialWeighted(b *testing.B) {
	social, _ := benchGraphs(b)
	rng := randx.New(11)
	seen := map[[2]int]bool{}
	var patches []dynamic.Patch
	for len(patches) < 500 {
		s, t := pairOn(social, rng, -1)
		if s > t {
			s, t = t, s
		}
		if social.HasEdge(s, t) || seen[[2]int{s, t}] {
			continue
		}
		seen[[2]int{s, t}] = true
		patches = append(patches, dynamic.Patch{A: s, B: t, W: 0.5})
	}
	g, err := dynamic.MaterializeGraph(social, patches)
	if err != nil {
		b.Fatal(err)
	}
	v := g.MaxDegreeVertex()
	bp, err := core.NewBiPushEstimator(g, v, core.BiPushOptions{PushTheta: 1e-2, Walks: 256}, randx.New(8))
	if err != nil {
		b.Fatal(err)
	}
	rng = randx.New(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, t := pairOn(g, rng, v)
		if _, err := bp.Pair(s, t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPowerMethodSocial(b *testing.B) {
	g, _ := benchGraphs(b)
	rng := randx.New(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, t := pairOn(g, rng, -1)
		if _, err := baseline.PowerMethod(g, s, t, baseline.PowerMethodOptions{Steps: 32}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLanczosIterationRoad(b *testing.B) {
	_, g := benchGraphs(b)
	rng := randx.New(11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, t := pairOn(g, rng, -1)
		if _, err := lanczos.Iteration(g, s, t, 40); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLanczosPushRoad(b *testing.B) {
	_, g := benchGraphs(b)
	rng := randx.New(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, t := pairOn(g, rng, -1)
		if _, err := lanczos.Push(g, s, t, lanczos.PushOptions{K: 40, Epsilon: 1e-4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSketchBuildSocial(b *testing.B) {
	g, _ := benchGraphs(b)
	for i := 0; i < b.N; i++ {
		if _, err := sketch.Build(g, sketch.Options{K: 64, Tol: 1e-6}, randx.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSketchQuery(b *testing.B) {
	g, _ := benchGraphs(b)
	sk, err := sketch.Build(g, sketch.Options{K: 128, Tol: 1e-6}, randx.New(13))
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, t := pairOn(g, rng, -1)
		if _, err := sk.Resistance(s, t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWilsonUSTSocial(b *testing.B) {
	g, _ := benchGraphs(b)
	s := walk.NewSampler(g)
	rng := randx.New(15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := walk.WilsonUST(s, 0, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLandmarkIndexBuildMC(b *testing.B) {
	g, err := graph.BarabasiAlbert(1000, 4, randx.New(16))
	if err != nil {
		b.Fatal(err)
	}
	v := g.MaxDegreeVertex()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildIndex(g, v, core.IndexOptions{Mode: core.DiagMC, WalksPerVertex: 16}, randx.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildIndex measures full-index construction in each DiagMode.
// Workers is left at 0 (= GOMAXPROCS), so running with -cpu 1,4 compares
// the sequential build against the four-worker build directly; for a fixed
// seed both produce bit-identical Diag arrays.
func BenchmarkBuildIndex(b *testing.B) {
	g, err := graph.BarabasiAlbert(2000, 4, randx.New(20))
	if err != nil {
		b.Fatal(err)
	}
	v := g.MaxDegreeVertex()
	for _, bc := range []struct {
		name string
		opts core.IndexOptions
	}{
		{"exact", core.IndexOptions{Mode: core.DiagExactCG}},
		{"mc", core.IndexOptions{Mode: core.DiagMC, WalksPerVertex: 64}},
		{"sketch", core.IndexOptions{Mode: core.DiagSketch, SketchEpsilon: 0.3}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildIndex(g, v, bc.opts, randx.New(21)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildPortfolio measures K-landmark portfolio construction in
// each DiagMode at K=4 (the default). Workers is left at 0, so -cpu 1,4
// compares sequential and parallel column builds; for a fixed seed both
// produce bit-identical columns.
func BenchmarkBuildPortfolio(b *testing.B) {
	g, err := graph.BarabasiAlbert(2000, 4, randx.New(20))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		opts core.PortfolioOptions
	}{
		{"exact", core.PortfolioOptions{K: 4, Mode: core.DiagExactCG}},
		{"mc", core.PortfolioOptions{K: 4, Mode: core.DiagMC, WalksPerVertex: 64}},
		{"sketch", core.PortfolioOptions{K: 4, Mode: core.DiagSketch, SketchEpsilon: 0.3}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildPortfolio(g, bc.opts, randx.New(21)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchPrecondGrounded builds the exact-CG index on a perturbed grid — the
// ill-conditioned, high-diameter regime where preconditioning matters — under
// one preconditioner mode, reporting total CG iterations per build alongside
// wall time. Workers is left at 0, so -cpu 1,4 also exercises the shared
// read-only factor across parallel column builds.
func benchPrecondGrounded(b *testing.B, mode core.PrecondMode) {
	g, err := graph.Grid2D(32, 32, 0.1, randx.New(40))
	if err != nil {
		b.Fatal(err)
	}
	v := g.MaxDegreeVertex()
	before := lap.SolverMetrics().Snapshot().CGIterations
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildIndex(g, v, core.IndexOptions{
			Mode: core.DiagExactCG, Precond: mode,
		}, randx.New(41)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := lap.SolverMetrics().Snapshot().CGIterations
	b.ReportMetric(float64(after-before)/float64(b.N), "cg-iters/op")
}

func BenchmarkPrecondGroundedJacobi(b *testing.B) { benchPrecondGrounded(b, core.PrecondJacobi) }
func BenchmarkPrecondGroundedChol(b *testing.B)   { benchPrecondGrounded(b, core.PrecondChol) }

// BenchmarkPortfolioRoute isolates the per-query router: sorting K=4
// column costs for a random pair.
func BenchmarkPortfolioRoute(b *testing.B) {
	g, err := graph.BarabasiAlbert(2000, 4, randx.New(20))
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.BuildPortfolio(g, core.PortfolioOptions{K: 4, Mode: core.DiagSketch}, randx.New(21))
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(22)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, t := pairOn(g, rng, -1)
		if order := p.Route(s, t); len(order) != p.K() {
			b.Fatal("short route")
		}
	}
}

// BenchmarkPortfolioSingleSource measures the routed single-source query
// (one grounded solve at the cheapest landmark plus the column algebra).
func BenchmarkPortfolioSingleSource(b *testing.B) {
	g, err := graph.BarabasiAlbert(2000, 4, randx.New(17))
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.BuildPortfolio(g, core.PortfolioOptions{K: 4, Mode: core.DiagMC, WalksPerVertex: 16}, randx.New(18))
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := rng.Intn(g.N())
		if _, _, err := p.SingleSource(s, core.SingleSourceOptions{Tol: 1e-6}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSingleSourceQuery(b *testing.B) {
	g, err := graph.BarabasiAlbert(2000, 4, randx.New(17))
	if err != nil {
		b.Fatal(err)
	}
	v := g.MaxDegreeVertex()
	idx, err := core.BuildIndex(g, v, core.IndexOptions{Mode: core.DiagMC, WalksPerVertex: 16}, randx.New(18))
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := rng.Intn(g.N())
		if _, err := idx.SingleSource(s, core.SingleSourceOptions{Tol: 1e-6}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConditionNumberLanczos(b *testing.B) {
	g, _ := benchGraphs(b)
	for i := 0; i < b.N; i++ {
		if _, err := lap.LanczosConditionNumber(g, 60, randx.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphGenBA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := graph.BarabasiAlbert(10000, 4, randx.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// --- public-API benchmarks for the extension features ---

func BenchmarkPairsBatchParallel(b *testing.B) {
	g, err := landmarkrd.BarabasiAlbert(3000, 4, 31)
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(32)
	queries := make([]landmarkrd.PairQuery, 32)
	for i := range queries {
		queries[i] = landmarkrd.PairQuery{S: rng.Intn(g.N()), T: rng.Intn(g.N())}
		for queries[i].S == queries[i].T {
			queries[i].T = rng.Intn(g.N())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := landmarkrd.Pairs(g, landmarkrd.Push, queries, landmarkrd.BatchOptions{
			Options: landmarkrd.Options{Seed: 1, Theta: 1e-4},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairsBatchBiPush is batch-social's call shape: one routed
// BiPush PairsContext call of 24 uniform pairs on BA(5000, 4) through a
// K=4 sketch portfolio, on a warm engine with the default worker count
// (GOMAXPROCS), so each worker keeps up to four queries in its walk lanes.
func BenchmarkPairsBatchBiPush(b *testing.B) {
	g, err := landmarkrd.BarabasiAlbert(5000, 4, 2023)
	if err != nil {
		b.Fatal(err)
	}
	pf, err := landmarkrd.BuildPortfolioIndex(g, landmarkrd.PortfolioBuildOptions{K: 4, Mode: landmarkrd.DiagSketch, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	engine, err := landmarkrd.NewBatchEngine(g, landmarkrd.BiPush, landmarkrd.BatchOptions{Portfolio: pf})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 24
	rng := randx.New(33)
	queries := make([]landmarkrd.PairQuery, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range queries {
			s, t := rng.Intn(g.N()), rng.Intn(g.N())
			for s == t {
				t = rng.Intn(g.N())
			}
			queries[j] = landmarkrd.PairQuery{S: s, T: t}
		}
		res, err := engine.PairsContext(context.Background(), queries)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/pair")
}

// BenchmarkPairsBatchPooled is the pooled counterpart of
// BenchmarkPairsBatchParallel: one BatchEngine serves every iteration, so
// estimator scratch buffers and landmark selection are amortized. Compare
// allocs/op and the reported builds/op against the unpooled benchmark.
func BenchmarkPairsBatchPooled(b *testing.B) {
	g, err := landmarkrd.BarabasiAlbert(3000, 4, 31)
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(32)
	queries := make([]landmarkrd.PairQuery, 32)
	for i := range queries {
		queries[i] = landmarkrd.PairQuery{S: rng.Intn(g.N()), T: rng.Intn(g.N())}
		for queries[i].S == queries[i].T {
			queries[i].T = rng.Intn(g.N())
		}
	}
	engine, err := landmarkrd.NewBatchEngine(g, landmarkrd.Push, landmarkrd.BatchOptions{
		Options: landmarkrd.Options{Seed: 1, Theta: 1e-4},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Pairs(queries); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(engine.Stats().EstimatorBuilds)/float64(b.N), "builds/op")
}

func BenchmarkClusterGraph(b *testing.B) {
	g, err := landmarkrd.WattsStrogatz(2000, 3, 0.05, 33)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := landmarkrd.ClusterGraph(g, 4, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDynamicAddAndQuery(b *testing.B) {
	g, err := landmarkrd.BarabasiAlbert(2000, 4, 34)
	if err != nil {
		b.Fatal(err)
	}
	u, err := landmarkrd.NewDynamic(g)
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(35)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, c := rng.Intn(g.N()), rng.Intn(g.N())
		if a == c {
			continue
		}
		if err := u.AddEdge(a, c, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := u.Resistance(a, c); err != nil {
			b.Fatal(err)
		}
		if err := u.RemoveConductance(a, c, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLapSolverQuery(b *testing.B) {
	g, err := landmarkrd.Grid(50, 50, 0, 36)
	if err != nil {
		b.Fatal(err)
	}
	solver, err := landmarkrd.NewLapSolver(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(37)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, t := pairOn(g, rng, -1)
		if _, err := solver.Resistance(s, t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkElectricFlow(b *testing.B) {
	g, err := landmarkrd.Grid(40, 40, 0.05, 38)
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(39)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, t := pairOn(g, rng, -1)
		if _, err := landmarkrd.ComputeElectricFlow(g, s, t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryUnderUpdates measures the fresh-read path of the live
// epoch layer: one exact Jacobi CG solve on the grounded Laplacian of base
// plus patch log, whose every iteration adds O(1) work per patched pair
// to the base sweep. The patch-depth subtests show what pending patches
// cost a fresh read.
func BenchmarkQueryUnderUpdates(b *testing.B) {
	for _, patches := range []int{0, 8, 32} {
		b.Run(fmt.Sprintf("patches=%d", patches), func(b *testing.B) {
			g, err := landmarkrd.Grid(40, 40, 0.05, 41)
			if err != nil {
				b.Fatal(err)
			}
			li, err := landmarkrd.NewLiveIndex(g, landmarkrd.LiveOptions{
				Method: landmarkrd.BiPush,
				Batch:  landmarkrd.BatchOptions{Options: landmarkrd.Options{Seed: 41}},
				Mode:   landmarkrd.DiagExactCG,
				// Benchmarks pin the patch depth; never auto-rebase.
				MaxPatches:       -1,
				MaxPatchOverhead: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			for i := 0; i < patches; i++ {
				u := landmarkrd.GraphUpdate{
					Op: landmarkrd.UpdateAddEdge, S: i, T: i + 43, Weight: 0.5,
				}
				if _, err := li.ApplyUpdate(ctx, u); err != nil {
					b.Fatal(err)
				}
			}
			ep := li.Pin()
			defer ep.Release()
			rng := randx.New(42)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, t := pairOn(g, rng, -1)
				if _, err := ep.FreshPairContext(ctx, s, t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
