package landmarkrd

// Seed-determinism contract, end to end: for a fixed Options.Seed, every
// method must produce byte-identical estimates — across independent runs,
// across pooled/cold/one-shot batch engines, and across ANY worker count.
// "Byte-identical" is literal: float64 bit patterns compared with
// math.Float64bits, not an epsilon. Only Duration (wall time) is excluded.

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// estimateKey flattens every deterministic field of an Estimate into a
// comparable string. Duration is deliberately absent.
func estimateKey(e Estimate) string {
	return fmt.Sprintf("v=%x eb=%x w=%d ws=%d po=%d lh=%d rl=%x c=%v",
		math.Float64bits(e.Value), math.Float64bits(e.ErrBound),
		e.Walks, e.WalkSteps, e.PushOps, e.LandmarkHits,
		math.Float64bits(e.ResidualL1), e.Converged)
}

func determinismGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := BarabasiAlbert(600, 3, 77)
	if err != nil {
		t.Fatalf("BarabasiAlbert: %v", err)
	}
	return g
}

// TestEstimatorSeedDeterminism runs every method twice from fresh
// estimators with the same seed and requires bit-equal estimates, and
// once with a different seed to prove the seed actually matters for the
// randomized methods.
func TestEstimatorSeedDeterminism(t *testing.T) {
	g := determinismGraph(t)
	landmark := g.MaxDegreeVertex()
	pairs := [][2]int{{2, 501}, {17, 350}, {44, 599}}
	for _, m := range []Method{AbWalk, Push, BiPush} {
		t.Run(m.String(), func(t *testing.T) {
			run := func(seed uint64) []string {
				est, err := NewEstimatorAt(g, m, landmark, Options{Seed: seed})
				if err != nil {
					t.Fatalf("NewEstimatorAt: %v", err)
				}
				var keys []string
				for _, p := range pairs {
					res, err := est.Pair(p[0], p[1])
					if err != nil {
						t.Fatalf("Pair%v: %v", p, err)
					}
					keys = append(keys, estimateKey(res))
				}
				return keys
			}
			a, b := run(42), run(42)
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("pair %v differs across identical-seed runs:\n  %s\n  %s", pairs[i], a[i], b[i])
				}
			}
			if m != Push { // Push is deterministic regardless of seed
				c := run(43)
				same := true
				for i := range a {
					if a[i] != c[i] {
						same = false
					}
				}
				if same {
					t.Errorf("%v: seeds 42 and 43 produced identical results — seed is not wired through", m)
				}
			}
		})
	}
}

// TestEstimatorReseedMatchesFreshConstruction checks the Reseed contract:
// a reseeded warm estimator must answer exactly as a fresh one built with
// that seed, which is what the batch engine's pooling correctness rests on.
func TestEstimatorReseedMatchesFreshConstruction(t *testing.T) {
	g := determinismGraph(t)
	landmark := g.MaxDegreeVertex()
	for _, m := range []Method{AbWalk, Push, BiPush} {
		t.Run(m.String(), func(t *testing.T) {
			warm, err := NewEstimatorAt(g, m, landmark, Options{Seed: 5})
			if err != nil {
				t.Fatalf("NewEstimatorAt: %v", err)
			}
			// Burn some random state so Reseed has something to reset.
			if _, err := warm.Pair(3, 400); err != nil {
				t.Fatalf("warm-up Pair: %v", err)
			}
			warm.Reseed(99)
			got, err := warm.Pair(10, 222)
			if err != nil {
				t.Fatalf("Pair: %v", err)
			}
			fresh, err := NewEstimatorAt(g, m, landmark, Options{Seed: 99})
			if err != nil {
				t.Fatalf("NewEstimatorAt: %v", err)
			}
			want, err := fresh.Pair(10, 222)
			if err != nil {
				t.Fatalf("Pair: %v", err)
			}
			if estimateKey(got) != estimateKey(want) {
				t.Errorf("reseeded estimator diverges from fresh construction:\n  %s\n  %s",
					estimateKey(got), estimateKey(want))
			}
		})
	}
}

// TestBatchWorkerCountInvariance is the batch-layer determinism contract:
// the same batch at worker counts 1, 2, 3, 7 and GOMAXPROCS-default must
// be byte-identical, for every method, pooled or not. Each worker keeps up
// to four queries in its walk lanes, so the batch sizes (1, 3, 5, 40, 97)
// give workers every number of queries in flight, and which queries share
// lanes changes with the worker count. The routed case mixes a K=4
// portfolio's landmarks and holds landmark-conflict pairs; the degraded
// tier and AdaptivePairs walk in lanes too.
func TestBatchWorkerCountInvariance(t *testing.T) {
	g := determinismGraph(t)
	batch := func(n int) []PairQuery {
		queries := make([]PairQuery, n)
		for i := range queries {
			queries[i] = PairQuery{S: (i*13 + 1) % g.N(), T: (i*37 + 5) % g.N()}
		}
		return queries
	}
	pf, err := BuildPortfolioIndex(g, PortfolioBuildOptions{K: 4, Mode: DiagSketch, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	routed := batch(41)
	for j, v := range pf.Landmarks {
		routed = append(routed, PairQuery{S: v, T: (v + 7) % g.N()}, PairQuery{S: 3, T: v})
		if j > 0 {
			routed = append(routed, PairQuery{S: pf.Landmarks[0], T: v}) // conflicts with two members
		}
	}
	pinned := func(workers int) BatchOptions {
		return BatchOptions{Options: Options{Seed: 11}, Workers: workers, PinLandmark: true, Landmark: g.MaxDegreeVertex()}
	}
	for _, m := range []Method{AbWalk, Push, BiPush, Auto} {
		t.Run(m.String(), func(t *testing.T) {
			for _, n := range []int{1, 3, 5, 40, 97} {
				queries := batch(n)
				requireWorkerInvariant(t, fmt.Sprintf("n=%d", n), []int{1, 2, 3, 7, 0}, func(workers int) ([]PairResult, error) {
					return Pairs(g, m, queries, pinned(workers))
				})
			}
			requireWorkerInvariant(t, "portfolio", []int{1, 2, 3, 7, 0}, func(workers int) ([]PairResult, error) {
				return Pairs(g, m, routed, BatchOptions{Options: Options{Seed: 5}, Workers: workers, Portfolio: pf})
			})
			requireWorkerInvariant(t, "degraded", []int{1, 2, 3, 7, 0}, func(workers int) ([]PairResult, error) {
				e, err := NewBatchEngine(g, m, pinned(workers))
				if err != nil {
					return nil, err
				}
				return e.DegradedPairsContext(context.Background(), batch(40))
			})
		})
	}
	t.Run("AdaptivePairs", func(t *testing.T) {
		queries := append(batch(23), PairQuery{S: g.MaxDegreeVertex(), T: 4}, PairQuery{S: 9, T: 9})
		requireWorkerInvariant(t, "adaptive", []int{1, 2, 4}, func(workers int) ([]PairResult, error) {
			e, err := NewBatchEngine(g, AbWalk, pinned(workers))
			if err != nil {
				return nil, err
			}
			return e.AdaptivePairs(queries, AdaptiveBatchOptions{TotalWalks: 4000, PilotWalks: 16})
		})
	})
}

// requireWorkerInvariant runs one batch at each worker count and requires
// every result to succeed with the estimate and marking of the first run.
func requireWorkerInvariant(t *testing.T, name string, workerCounts []int, run func(workers int) ([]PairResult, error)) {
	t.Helper()
	var want []string
	for _, workers := range workerCounts {
		res, err := run(workers)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, workers, err)
		}
		keys := make([]string, len(res))
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("%s workers=%d query %d: %v", name, workers, i, r.Err)
			}
			keys[i] = fmt.Sprintf("%s degraded=%v", estimateKey(r.Estimate), r.Degraded)
		}
		if want == nil {
			want = keys
			continue
		}
		for i := range keys {
			if keys[i] != want[i] {
				t.Fatalf("%s workers=%d: query %d differs from workers=%d:\n  %s\n  %s",
					name, workers, i, workerCounts[0], keys[i], want[i])
			}
		}
	}
}

// TestBatchEngineWarmPoolIdentical reruns the same batch on one engine:
// run 2 executes entirely on pooled (warm) estimators yet must be
// byte-identical to run 1 and to a one-shot Pairs call.
func TestBatchEngineWarmPoolIdentical(t *testing.T) {
	g := determinismGraph(t)
	queries := make([]PairQuery, 24)
	for i := range queries {
		queries[i] = PairQuery{S: (i*7 + 2) % g.N(), T: (i*31 + 9) % g.N()}
	}
	opts := BatchOptions{Options: Options{Seed: 23}, Workers: 4, PinLandmark: true, Landmark: g.MaxDegreeVertex()}
	for _, m := range []Method{AbWalk, Push, BiPush, Auto} {
		t.Run(m.String(), func(t *testing.T) {
			engine, err := NewBatchEngine(g, m, opts)
			if err != nil {
				t.Fatalf("NewBatchEngine: %v", err)
			}
			first, err := engine.Pairs(queries)
			if err != nil {
				t.Fatalf("Pairs #1: %v", err)
			}
			warm, err := engine.Pairs(queries)
			if err != nil {
				t.Fatalf("Pairs #2: %v", err)
			}
			oneShot, err := Pairs(g, m, queries, opts)
			if err != nil {
				t.Fatalf("one-shot Pairs: %v", err)
			}
			for i := range queries {
				k1, k2, k3 := estimateKey(first[i].Estimate), estimateKey(warm[i].Estimate), estimateKey(oneShot[i].Estimate)
				if k1 != k2 {
					t.Errorf("query %d: warm pool diverged:\n  %s\n  %s", i, k1, k2)
				}
				if k1 != k3 {
					t.Errorf("query %d: one-shot diverged:\n  %s\n  %s", i, k1, k3)
				}
			}
		})
	}
}

// TestIndexBuildWorkerInvariance: the DiagMC index (the only randomized
// build mode) must be byte-identical across worker counts for a fixed
// seed, end to end through SingleSource. Each build worker runs its
// vertices' walks in lanes, so the worker count changes which vertices
// walk side by side; the weighted graph steps through the alias table.
func TestIndexBuildWorkerInvariance(t *testing.T) {
	weighted, _, err := LoadEdgeList(corpusDir + "/ba_120_2_weighted.edges")
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{"ba_600_3": determinismGraph(t), "ba_120_2_weighted": weighted} {
		landmark := g.MaxDegreeVertex()
		var want []float64
		for _, workers := range []int{1, 2, 3, 4, 0} {
			idx, err := BuildLandmarkIndexOpts(g, landmark, IndexBuildOptions{Mode: DiagMC, Seed: 9, Workers: workers})
			if err != nil {
				t.Fatalf("%s build (workers=%d): %v", name, workers, err)
			}
			ss, err := SingleSource(idx, 42)
			if err != nil {
				t.Fatalf("SingleSource: %v", err)
			}
			if want == nil {
				want = ss
				continue
			}
			for v := range ss {
				if math.Float64bits(ss[v]) != math.Float64bits(want[v]) {
					t.Fatalf("%s workers=%d: entry %d = %x, want %x", name, workers, v, math.Float64bits(ss[v]), math.Float64bits(want[v]))
				}
			}
		}
	}
}
