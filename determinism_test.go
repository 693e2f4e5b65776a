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

// TestOneAnswerPerPair is the pair-keyed stream contract: within one
// engine (graph, seed, portfolio), a pair gets one bit pattern however it
// is asked — as (s, t) or (t, s), alone or at position 0 or 5 of a batch,
// at 1, 2 or 4 workers — for every method, the degraded tier and
// AdaptivePairs. A lone query splits its walks across the workers; a
// six-query batch runs each query on one worker's lanes. The engine echoes
// the caller's orientation.
func TestOneAnswerPerPair(t *testing.T) {
	g := determinismGraph(t)
	pf, err := BuildPortfolioIndex(g, PortfolioBuildOptions{K: 4, Mode: DiagSketch, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pairs := []PairQuery{{S: 2, T: 501}, {S: 350, T: 17}, {S: 44, T: 599}, {S: 123, T: 321}}
	filler := []PairQuery{{S: 8, T: 90}, {S: 77, T: 411}, {S: 300, T: 5}, {S: 250, T: 251}, {S: 13, T: 560}, {S: 400, T: 401}}
	// asked returns the ways of asking pair p: alone, or at position 0 or
	// 5 of a six-query batch, each in both orientations.
	asked := func(p PairQuery) (batches [][]PairQuery, at []int) {
		for _, q := range []PairQuery{p, {S: p.T, T: p.S}} {
			batches, at = append(batches, []PairQuery{q}), append(at, 0)
			for _, pos := range []int{0, 5} {
				b := append([]PairQuery(nil), filler...)
				b[pos] = q
				batches, at = append(batches, b), append(at, pos)
			}
		}
		return batches, at
	}
	type run func(workers int, queries []PairQuery) ([]PairResult, error)
	engineRun := func(m Method, degraded bool) run {
		return func(workers int, queries []PairQuery) ([]PairResult, error) {
			e, err := NewBatchEngine(g, m, BatchOptions{Options: Options{Seed: 5, Walks: 64}, Workers: workers, Portfolio: pf})
			if err != nil {
				return nil, err
			}
			if degraded {
				return e.DegradedPairsContext(context.Background(), queries)
			}
			return e.PairsContext(context.Background(), queries)
		}
	}
	cases := map[string]run{"degraded": engineRun(BiPush, true)}
	for _, m := range []Method{AbWalk, Push, BiPush, Auto} {
		cases[m.String()] = engineRun(m, false)
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			for _, p := range pairs {
				want := ""
				batches, at := asked(p)
				for _, workers := range []int{1, 2, 4} {
					for b, queries := range batches {
						res, err := f(workers, queries)
						if err != nil {
							t.Fatal(err)
						}
						r := res[at[b]]
						if r.Err != nil {
							t.Fatalf("%v workers=%d: %v", queries[at[b]], workers, r.Err)
						}
						if r.PairQuery != queries[at[b]] {
							t.Fatalf("result echoes %v, asked %v", r.PairQuery, queries[at[b]])
						}
						key := fmt.Sprintf("%s degraded=%v", estimateKey(r.Estimate), r.Degraded)
						if want == "" {
							want = key
						} else if key != want {
							t.Fatalf("pair %v asked as %v at position %d of %d, workers=%d:\n  %s\n  want %s",
								p, queries[at[b]], at[b], len(queries), workers, key, want)
						}
					}
				}
			}
		})
	}

	// AdaptivePairs splits one budget across its batch, so a pair keeps its
	// answer when the same batch is reordered or reoriented.
	t.Run("AdaptivePairs", func(t *testing.T) {
		base := append(append([]PairQuery(nil), pairs[:1]...), filler[1:]...)
		for _, workers := range []int{1, 2, 4} {
			e, err := NewBatchEngine(g, AbWalk, BatchOptions{Options: Options{Seed: 5}, Workers: workers, PinLandmark: true, Landmark: g.MaxDegreeVertex()})
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, flip := range []bool{false, true} {
				for _, pos := range []int{0, 5} {
					queries := append([]PairQuery(nil), base...)
					if flip {
						for i := range queries {
							queries[i] = PairQuery{S: queries[i].T, T: queries[i].S}
						}
					}
					queries[0], queries[pos] = queries[pos], queries[0]
					res, err := e.AdaptivePairs(queries, AdaptiveBatchOptions{TotalWalks: 3000, PilotWalks: 32})
					if err != nil {
						t.Fatal(err)
					}
					res[0], res[pos] = res[pos], res[0]
					keys := make([]string, len(res))
					for i, r := range res {
						if r.Err != nil {
							t.Fatalf("%v: %v", r.PairQuery, r.Err)
						}
						keys[i] = estimateKey(r.Estimate)
					}
					if want == nil {
						want = keys
						continue
					}
					for i := range keys {
						if keys[i] != want[i] {
							t.Fatalf("workers=%d flip=%v position %d: pair %v answered\n  %s\n  want %s", workers, flip, pos, base[i], keys[i], want[i])
						}
					}
				}
			}
		}
	})
}
