package landmarkrd

// Seed-determinism contract, end to end: for a fixed Options.Seed, every
// method must produce byte-identical estimates — across independent runs,
// across pooled/cold/one-shot batch engines, and across ANY worker count.
// "Byte-identical" is literal: float64 bit patterns compared with
// math.Float64bits, not an epsilon. Only Duration (wall time) is excluded.

import (
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
// be byte-identical, for every method, pooled or not.
func TestBatchWorkerCountInvariance(t *testing.T) {
	g := determinismGraph(t)
	queries := make([]PairQuery, 40)
	for i := range queries {
		queries[i] = PairQuery{S: (i*13 + 1) % g.N(), T: (i*37 + 5) % g.N()}
	}
	for _, m := range []Method{AbWalk, Push, BiPush, Auto} {
		t.Run(m.String(), func(t *testing.T) {
			var want []string
			for _, workers := range []int{1, 2, 3, 7, 0} {
				opts := BatchOptions{Options: Options{Seed: 11}, Workers: workers, PinLandmark: true, Landmark: g.MaxDegreeVertex()}
				res, err := Pairs(g, m, queries, opts)
				if err != nil {
					t.Fatalf("Pairs(workers=%d): %v", workers, err)
				}
				keys := make([]string, len(res))
				for i, r := range res {
					if r.Err != nil {
						t.Fatalf("query %d: %v", i, r.Err)
					}
					keys[i] = estimateKey(r.Estimate)
				}
				if want == nil {
					want = keys
					continue
				}
				for i := range keys {
					if keys[i] != want[i] {
						t.Fatalf("workers=%d: query %d differs from workers=1:\n  %s\n  %s",
							workers, i, keys[i], want[i])
					}
				}
			}
		})
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
// seed, end to end through SingleSource.
func TestIndexBuildWorkerInvariance(t *testing.T) {
	g := determinismGraph(t)
	landmark := g.MaxDegreeVertex()
	var want []float64
	for _, workers := range []int{1, 3, 0} {
		idx, err := BuildLandmarkIndexOpts(g, landmark, IndexBuildOptions{Mode: DiagMC, Seed: 9, Workers: workers})
		if err != nil {
			t.Fatalf("build (workers=%d): %v", workers, err)
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
				t.Fatalf("workers=%d: entry %d = %x, want %x", workers, v, math.Float64bits(ss[v]), math.Float64bits(want[v]))
			}
		}
	}
}
