package landmarkrd

// The conformance suite: every estimator in the module — the three
// landmark methods, the single-source index in all three diagonal modes,
// the exact solvers (CG, approximate Cholesky, the dynamic updater),
// the extended comparators (Lanczos, Chebyshev, power method, lazy walks,
// sketch) — is checked against the dense oracle over a golden corpus of
// deterministic graphs stored under testdata/corpus.
//
// Tolerances are not guesses:
//   - exact paths must agree to 1e-9 (relative above r = 1);
//   - Push-family methods must respect their own reported ErrBound;
//   - Monte Carlo methods are run at K fixed seeds and the sample mean
//     must land within a Chebyshev-style band 6·σ̂/√K (plus any documented
//     truncation bias) of the oracle value — a bound loose enough to hold
//     with margin for a correct estimator and tight enough that a biased
//     one (wrong normalization, off-by-one in walk length, truncation
//     treated as absorption) fails immediately.

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"landmarkrd/internal/baseline"
	"landmarkrd/internal/chol"
	"landmarkrd/internal/core"
	"landmarkrd/internal/dynamic"
	"landmarkrd/internal/lanczos"
	"landmarkrd/internal/lap"
	"landmarkrd/internal/oracle"
	"landmarkrd/internal/randx"
)

const (
	corpusDir = "testdata/corpus"
	// exactTol is the agreement bar for solver-grade methods, relative
	// above r = 1.
	exactTol = 1e-9
	// mcSeeds is the number of fixed seeds each Monte Carlo method runs at.
	mcSeeds = 8
)

// conformanceCase is one golden graph with its oracle and derived query
// plan: a fixed landmark (max degree, as every default constructor picks)
// and deterministic pairs that avoid it.
type conformanceCase struct {
	Name     string
	G        *Graph
	O        *oracle.Oracle
	Landmark int
	Pairs    [][2]int
	Kappa    float64
}

var (
	confOnce  sync.Once
	confCases []conformanceCase
	confErr   error
)

// conformanceCases loads the corpus and builds the dense oracles once per
// test binary.
func conformanceCases(t *testing.T) []conformanceCase {
	t.Helper()
	confOnce.Do(func() {
		corpus, err := oracle.LoadCorpus(corpusDir)
		if err != nil {
			confErr = err
			return
		}
		for _, cg := range corpus {
			o, err := oracle.New(cg.G)
			if err != nil {
				confErr = fmt.Errorf("oracle for %s: %w", cg.Name, err)
				return
			}
			landmark := cg.G.MaxDegreeVertex()
			h := fnv.New64a()
			h.Write([]byte(cg.Name))
			rng := randx.New(h.Sum64() | 1)
			var pairs [][2]int
			for len(pairs) < 3 {
				s, u := rng.Intn(cg.G.N()), rng.Intn(cg.G.N())
				if s == u || s == landmark || u == landmark {
					continue
				}
				pairs = append(pairs, [2]int{s, u})
			}
			kappa, err := ConditionNumber(cg.G, 1)
			if err != nil {
				confErr = fmt.Errorf("kappa for %s: %w", cg.Name, err)
				return
			}
			confCases = append(confCases, conformanceCase{
				Name: cg.Name, G: cg.G, O: o,
				Landmark: landmark, Pairs: pairs, Kappa: kappa,
			})
		}
	})
	if confErr != nil {
		t.Fatalf("building conformance corpus: %v", confErr)
	}
	return confCases
}

// checkClose fails unless got is within tol of want, relative above 1.
func checkClose(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) {
		t.Errorf("%s: got NaN, want %v", what, want)
		return
	}
	if diff := math.Abs(got - want); diff > tol*math.Max(1, math.Abs(want)) {
		t.Errorf("%s: got %v, want %v (diff %.3g, tol %.3g)", what, got, want, diff, tol)
	}
}

// TestConformanceOracleSelfCheck validates the oracle itself on every
// corpus graph: finite, non-negative, and satisfying Foster's theorem
// Σ w_e·r(e) = n − 1, which no wrong pseudo-inverse passes by accident.
func TestConformanceOracleSelfCheck(t *testing.T) {
	for _, c := range conformanceCases(t) {
		t.Run(c.Name, func(t *testing.T) {
			if err := c.O.CheckFinite(); err != nil {
				t.Fatal(err)
			}
			var sum float64
			var ferr error
			c.G.ForEachEdge(func(u, v int32, w float64) {
				r, err := c.O.Resistance(int(u), int(v))
				if err != nil {
					ferr = err
					return
				}
				sum += w * r
			})
			if ferr != nil {
				t.Fatal(ferr)
			}
			checkClose(t, "Foster sum", sum, float64(c.G.N()-1), 1e-7)
		})
	}
}

// TestConformanceExact pins every solver-grade path to the oracle at
// 1e-9: the public CG solve, commute time, electric flow and potentials,
// the approximate-Cholesky-preconditioned solver, the dynamic updater
// with zero updates, and the DiagExactCG single-source index at a
// tightened tolerance.
func TestConformanceExact(t *testing.T) {
	for _, c := range conformanceCases(t) {
		t.Run(c.Name, func(t *testing.T) {
			cs, err := chol.NewSolver(c.G, c.Landmark, 1e-12, chol.Options{Seed: 1})
			if err != nil {
				t.Fatalf("chol.NewSolver: %v", err)
			}
			dyn, err := dynamic.New(c.G)
			if err != nil {
				t.Fatalf("dynamic.New: %v", err)
			}
			idx, err := BuildLandmarkIndex(c.G, c.Landmark, DiagExactCG, 1)
			if err != nil {
				t.Fatalf("BuildLandmarkIndex: %v", err)
			}
			for _, p := range c.Pairs {
				s, u := p[0], p[1]
				want, err := c.O.Resistance(s, u)
				if err != nil {
					t.Fatal(err)
				}
				tag := fmt.Sprintf("(%d,%d)", s, u)

				got, err := Exact(c.G, s, u)
				if err != nil {
					t.Fatalf("Exact%s: %v", tag, err)
				}
				checkClose(t, "Exact"+tag, got, want, exactTol)

				ct, err := CommuteTime(c.G, s, u)
				if err != nil {
					t.Fatalf("CommuteTime%s: %v", tag, err)
				}
				wantCT, _ := c.O.CommuteTime(s, u)
				checkClose(t, "CommuteTime"+tag, ct, wantCT, exactTol)

				cr, err := cs.Resistance(s, u)
				if err != nil {
					t.Fatalf("chol.Resistance%s: %v", tag, err)
				}
				checkClose(t, "chol.Resistance"+tag, cr, want, exactTol)

				dr, err := dyn.Resistance(s, u)
				if err != nil {
					t.Fatalf("dynamic.Resistance%s: %v", tag, err)
				}
				checkClose(t, "dynamic.Resistance"+tag, dr, want, exactTol)

				phi, err := Potential(c.G, s, u)
				if err != nil {
					t.Fatalf("Potential%s: %v", tag, err)
				}
				checkClose(t, "Potential drop"+tag, phi[s]-phi[u], want, exactTol)

				flow, err := ComputeElectricFlow(c.G, s, u)
				if err != nil {
					t.Fatalf("ComputeElectricFlow%s: %v", tag, err)
				}
				checkClose(t, "flow.Energy"+tag, flow.Energy(), want, exactTol)

				// One tight single-source sweep per pair's source.
				ss, err := idx.SingleSource(s, core.SingleSourceOptions{Tol: 1e-12})
				if err != nil {
					t.Fatalf("SingleSource%s: %v", tag, err)
				}
				wantSS, err := c.O.SingleSource(s)
				if err != nil {
					t.Fatal(err)
				}
				worst, at := 0.0, -1
				for v := range ss {
					d := math.Abs(ss[v]-wantSS[v]) / math.Max(1, math.Abs(wantSS[v]))
					if d > worst {
						worst, at = d, v
					}
				}
				if worst > exactTol {
					t.Errorf("SingleSource(%d): worst entry %d off by %.3g (tol %.3g)", s, at, worst, exactTol)
				}
			}
		})
	}
}

// TestConformanceDense checks the dense reference paths against the
// oracle on the smallest corpus graphs (they are mutually independent
// implementations: pseudo-inverse + J/n trick vs grounded Cholesky).
func TestConformanceDense(t *testing.T) {
	for _, c := range conformanceCases(t) {
		if c.G.N() > 64 {
			continue
		}
		t.Run(c.Name, func(t *testing.T) {
			m, err := lap.DenseResistanceMatrix(c.G)
			if err != nil {
				t.Fatalf("DenseResistanceMatrix: %v", err)
			}
			want := c.O.ResistanceMatrix()
			for i := 0; i < c.G.N(); i++ {
				for j := 0; j < c.G.N(); j++ {
					if math.Abs(m.At(i, j)-want.At(i, j)) > 1e-8*math.Max(1, want.At(i, j)) {
						t.Fatalf("dense r(%d,%d) = %v, oracle %v", i, j, m.At(i, j), want.At(i, j))
					}
				}
			}
		})
	}
}

// TestConformancePushBound checks the deterministic Push estimator the
// only way that is fair to it: the answer must be within its own reported
// a-posteriori ErrBound of the truth, and PairWithinEps must deliver the
// eps it promises.
func TestConformancePushBound(t *testing.T) {
	for _, c := range conformanceCases(t) {
		t.Run(c.Name, func(t *testing.T) {
			est, err := NewEstimatorAt(c.G, Push, c.Landmark, Options{})
			if err != nil {
				t.Fatalf("NewEstimatorAt: %v", err)
			}
			for _, p := range c.Pairs {
				s, u := p[0], p[1]
				want, err := c.O.Resistance(s, u)
				if err != nil {
					t.Fatal(err)
				}
				res, err := est.Pair(s, u)
				if err != nil {
					t.Fatalf("Push.Pair(%d,%d): %v", s, u, err)
				}
				if res.ErrBound <= 0 {
					t.Errorf("Push(%d,%d): no error bound reported", s, u)
				}
				if diff := math.Abs(res.Value - want); diff > res.ErrBound+1e-12 {
					t.Errorf("Push(%d,%d): |%v − %v| = %.3g exceeds own ErrBound %.3g",
						s, u, res.Value, want, diff, res.ErrBound)
				}
				const eps = 1e-3
				res, err = est.PairWithinEps(s, u, eps)
				if err != nil {
					t.Fatalf("PairWithinEps(%d,%d): %v", s, u, err)
				}
				if diff := math.Abs(res.Value - want); diff > eps+1e-12 {
					t.Errorf("PairWithinEps(%d,%d): off by %.3g > eps %.3g", s, u, diff, eps)
				}
			}
		})
	}
}

// TestConformanceLanczos checks the global Lanczos iteration at full
// Krylov dimension (where breakdown makes it exact up to rounding) and
// the local Lanczos push at a tight sparsification threshold.
func TestConformanceLanczos(t *testing.T) {
	for _, c := range conformanceCases(t) {
		t.Run(c.Name, func(t *testing.T) {
			for _, p := range c.Pairs[:1] {
				s, u := p[0], p[1]
				want, err := c.O.Resistance(s, u)
				if err != nil {
					t.Fatal(err)
				}
				res, err := lanczos.Iteration(c.G, s, u, c.G.N())
				if err != nil {
					t.Fatalf("lanczos.Iteration: %v", err)
				}
				checkClose(t, fmt.Sprintf("lanczos.Iteration(%d,%d)", s, u), res.Value, want, 1e-6)

				pres, err := lanczos.Push(c.G, s, u, lanczos.PushOptions{K: c.G.N(), Epsilon: 1e-9})
				if err != nil {
					t.Fatalf("lanczos.Push: %v", err)
				}
				checkClose(t, fmt.Sprintf("lanczos.Push(%d,%d)", s, u), pres.Value, want, 1e-5)
			}
		})
	}
}

// TestConformanceSeriesMethods checks the deterministic series solvers
// (truncated power method, Chebyshev semi-iteration) at truncation lengths
// derived from the measured condition number, against tolerances implied
// by those lengths.
func TestConformanceSeriesMethods(t *testing.T) {
	for _, c := range conformanceCases(t) {
		t.Run(c.Name, func(t *testing.T) {
			steps := baseline.GroundTruthSteps(c.Kappa, 1e-7)
			// Chebyshev needs a LOWER bound on λ₂ = 2/κ; pad the Lanczos
			// estimate by 20% to stay on the safe side.
			lmin := 2 / (1.2 * c.Kappa)
			iters := int(20*math.Sqrt(c.Kappa)) + 64
			for _, p := range c.Pairs[:1] {
				s, u := p[0], p[1]
				want, err := c.O.Resistance(s, u)
				if err != nil {
					t.Fatal(err)
				}
				pm, err := baseline.PowerMethod(c.G, s, u, baseline.PowerMethodOptions{Steps: steps})
				if err != nil {
					t.Fatalf("PowerMethod: %v", err)
				}
				checkClose(t, fmt.Sprintf("PowerMethod(%d,%d)", s, u), pm.Value, want, 1e-5)

				cb, err := baseline.ChebyshevRD(c.G, s, u, baseline.ChebyshevOptions{Iterations: iters, LambdaMin: lmin})
				if err != nil {
					t.Fatalf("ChebyshevRD: %v", err)
				}
				checkClose(t, fmt.Sprintf("ChebyshevRD(%d,%d)", s, u), cb.Value, want, 1e-4)
			}
		})
	}
}

// mcMethod is one Monte Carlo estimator under statistical conformance
// testing: sample(seed) returns one estimate of r for the fixed pair.
type mcMethod struct {
	name string
	// bias is the documented truncation-bias allowance added to the band.
	bias float64
	// minKappaSkip skips the method on graphs above this condition number
	// (0 = never skip): the lazy-walk series methods need Length ∝ κ and
	// are conformance-tested where that is affordable.
	maxKappa float64
	sample   func(c conformanceCase, s, u int, seed uint64) (float64, error)
}

// TestConformanceMonteCarlo runs every sampling estimator at mcSeeds fixed
// seeds per query and requires the sample mean to sit inside the
// Chebyshev-style band 6·σ̂/√K + bias around the oracle value. The seeds
// are fixed, so the test is deterministic; the band is derived, not tuned.
func TestConformanceMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical conformance is not a -short test")
	}
	portfolios := map[string]*PortfolioIndex{}
	methods := []mcMethod{
		{
			name: "AbWalk",
			sample: func(c conformanceCase, s, u int, seed uint64) (float64, error) {
				est, err := NewEstimatorAt(c.G, AbWalk, c.Landmark, Options{Seed: seed})
				if err != nil {
					return 0, err
				}
				res, err := est.Pair(s, u)
				return res.Value, err
			},
		},
		{
			name: "BiPush",
			sample: func(c conformanceCase, s, u int, seed uint64) (float64, error) {
				est, err := NewEstimatorAt(c.G, BiPush, c.Landmark, Options{Seed: seed})
				if err != nil {
					return 0, err
				}
				res, err := est.Pair(s, u)
				return res.Value, err
			},
		},
		{
			// The serving path: a one-query batch routed through a K=3
			// sketch portfolio, built once per corpus graph.
			name: "Routed",
			sample: func(c conformanceCase, s, u int, seed uint64) (float64, error) {
				pf := portfolios[c.Name]
				if pf == nil {
					var err error
					pf, err = BuildPortfolioIndex(c.G, PortfolioBuildOptions{K: 3, Mode: DiagSketch, Seed: 7})
					if err != nil {
						return 0, err
					}
					portfolios[c.Name] = pf
				}
				res, err := Pairs(c.G, BiPush, []PairQuery{{s, u}}, BatchOptions{Portfolio: pf, Options: Options{Seed: seed}})
				if err != nil {
					return 0, err
				}
				return res[0].Estimate.Value, res[0].Err
			},
		},
		{
			name: "CommuteMC",
			// Hitting-time truncation at the default cap leaves a small
			// negative bias on hard graphs.
			bias: 0.02,
			sample: func(c conformanceCase, s, u int, seed uint64) (float64, error) {
				res, err := baseline.CommuteMC(c.G, s, u, baseline.CommuteMCOptions{Walks: 400}, randx.New(seed))
				return res.Value, err
			},
		},
		{
			name:     "LazyWalkRD",
			bias:     2e-3, // series truncated at GroundTruthSteps(κ, 1e-3)
			maxKappa: 40,
			sample: func(c conformanceCase, s, u int, seed uint64) (float64, error) {
				length := baseline.GroundTruthSteps(c.Kappa, 1e-3)
				res, err := baseline.LazyWalkRD(c.G, s, u, baseline.LazyWalkOptions{Length: length, Walks: 3000}, randx.New(seed))
				return res.Value, err
			},
		},
		{
			name:     "AdaptiveLazyWalk",
			bias:     0.05 + 2e-3, // target half-width + series truncation
			maxKappa: 40,
			sample: func(c conformanceCase, s, u int, seed uint64) (float64, error) {
				length := baseline.GroundTruthSteps(c.Kappa, 1e-3)
				res, err := baseline.AdaptiveLazyWalk(c.G, s, u, baseline.AdaptiveOptions{Epsilon: 0.05, Length: length}, randx.New(seed))
				return res.Value, err
			},
		},
	}
	for _, c := range conformanceCases(t) {
		for _, m := range methods {
			if m.maxKappa > 0 && c.Kappa > m.maxKappa {
				continue
			}
			t.Run(c.Name+"/"+m.name, func(t *testing.T) { checkMonteCarloBand(t, c, m) })
		}
	}
}

// checkMonteCarloBand runs m at mcSeeds fixed seeds on the first two query
// pairs of c and requires each sample mean inside 6·σ̂/√K + bias of the
// oracle.
func checkMonteCarloBand(t *testing.T, c conformanceCase, m mcMethod) {
	t.Helper()
	for _, p := range c.Pairs[:2] {
		s, u := p[0], p[1]
		want, err := c.O.Resistance(s, u)
		if err != nil {
			t.Fatal(err)
		}
		var vals []float64
		for k := 0; k < mcSeeds; k++ {
			v, err := m.sample(c, s, u, uint64(1000*k+7))
			if err != nil {
				t.Fatalf("%s seed %d: %v", m.name, k, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s seed %d: non-finite estimate %v", m.name, k, v)
			}
			if v < 0 {
				t.Fatalf("%s seed %d: negative resistance %v", m.name, k, v)
			}
			vals = append(vals, v)
		}
		mean, sd := meanStd(vals)
		band := 6*sd/math.Sqrt(float64(len(vals))) + m.bias*math.Max(1, want) + 1e-9
		if diff := math.Abs(mean - want); diff > band {
			t.Errorf("%s(%d,%d): mean %v vs oracle %v — off by %.4g, band %.4g (σ̂ %.4g)",
				m.name, s, u, mean, want, diff, band, sd)
		}
	}
}

// TestConformanceWeightedWalks checks the alias-table walk kernel where it
// matters: AbWalk and BiPush on the unweighted ba_200_4 corpus graph after
// 150 streamed weight-0.5 edge insertions materialize it as a weighted graph
// (the shape a live replica serves after its first re-base), against the
// dense oracle inside the same 6·σ̂/√K bands as the unweighted corpus.
func TestConformanceWeightedWalks(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical conformance is not a -short test")
	}
	base, _, err := LoadEdgeList(corpusDir + "/ba_200_4.edges")
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(41)
	seen := map[[2]int]bool{}
	var patches []dynamic.Patch
	for len(patches) < 150 {
		a, b := rng.Intn(base.N()), rng.Intn(base.N())
		if a > b {
			a, b = b, a
		}
		if a == b || base.HasEdge(a, b) || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		patches = append(patches, dynamic.Patch{A: a, B: b, W: 0.5})
	}
	g, err := dynamic.MaterializeGraph(base, patches)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("materialized graph is unweighted")
	}
	o, err := oracle.New(g)
	if err != nil {
		t.Fatal(err)
	}
	// Query the endpoints of inserted edges: their resistance is the one
	// the 0.5 weights move most, so a walk that ignored the weights would
	// land outside the band.
	c := conformanceCase{Name: "ba_200_4+0.5w", G: g, O: o, Landmark: g.MaxDegreeVertex()}
	for _, p := range patches {
		if len(c.Pairs) < 2 && p.A != c.Landmark && p.B != c.Landmark {
			c.Pairs = append(c.Pairs, [2]int{p.A, p.B})
		}
	}
	for _, m := range []Method{AbWalk, BiPush} {
		t.Run(m.String(), func(t *testing.T) {
			checkMonteCarloBand(t, c, mcMethod{
				name: m.String(),
				sample: func(c conformanceCase, s, u int, seed uint64) (float64, error) {
					est, err := NewEstimatorAt(c.G, m, c.Landmark, Options{Seed: seed})
					if err != nil {
						return 0, err
					}
					res, err := est.Pair(s, u)
					return res.Value, err
				},
			})
		})
	}
}

// TestConformanceSketch checks the Spielman–Srivastava sketch (and the
// DiagSketch index mode built on it) against its ε-relative guarantee,
// with a factor-2 allowance for the with-high-probability nature of the
// JL embedding at fixed seeds.
func TestConformanceSketch(t *testing.T) {
	const eps = 0.25
	for _, c := range conformanceCases(t) {
		t.Run(c.Name, func(t *testing.T) {
			sk, err := BuildSketch(c.G, eps, 12345)
			if err != nil {
				t.Fatalf("BuildSketch: %v", err)
			}
			for _, p := range c.Pairs {
				s, u := p[0], p[1]
				want, err := c.O.Resistance(s, u)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sk.Resistance(s, u)
				if err != nil {
					t.Fatalf("sketch.Resistance: %v", err)
				}
				if rel := math.Abs(got-want) / want; rel > 2*eps {
					t.Errorf("sketch(%d,%d): %v vs %v — relative error %.3f > %.3f", s, u, got, want, rel, 2*eps)
				}
			}
		})
	}
}

// TestConformanceIndexModes checks the two approximate diagonal modes of
// the single-source index: DiagMC entries via the multi-seed Chebyshev
// band, DiagSketch entries via the sketch's relative guarantee.
func TestConformanceIndexModes(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical conformance is not a -short test")
	}
	var c conformanceCase
	found := false
	for _, cc := range conformanceCases(t) {
		if cc.Name == "ba_120_2_weighted" {
			c, found = cc, true
		}
	}
	if !found {
		t.Fatal("corpus graph ba_120_2_weighted missing")
	}
	s := c.Pairs[0][0]
	want, err := c.O.SingleSource(s)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("DiagMC", func(t *testing.T) {
		const builds = 6
		vecs := make([][]float64, builds)
		for k := 0; k < builds; k++ {
			idx, err := BuildLandmarkIndex(c.G, c.Landmark, DiagMC, uint64(5000+k))
			if err != nil {
				t.Fatalf("BuildLandmarkIndex: %v", err)
			}
			vecs[k], err = idx.SingleSource(s, core.SingleSourceOptions{Tol: 1e-12})
			if err != nil {
				t.Fatalf("SingleSource: %v", err)
			}
		}
		for v := 0; v < c.G.N(); v++ {
			if v == s {
				continue
			}
			samples := make([]float64, builds)
			for k := range vecs {
				samples[k] = vecs[k][v]
			}
			mean, sd := meanStd(samples)
			band := 6*sd/math.Sqrt(builds) + 0.02*math.Max(1, want[v])
			if diff := math.Abs(mean - want[v]); diff > band {
				t.Errorf("DiagMC entry %d: mean %v vs oracle %v — off by %.4g, band %.4g", v, mean, want[v], diff, band)
			}
		}
	})

	t.Run("DiagSketch", func(t *testing.T) {
		idx, err := BuildLandmarkIndexOpts(c.G, c.Landmark, IndexBuildOptions{Mode: DiagSketch, Seed: 777})
		if err != nil {
			t.Fatalf("BuildLandmarkIndexOpts: %v", err)
		}
		got, err := idx.SingleSource(s, core.SingleSourceOptions{Tol: 1e-12})
		if err != nil {
			t.Fatalf("SingleSource: %v", err)
		}
		// Default sketch epsilon is 0.3; allow 2× for fixed-seed whp.
		for v := 0; v < c.G.N(); v++ {
			if v == s || want[v] == 0 {
				continue
			}
			if rel := math.Abs(got[v]-want[v]) / want[v]; rel > 0.6 {
				t.Errorf("DiagSketch entry %d: %v vs %v — relative error %.3f", v, got[v], want[v], rel)
			}
		}
	})
}

// TestConformanceMetamorphic drives the library's public exact paths
// through the metamorphic transforms: the laws hold in closed form, so
// any disagreement indicts the estimator, not the test.
func TestConformanceMetamorphic(t *testing.T) {
	base := conformanceCases(t)[0] // ba_120_2_weighted (sorted order)
	g := base.G
	s, u := base.Pairs[0][0], base.Pairs[0][1]
	r0, err := base.O.Resistance(s, u)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("WeightScaling", func(t *testing.T) {
		const cfac = 2.5
		scaled, err := oracle.ScaleWeights(g, cfac)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Exact(scaled, s, u)
		if err != nil {
			t.Fatal(err)
		}
		checkClose(t, "scaled Exact", got, r0/cfac, exactTol)
	})

	t.Run("RelabelInvariance", func(t *testing.T) {
		perm := randx.New(31).Perm(g.N())
		rg, err := oracle.Relabel(g, perm)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Exact(rg, perm[s], perm[u])
		if err != nil {
			t.Fatal(err)
		}
		checkClose(t, "relabelled Exact", got, r0, exactTol)
	})

	t.Run("RayleighViaDynamic", func(t *testing.T) {
		// The dynamic updater IS an add-edge transform; its answer after
		// an insertion must match the Sherman–Morrison closed form
		// predicted from the original oracle, and must not exceed r0.
		dyn, err := NewDynamic(g)
		if err != nil {
			t.Fatal(err)
		}
		a, b, w := s, (u+7)%g.N(), 1.5
		if b == a {
			b = (b + 1) % g.N()
		}
		if err := dyn.AddEdge(a, b, w); err != nil {
			t.Fatal(err)
		}
		got, err := dyn.Resistance(s, u)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.PredictAddEdge(base.O, a, b, w, s, u)
		if err != nil {
			t.Fatal(err)
		}
		checkClose(t, "dynamic after AddEdge", got, want, 1e-7)
		if got > r0+exactTol {
			t.Errorf("Rayleigh violated: %v > %v after adding an edge", got, r0)
		}
	})

	t.Run("SeriesParallel", func(t *testing.T) {
		paths := [][]float64{{1}, {2, 2}, {1, 1, 1}}
		pg, err := oracle.ParallelPaths(paths)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Exact(pg, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkClose(t, "parallel-paths Exact", got, oracle.ParallelResistance(paths), exactTol)
	})

	t.Run("GlueCutVertex", func(t *testing.T) {
		tail := []float64{1, 0.5, 2}
		path, err := oracle.PathGraph(tail)
		if err != nil {
			t.Fatal(err)
		}
		cut := base.Landmark
		glued, err := oracle.Glue(g, cut, path, 0)
		if err != nil {
			t.Fatal(err)
		}
		end := oracle.Glued2(g, cut, 0, len(tail))
		got, err := Exact(glued, s, end)
		if err != nil {
			t.Fatal(err)
		}
		rCut, err := base.O.Resistance(s, cut)
		if err != nil {
			t.Fatal(err)
		}
		checkClose(t, "glued Exact", got, rCut+oracle.SeriesResistance(tail), exactTol)
	})

	t.Run("CommuteIdentity", func(t *testing.T) {
		ct, err := CommuteTime(g, s, u)
		if err != nil {
			t.Fatal(err)
		}
		checkClose(t, "commute identity", ct, g.Volume()*r0, exactTol)
	})
}

func meanStd(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}
