package landmarkrd

// Native fuzz targets for the estimator entry points. The contract under
// fuzzing is absolute: whatever bytes arrive, the library must either
// return a typed error or a finite, non-negative resistance — never
// panic, never hang, never NaN. Each target is seeded with the golden
// conformance corpus so the interesting region of the input space (real
// connected graphs) is explored from generation zero.
//
// Run continuously with:
//
//	go test -fuzz=FuzzEstimatorPair -fuzztime=60s .

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"landmarkrd/internal/lap"
)

// fuzzLimits bound each fuzz execution so the fuzzer measures coverage,
// not patience.
const (
	fuzzMaxN     = 256
	fuzzMaxEdges = 4096
)

// fuzzGraph parses an edge list from fuzz data and applies the size caps.
// The bool reports whether the input is usable for estimator fuzzing.
func fuzzGraph(data []byte) (*Graph, bool) {
	if len(data) > 1<<16 {
		return nil, false
	}
	g, _, err := ReadEdgeList(bytes.NewReader(data))
	if err != nil || g.N() == 0 || g.N() > fuzzMaxN || g.M() > fuzzMaxEdges {
		return nil, false
	}
	return g, true
}

// seedCorpus adds every golden corpus edge list as a fuzz seed.
func seedCorpus(f *testing.F, extra func(data []byte)) {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.edges"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no fuzz seed corpus: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatalf("reading %s: %v", p, err)
		}
		extra(data)
	}
	// Hand-crafted shapes the generators never emit.
	extra([]byte("0 1\n1 2\n2 0\n"))          // triangle
	extra([]byte("0 1 0.5\n"))                // single weighted edge
	extra([]byte("0 1\n2 3\n"))               // disconnected
	extra([]byte("0 1 1e-12\n1 2 1e12\n"))    // extreme weight ratio
	extra([]byte("# only comments\n"))        // empty graph
	extra([]byte("0 1\n0 1\n0 1\n1 2 3.5\n")) // duplicate edges
}

func checkEstimate(t *testing.T, what string, v float64) {
	t.Helper()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("%s: non-finite resistance %v", what, v)
	}
	if v < 0 {
		t.Fatalf("%s: negative resistance %v", what, v)
	}
}

// FuzzEstimatorPair drives all three landmark methods over arbitrary
// graphs and query pairs with bounded work budgets.
func FuzzEstimatorPair(f *testing.F) {
	seedCorpus(f, func(data []byte) {
		f.Add(data, uint8(2), uint16(1), uint16(5), uint64(7))
	})
	f.Fuzz(func(t *testing.T, data []byte, method uint8, sRaw, tRaw uint16, seed uint64) {
		g, ok := fuzzGraph(data)
		if !ok {
			t.Skip()
		}
		m := Method(int(method) % 3)
		opts := Options{
			Seed:     seed,
			Walks:    64,
			MaxSteps: 4096,
			MaxOps:   1 << 18,
		}
		est, err := NewEstimator(g, m, opts)
		if err != nil {
			// The only acceptable construction failure on a parsed graph
			// is disconnection, and it must be the typed sentinel.
			if !errors.Is(err, ErrDisconnected) {
				t.Fatalf("constructor: unexpected error %v", err)
			}
			return
		}
		s, u := int(sRaw)%g.N(), int(tRaw)%g.N()
		res, err := est.Pair(s, u)
		if err != nil {
			if !errors.Is(err, ErrLandmarkConflict) {
				t.Fatalf("Pair(%d,%d): unexpected error %v", s, u, err)
			}
			return
		}
		checkEstimate(t, "Pair", res.Value)
		if s == u && res.Value != 0 {
			t.Fatalf("Pair(%d,%d): r(s,s) = %v, want 0", s, u, res.Value)
		}
		if res.ErrBound < 0 || math.IsNaN(res.ErrBound) {
			t.Fatalf("Pair(%d,%d): bad error bound %v", s, u, res.ErrBound)
		}
	})
}

// FuzzIndexSingleSource exercises the landmark index end to end: build in
// a fuzz-chosen diagonal mode, query a fuzz-chosen source, and require a
// finite non-negative vector.
func FuzzIndexSingleSource(f *testing.F) {
	seedCorpus(f, func(data []byte) {
		f.Add(data, uint8(0), uint16(3), uint64(11))
	})
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, srcRaw uint16, seed uint64) {
		g, ok := fuzzGraph(data)
		if !ok {
			t.Skip()
		}
		dm := DiagMode(int(mode) % 3)
		landmark := g.MaxDegreeVertex()
		idx, err := BuildLandmarkIndex(g, landmark, dm, seed)
		if err != nil {
			if !errors.Is(err, ErrDisconnected) {
				t.Fatalf("build: unexpected error %v", err)
			}
			return
		}
		s := int(srcRaw) % g.N()
		ss, err := SingleSource(idx, s)
		if err != nil {
			t.Fatalf("SingleSource(%d): %v", s, err)
		}
		if len(ss) != g.N() {
			t.Fatalf("SingleSource(%d): %d entries for %d vertices", s, len(ss), g.N())
		}
		for v, r := range ss {
			checkEstimate(t, "SingleSource entry", r)
			if v == s && r != 0 {
				t.Fatalf("SingleSource(%d)[%d] = %v, want 0", s, s, r)
			}
		}
	})
}

// FuzzDynamicDifferential applies a fuzz-chosen edge insertion to the
// Sherman–Morrison updater and cross-checks its answer against a fresh
// exact solve on the materialized graph — a differential oracle that
// catches silent rank-one-update corruption, not just crashes.
func FuzzDynamicDifferential(f *testing.F) {
	seedCorpus(f, func(data []byte) {
		f.Add(data, uint16(0), uint16(9), 1.5, uint16(2), uint16(6))
	})
	f.Fuzz(func(t *testing.T, data []byte, aRaw, bRaw uint16, w float64, sRaw, tRaw uint16) {
		g, ok := fuzzGraph(data)
		if !ok || g.N() < 3 || g.N() > 128 {
			t.Skip()
		}
		// A differential oracle needs both solvers in a regime where they
		// can converge: with extreme conductance ratios the CG error bound
		// κ·tol swamps the comparison (residual small, error huge) and any
		// disagreement indicts the conditioning, not the update algebra.
		minW, maxW := math.Inf(1), 0.0
		g.ForEachEdge(func(_, _ int32, w float64) {
			minW = math.Min(minW, w)
			maxW = math.Max(maxW, w)
		})
		if maxW/minW > 1e8 {
			t.Skip()
		}
		dyn, err := NewDynamic(g)
		if err != nil {
			if !errors.Is(err, ErrDisconnected) {
				t.Fatalf("NewDynamic: unexpected error %v", err)
			}
			return
		}
		a, b := int(aRaw)%g.N(), int(bRaw)%g.N()
		s, u := int(sRaw)%g.N(), int(tRaw)%g.N()
		// Sanitize the weight into a numerically reasonable range; the
		// rejection of bad weights has its own test.
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Skip()
		}
		w = math.Abs(w)
		if w < 1e-3 || w > 1e3 {
			w = 1
		}
		if a != b {
			if err := dyn.AddEdge(a, b, w); err != nil {
				t.Fatalf("AddEdge(%d,%d,%v): %v", a, b, w, err)
			}
		}
		got, err := dyn.Resistance(s, u)
		if err != nil {
			t.Fatalf("Resistance(%d,%d): %v", s, u, err)
		}
		checkEstimate(t, "dynamic.Resistance", got)
		mat, err := dyn.Materialize()
		if err != nil {
			t.Fatalf("Materialize: %v", err)
		}
		want, err := Exact(mat, s, u)
		if err != nil {
			t.Fatalf("Exact on materialized graph: %v", err)
		}
		if diff := math.Abs(got - want); diff > 1e-6*math.Max(1, want) {
			t.Fatalf("dynamic r(%d,%d) = %v, exact on materialized graph = %v (diff %g)", s, u, got, want, diff)
		}
	})
}

// FuzzPortfolioDifferential builds a K-landmark portfolio on arbitrary
// parsed graphs and cross-checks the routed single-source answer against
// a DiagExactCG index grounded at the source — an exact differential
// oracle for the whole portfolio path (selection, column build, routing),
// not just a crash check.
func FuzzPortfolioDifferential(f *testing.F) {
	seedCorpus(f, func(data []byte) {
		f.Add(data, uint8(2), uint16(3), uint64(13))
	})
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint8, srcRaw uint16, seed uint64) {
		g, ok := fuzzGraph(data)
		if !ok || g.N() < 3 || g.N() > 128 {
			t.Skip()
		}
		// Same conditioning guard as the dynamic differential target: with
		// extreme conductance ratios the CG bound κ·tol swamps the diff.
		minW, maxW := math.Inf(1), 0.0
		g.ForEachEdge(func(_, _ int32, w float64) {
			minW = math.Min(minW, w)
			maxW = math.Max(maxW, w)
		})
		if maxW/minW > 1e8 {
			t.Skip()
		}
		k := int(kRaw)%4 + 1
		p, err := BuildPortfolioIndex(g, PortfolioBuildOptions{K: k, Mode: DiagExactCG, Seed: seed})
		if err != nil {
			if !errors.Is(err, ErrDisconnected) {
				t.Fatalf("BuildPortfolioIndex: unexpected error %v", err)
			}
			return
		}
		s := int(srcRaw) % g.N()
		got, served, err := PortfolioSingleSource(p, s)
		if err != nil {
			t.Fatalf("PortfolioSingleSource(%d): %v", s, err)
		}
		inPortfolio := false
		for _, v := range p.Landmarks {
			if v == served {
				inPortfolio = true
			}
		}
		if !inPortfolio {
			t.Fatalf("served landmark %d not in portfolio %v", served, p.Landmarks)
		}
		// Ground truth: a DiagExactCG index at the source IS the exact
		// single-source vector r(s, ·).
		ref, err := BuildLandmarkIndex(g, s, DiagExactCG, 1)
		if err != nil {
			t.Fatalf("reference index: %v", err)
		}
		for v, r := range got {
			checkEstimate(t, "portfolio single-source entry", r)
			if diff := math.Abs(r - ref.Diag[v]); diff > 1e-5*math.Max(1, ref.Diag[v]) {
				t.Fatalf("portfolio r(%d,%d) = %v via landmark %d, exact = %v (diff %g)",
					s, v, r, served, ref.Diag[v], diff)
			}
		}
	})
}

// FuzzExactPair hammers the one exact path (the reference everything else
// leans on) with arbitrary parsed graphs, including pathological weights.
// Exact reads elimination labels on graphs within the fill budget and runs
// CG otherwise; it is checked against lap.ResistanceCG at 1e-9 relative,
// and each backend against its own reversed pair bit for bit. A
// disconnected graph fails with ErrNotConnected on both, except r(s,s) = 0.
func FuzzExactPair(f *testing.F) {
	seedCorpus(f, func(data []byte) {
		f.Add(data, uint16(0), uint16(1))
	})
	f.Add([]byte("0 1\n1 2\n1 3\n3 4\n3 5\n5 6\n"), uint16(0), uint16(6))              // tree
	f.Add([]byte("0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n"), uint16(1), uint16(4))              // cycle
	f.Add([]byte("0 1 2.5\n"), uint16(1), uint16(0))                                   // n = 2
	f.Add([]byte("0 1 0.25\n1 2 4\n2 3 1.5\n3 0 7\n0 2 0.01\n"), uint16(1), uint16(3)) // weighted
	f.Add([]byte("0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n"), uint16(0), uint16(2))              // disconnected
	f.Add([]byte("0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n"), uint16(4), uint16(4))              // disconnected, s = t
	f.Add([]byte("0 1 1e6\n1 2 1e-6\n"), uint16(0), uint16(2))                         // weights 10¹² apart
	f.Add([]byte("0 1 1e8\n1 2 8e-9\n"), uint16(0), uint16(2))                         // weights 10¹⁶ apart
	f.Fuzz(func(t *testing.T, data []byte, sRaw, tRaw uint16) {
		g, ok := fuzzGraph(data)
		if !ok {
			t.Skip()
		}
		s, u := int(sRaw)%g.N(), int(tRaw)%g.N()
		cg, cgErr := lap.ResistanceCG(g, s, u)
		r, err := Exact(g, s, u)
		if s == u {
			if err != nil || r != 0 || cgErr != nil || cg != 0 {
				t.Fatalf("r(%d,%d): Exact %v (%v), CG %v (%v); want 0 from both", s, s, r, err, cg, cgErr)
			}
			return
		}
		if !g.IsConnected() {
			if !errors.Is(err, ErrDisconnected) || !errors.Is(cgErr, ErrDisconnected) {
				t.Fatalf("disconnected graph: Exact err %v, CG err %v; want ErrNotConnected from both", err, cgErr)
			}
			return
		}
		if err != nil {
			return // typed rejection (non-convergence) is fine
		}
		checkEstimate(t, "Exact", r)
		rev, err := Exact(g, u, s)
		if err != nil {
			t.Fatalf("Exact(%d,%d) succeeded but Exact(%d,%d) failed: %v", s, u, u, s, err)
		}
		if math.Float64bits(r) != math.Float64bits(rev) {
			t.Fatalf("asymmetric: r(%d,%d)=%v vs r(%d,%d)=%v", s, u, r, u, s, rev)
		}
		if cgErr != nil {
			return // CG did not converge where the labels answered
		}
		if diff := math.Abs(r - cg); diff > 1e-9*r {
			t.Fatalf("Exact(%d,%d) = %v, CG %v: relative difference %.3g", s, u, r, cg, diff/r)
		}
		cgRev, err := lap.ResistanceCG(g, u, s)
		if err != nil || math.Float64bits(cg) != math.Float64bits(cgRev) {
			t.Fatalf("asymmetric CG: r(%d,%d)=%v vs r(%d,%d)=%v (%v)", s, u, cg, u, s, cgRev, err)
		}
	})
}
