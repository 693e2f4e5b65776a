package lap

import (
	"context"
	"math"
	"testing"

	"landmarkrd/internal/graph"
	"landmarkrd/internal/linalg"
	"landmarkrd/internal/randx"
)

// blockTestGraphs spans the structural range that matters for the fused
// sweep: unweighted and weighted, hubby and high-diameter.
func blockTestGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	ba, err := graph.BarabasiAlbert(80, 3, randx.New(7))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := graph.Grid2D(9, 9, 0.3, randx.New(8)) // perturbed → weighted
	if err != nil {
		t.Fatal(err)
	}
	p, err := graph.Path(40)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"ba": ba, "grid_w": grid, "path": p}
}

// applyInterleaved applies op to the columns xs through ApplyBlock, eight
// columns to an interleaved block, each block swept over the fewest lanes
// (2, 4 or 8) that hold its columns, with entry i of lane c at i·lanes + c;
// spare lanes among those hold random values, which no column may see. It
// fails the test if ApplyBlock changes its input.
func applyInterleaved(t *testing.T, op linalg.BlockOperator, xs [][]float64, rng *randx.RNG) [][]float64 {
	t.Helper()
	const bw = linalg.BlockWidth
	n := op.Dim()
	out := make([][]float64, len(xs))
	for lo := 0; lo < len(xs); lo += bw {
		lanes := bw
		if cols := min(bw, len(xs)-lo); cols <= 2 {
			lanes = 2
		} else if cols <= 4 {
			lanes = 4
		}
		x := make([]float64, lanes*n)
		for c := 0; c < lanes; c++ {
			col := randVec(n, rng)
			if lo+c < len(xs) {
				col = xs[lo+c]
			}
			for i, v := range col {
				x[i*lanes+c] = v
			}
		}
		orig := append([]float64(nil), x...)
		dst := make([]float64, lanes*n)
		op.ApplyBlock(dst, x, lanes)
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("ApplyBlock mutated its input at %d", i)
			}
		}
		for c := 0; lo+c < len(xs) && c < lanes; c++ {
			out[lo+c] = make([]float64, n)
			for i := range out[lo+c] {
				out[lo+c][i] = dst[i*lanes+c]
			}
		}
	}
	return out
}

// TestGroundedApplyBlockMatchesApply: the interleaved block sweep must be
// bitwise identical, column by column, to k single Apply sweeps for every
// column count 1…9 (a full block, partial blocks, and one past a block),
// in both the sequential and row-parallel regimes.
func TestGroundedApplyBlockMatchesApply(t *testing.T) {
	for name, g := range blockTestGraphs(t) {
		for _, noParallel := range []bool{true, false} {
			l := Grounded{G: g, Landmark: 0, NoParallel: noParallel}
			rng := randx.New(31)
			n := g.N()
			for k := 1; k <= 9; k++ {
				x := make([][]float64, k)
				ref := make([][]float64, k)
				for c := range x {
					x[c] = make([]float64, n)
					for i := range x[c] {
						x[c][i] = rng.NormFloat64()
					}
					ref[c] = make([]float64, n)
					l.Apply(ref[c], x[c])
				}
				dst := applyInterleaved(t, &l, x, rng)
				for c := 0; c < k; c++ {
					for i := 0; i < n; i++ {
						if math.Float64bits(dst[c][i]) != math.Float64bits(ref[c][i]) {
							t.Fatalf("%s noParallel=%v k=%d: dst[%d][%d] = %v, want %v",
								name, noParallel, k, c, i, dst[c][i], ref[c][i])
						}
					}
				}
			}
		}
	}
}

// TestGroundedBlockSolverMatchesSingle: SolveUnits must reproduce the
// single-column SolveUnit bit for bit for every column under the default
// Jacobi preconditioner. (The same identity under a shared Cholesky factor
// is checked from the external test package — chol imports lap, so it cannot
// be exercised here.)
func TestGroundedBlockSolverMatchesSingle(t *testing.T) {
	for name, g := range blockTestGraphs(t) {
		landmark := 0
		ts := []int{1, g.N() / 2, g.N() - 1, 3}
		single := NewGroundedSolver(g, landmark)
		bs := NewGroundedBlockSolver(g, landmark, len(ts))
		refX := make([][]float64, len(ts))
		refRes := make([]linalg.CGResult, len(ts))
		for c, tt := range ts {
			x, res, err := single.SolveUnit(tt, ExactTol)
			if err != nil {
				t.Fatalf("%s: single solve %d: %v", name, tt, err)
			}
			refX[c] = append([]float64(nil), x...)
			refRes[c] = res
		}
		xs, results, colErrs, err := bs.SolveUnits(context.Background(), ts, ExactTol)
		if err != nil {
			t.Fatalf("%s: block solve: %v", name, err)
		}
		for c := range ts {
			if colErrs[c] != nil {
				t.Fatalf("%s col %d: %v", name, c, colErrs[c])
			}
			if results[c].Iterations != refRes[c].Iterations {
				t.Errorf("%s col %d: iterations %d, want %d",
					name, c, results[c].Iterations, refRes[c].Iterations)
			}
			for i := range xs[c] {
				if xs[c][i] != refX[c][i] {
					t.Fatalf("%s col %d row %d: %v != %v (bitwise)",
						name, c, i, xs[c][i], refX[c][i])
				}
			}
		}
	}
}

// TestGroundedBlockSolverSolveRHS checks the general-rhs entry point against
// the single-column Solve path and that the caller's rhs is untouched.
func TestGroundedBlockSolverSolveRHS(t *testing.T) {
	g, err := graph.BarabasiAlbert(60, 3, randx.New(9))
	if err != nil {
		t.Fatal(err)
	}
	landmark := 0
	n := g.N()
	rng := randx.New(32)
	bs := NewGroundedBlockSolver(g, landmark, 3)
	single := NewGroundedSolver(g, landmark)
	b := make([][]float64, 3)
	orig := make([][]float64, 3)
	for c := range b {
		b[c] = make([]float64, n)
		for i := range b[c] {
			b[c][i] = rng.NormFloat64()
		}
		orig[c] = append([]float64(nil), b[c]...)
	}
	xs, _, colErrs, err := bs.SolveRHS(context.Background(), b, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	for c := range b {
		if colErrs[c] != nil {
			t.Fatal(colErrs[c])
		}
		ref, _, err := single.Solve(b[c], 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if xs[c][i] != ref[i] {
				t.Fatalf("col %d row %d: %v != %v", c, i, xs[c][i], ref[i])
			}
		}
		for i := range b[c] {
			if b[c][i] != orig[c][i] {
				t.Fatalf("SolveRHS mutated caller rhs at [%d][%d]", c, i)
			}
		}
	}
}

// TestGroundedBlockSolverReground: one solver moved between grounds (as
// the batch engine's free list moves it between blocks) answers every
// block bit for bit as a fresh ResistanceBatchCG at that ground.
func TestGroundedBlockSolverReground(t *testing.T) {
	g, err := graph.BarabasiAlbert(80, 3, randx.New(4))
	if err != nil {
		t.Fatal(err)
	}
	blocks := []struct {
		ground int
		pairs  [][2]int
	}{
		{0, [][2]int{{1, 2}, {5, 40}, {10, 79}}},
		{1, [][2]int{{0, 2}, {0, 60}}}, // pairs touching vertex 0 ground at 1
		{0, [][2]int{{3, 33}, {7, 70}, {2, 50}, {11, 12}}},
	}
	s := NewGroundedBlockSolver(g, blocks[0].ground, 4)
	for i, b := range blocks {
		s.Reground(b.ground)
		got, gotErrs, err := s.Resistances(context.Background(), b.pairs, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ResistanceBatchCG(context.Background(), g, b.ground, b.pairs, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := range b.pairs {
			if gotErrs[k] != nil || math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Errorf("block %d pair %v: %v (%v), fresh solver %v", i, b.pairs[k], got[k], gotErrs[k], want[k])
			}
		}
	}
}

// TestResistanceBatchCGMatchesSingle: the grouped exact batch must agree with
// per-pair ResistanceCG bit for bit when the pairs share a grounding vertex,
// and must report per-pair errors without failing the batch.
func TestResistanceBatchCGMatchesSingle(t *testing.T) {
	g, err := graph.Grid2D(8, 8, 0, randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]int{{1, 2}, {5, 40}, {3, 3}, {10, 63}}
	ground := GroundVertex(g, pairs[0][0], pairs[0][1])
	for _, pr := range pairs[1:] {
		if pr[0] != pr[1] && GroundVertex(g, pr[0], pr[1]) != ground {
			t.Fatalf("test setup: pair %v grounds at %d, want %d", pr, GroundVertex(g, pr[0], pr[1]), ground)
		}
	}
	values, errs, err := ResistanceBatchCG(context.Background(), g, ground, pairs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range pairs {
		if errs[i] != nil {
			t.Fatalf("pair %v: %v", pr, errs[i])
		}
		want, err := ResistanceCG(g, pr[0], pr[1])
		if err != nil {
			t.Fatal(err)
		}
		if values[i] != want {
			t.Errorf("pair %v: %v != %v (bitwise)", pr, values[i], want)
		}
	}

	// Mismatched ground and invalid vertex produce per-pair errors only.
	values, errs, err = ResistanceBatchCG(context.Background(), g, ground,
		[][2]int{{ground, 1}, {-1, 2}, {1, 2}}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] == nil {
		t.Error("pair grounding elsewhere accepted")
	}
	if errs[1] == nil {
		t.Error("invalid vertex accepted")
	}
	if errs[2] != nil || values[2] <= 0 {
		t.Errorf("healthy pair alongside bad ones: v=%v err=%v", values[2], errs[2])
	}

	// Disconnected graph fails the whole batch.
	dg, err := graph.FromEdges(4, []int{0, 2}, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ResistanceBatchCG(context.Background(), dg, 2, [][2]int{{0, 1}}, 0, nil); err == nil {
		t.Error("disconnected graph accepted")
	}
}

// reweighted returns g with every edge given a random weight in [0.5, 2).
func reweighted(t *testing.T, g *graph.Graph, rng *randx.RNG) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(g.N())
	g.ForEachEdge(func(u, v int32, _ float64) {
		b.AddWeightedEdge(int(u), int(v), 0.5+1.5*rng.Float64())
	})
	wg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return wg
}

// TestLaplacianApplyBlockMatchesApply: the Laplacian block apply must be
// bitwise identical, column by column, to a sequential Apply for every
// column count 1…9 (partial blocks, a full one, and one past it), on
// unweighted and weighted graphs, with and without NoParallel. The
// 20000-vertex graphs clear the row-parallel threshold.
func TestLaplacianApplyBlockMatchesApply(t *testing.T) {
	small := testGraphs(t)
	big, err := graph.BarabasiAlbert(20000, 3, randx.New(48))
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"ba": small[0], "ws_w": small[1],
		"ba_big": big, "ba_big_w": reweighted(t, big, randx.New(49)),
	}
	rng := randx.New(50)
	for name, g := range graphs {
		n := g.N()
		seq := &Laplacian{G: g, NoParallel: true}
		for _, noParallel := range []bool{true, false} {
			l := &Laplacian{G: g, NoParallel: noParallel}
			for k := 1; k <= 9; k++ {
				x := make([][]float64, k)
				ref := make([][]float64, k)
				for c := range x {
					x[c] = randVec(n, rng)
					ref[c] = make([]float64, n)
					seq.Apply(ref[c], x[c])
				}
				dst := applyInterleaved(t, l, x, rng)
				for c := range dst {
					for i := range dst[c] {
						if math.Float64bits(dst[c][i]) != math.Float64bits(ref[c][i]) {
							t.Fatalf("%s noParallel=%v k=%d: dst[%d][%d] = %v, want %v",
								name, noParallel, k, c, i, dst[c][i], ref[c][i])
						}
					}
				}
			}
		}
	}
}
