package linalg

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"landmarkrd/internal/randx"
)

// blockDenseOp wraps Dense as a BlockOperator: ApplyBlock gathers each
// lane of the interleaved block, applies the matrix to it and scatters the
// product back, which keeps the per-column floating-point sequence
// identical to Apply.
type blockDenseOp struct{ m *Dense }

func (o blockDenseOp) Dim() int               { return o.m.Rows }
func (o blockDenseOp) Apply(dst, x []float64) { o.m.MulVec(dst, x) }
func (o blockDenseOp) ApplyBlock(dst, x []float64, lanes int) {
	n := o.m.Rows
	col, out := make([]float64, n), make([]float64, n)
	for c := 0; c < lanes; c++ {
		gatherLane(col, x, c, lanes)
		o.m.MulVec(out, col)
		scatterLane(dst, out, c, lanes)
	}
}
func (o blockDenseOp) Diagonal() []float64 { return denseOp{o.m}.Diagonal() }

// densePrecond is an SPD preconditioner BlockCG cannot fuse, so it runs
// column by column through the gather path.
type densePrecond struct{ m *Dense }

func (p densePrecond) Precondition(dst, x []float64) { p.m.MulVec(dst, x) }

// blockPreconds names the preconditioners every bitwise test runs under:
// the default (Jacobi from the diagonal), the identity, both fused, and a
// dense SPD one applied per column.
func blockPreconds(n int, rng *randx.RNG) map[string]Preconditioner {
	return map[string]Preconditioner{
		"jacobi":   nil,
		"identity": IdentityPreconditioner{},
		"dense":    densePrecond{randomSPD(n, rng)},
	}
}

// checkBlockMatchesCG runs BlockCG over the columns b from the starting
// guesses start and fails unless every column and its independent CG
// reference solve without error and agree bit for bit in solution,
// iteration count, residual and convergence flag.
func checkBlockMatchesCG(t *testing.T, name string, m *Dense, b, start [][]float64, opts CGOptions) []CGResult {
	t.Helper()
	k, n := len(b), m.Rows
	refX := make([][]float64, k)
	refRes := make([]CGResult, k)
	refErr := make([]error, k)
	for c := range b {
		refX[c] = make([]float64, n)
		if start != nil {
			copy(refX[c], start[c])
		}
		refRes[c], refErr[c] = CG(denseOp{m}, refX[c], b[c], opts)
	}
	x := make([][]float64, k)
	for c := range x {
		x[c] = make([]float64, n)
		if start != nil {
			copy(x[c], start[c])
		}
	}
	results, colErrs, err := BlockCG(blockDenseOp{m}, x, b, BlockCGOptions{
		Tol: opts.Tol, MaxIter: opts.MaxIter, Precond: opts.Precond, ProjectConstant: opts.ProjectConstant,
	})
	if err != nil {
		t.Fatalf("%s: BlockCG: %v", name, err)
	}
	for c := 0; c < k; c++ {
		if refErr[c] != nil {
			t.Fatalf("%s col %d: reference CG: %v", name, c, refErr[c])
		}
		if colErrs[c] != nil {
			t.Fatalf("%s col %d: %v", name, c, colErrs[c])
		}
		if results[c] != refRes[c] {
			t.Fatalf("%s col %d: result %+v, want %+v", name, c, results[c], refRes[c])
		}
		for i := range x[c] {
			if math.Float64bits(x[c][i]) != math.Float64bits(refX[c][i]) {
				t.Fatalf("%s col %d row %d: %v != %v (bitwise)", name, c, i, x[c][i], refX[c][i])
			}
		}
	}
	return refRes
}

// TestBlockCGMatchesSingleCG is the satellite conformance test: BlockCG over
// k right-hand sides, k = 1…12 so every lane width and a solve spanning two
// blocks run, must reproduce k independent CG solves bit for bit — same
// solutions, iteration counts, residuals, and convergence flags — under
// every preconditioner kind.
func TestBlockCGMatchesSingleCG(t *testing.T) {
	rng := randx.New(21)
	for trial := 0; trial < 12; trial++ {
		n := 5 + rng.Intn(25)
		k := 1 + trial
		spd := randomSPD(n, rng)
		b := make([][]float64, k)
		for c := range b {
			b[c] = make([]float64, n)
			for i := range b[c] {
				b[c][i] = rng.NormFloat64()
			}
		}
		for name, pc := range blockPreconds(n, rng) {
			checkBlockMatchesCG(t, fmt.Sprintf("trial %d k=%d %s", trial, k, name), spd, b, nil, CGOptions{Tol: 1e-12, Precond: pc})
		}
	}
}

// TestBlockCGStaggeredConvergence forces columns to converge at different
// iteration counts (a zero rhs and a tiny one next to dense ones, twelve
// columns in all) and checks the frozen columns still match their
// independent solves exactly.
func TestBlockCGStaggeredConvergence(t *testing.T) {
	rng := randx.New(22)
	n := 30
	spd := randomSPD(n, rng)
	const k = 12
	b := make([][]float64, k)
	for c := range b {
		b[c] = make([]float64, n)
	}
	// Columns 0 and 9: zero rhs — converge at iteration 0.
	// Columns 1 and 10: e_0 scaled tiny. The rest: dense random rhs,
	// two of them as sparse as one row.
	b[1][0], b[10][0] = 1e-8, 1e-8
	for _, c := range []int{2, 3, 4, 5, 6, 7, 8, 11} {
		for i := range b[c] {
			if c != 5 && c != 11 || i == c {
				b[c][i] = rng.NormFloat64()
			}
		}
	}
	for name, pc := range blockPreconds(n, rng) {
		res := checkBlockMatchesCG(t, name, spd, b, nil, CGOptions{Tol: 1e-10, Precond: pc})
		iters := map[int]bool{}
		for _, r := range res {
			iters[r.Iterations] = true
		}
		if len(iters) < 3 {
			t.Fatalf("%s: test is vacuous: iteration counts %v", name, iters)
		}
	}
}

func TestBlockCGDimensionMismatch(t *testing.T) {
	spd := randomSPD(5, randx.New(23))
	good := [][]float64{make([]float64, 5)}
	bad := [][]float64{make([]float64, 4)}
	op := blockDenseOp{spd}
	if _, _, err := BlockCG(op, bad, good, BlockCGOptions{}); err == nil {
		t.Error("short solution column accepted")
	}
	if _, _, err := BlockCG(op, good, bad, BlockCGOptions{}); err == nil {
		t.Error("short rhs column accepted")
	}
	if _, _, err := BlockCG(op, good, [][]float64{make([]float64, 5), make([]float64, 5)}, BlockCGOptions{}); err == nil {
		t.Error("mismatched column counts accepted")
	}
	if res, colErrs, err := BlockCG(op, nil, nil, BlockCGOptions{}); err != nil || len(res) != 0 || len(colErrs) != 0 {
		t.Errorf("empty block solve: %v %v %v", res, colErrs, err)
	}
}

// TestBlockCGBreakdownIsolated checks a breakdown poisons only its own
// column: the indefinite system's column reports ErrCGBreakdown (or fails to
// converge) while the SPD columns alongside it in a 2-lane and a 4-lane
// block still solve exactly.
func TestBlockCGBreakdownIsolated(t *testing.T) {
	// Block-diagonal operator: rows 0-1 are an indefinite 2x2, rows 2+ SPD.
	rng := randx.New(24)
	n := 8
	m := NewDense(n, n)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 1) // eigenvalues 3, -1
	spd := randomSPD(n-2, rng)
	for i := 0; i < n-2; i++ {
		for j := 0; j < n-2; j++ {
			m.Set(i+2, j+2, spd.At(i, j))
		}
	}
	for _, k := range []int{2, 4} {
		b := make([][]float64, k)
		b[0] = make([]float64, n)
		b[0][0], b[0][1] = 1, 1 // lives in the indefinite block
		for c := 1; c < k; c++ {
			b[c] = make([]float64, n)
			for i := 2; i < n; i++ {
				b[c][i] = rng.NormFloat64()
			}
		}
		x := make([][]float64, k)
		for c := range x {
			x[c] = make([]float64, n)
		}
		results, colErrs, err := BlockCG(blockDenseOp{m}, x, b, BlockCGOptions{Tol: 1e-12, MaxIter: 50})
		if err != nil {
			t.Fatal(err)
		}
		if colErrs[0] == nil && !results[0].Converged {
			t.Errorf("k=%d: indefinite column reported neither an error nor convergence", k)
		}
		for c := 1; c < k; c++ {
			if colErrs[c] != nil {
				t.Fatalf("k=%d: SPD column %d poisoned by sibling breakdown: %v", k, c, colErrs[c])
			}
			ref := make([]float64, n)
			if _, err := CG(denseOp{m}, ref, b[c], CGOptions{Tol: 1e-12, MaxIter: 50}); err != nil {
				t.Fatalf("reference: %v", err)
			}
			for i := range ref {
				if x[c][i] != ref[i] {
					t.Fatalf("k=%d: SPD column %d diverged from independent solve at %d: %v != %v", k, c, i, x[c][i], ref[i])
				}
			}
		}
	}
}

// TestBlockCGWorkspaceReuse runs two differently-sized solves through one
// workspace and checks the second is unaffected by the first's leftovers.
func TestBlockCGWorkspaceReuse(t *testing.T) {
	rng := randx.New(25)
	var work BlockCGWorkspace
	for _, k := range []int{4, 2, 6} {
		n := 12
		spd := randomSPD(n, rng)
		b := make([][]float64, k)
		x := make([][]float64, k)
		ref := make([][]float64, k)
		for c := range b {
			b[c] = make([]float64, n)
			for i := range b[c] {
				b[c][i] = rng.NormFloat64()
			}
			x[c] = make([]float64, n)
			ref[c] = make([]float64, n)
			if _, err := CG(denseOp{spd}, ref[c], b[c], CGOptions{Tol: 1e-12}); err != nil {
				t.Fatal(err)
			}
		}
		_, colErrs, err := BlockCG(blockDenseOp{spd}, x, b, BlockCGOptions{Tol: 1e-12, Work: &work})
		if err != nil {
			t.Fatal(err)
		}
		for c := range x {
			if colErrs[c] != nil {
				t.Fatal(colErrs[c])
			}
			for i := range x[c] {
				if x[c][i] != ref[c][i] {
					t.Fatalf("k=%d col %d row %d: %v != %v", k, c, i, x[c][i], ref[c][i])
				}
			}
		}
	}
}

func TestNewJacobiFromDiagonal(t *testing.T) {
	if jac, err := NewJacobiFromDiagonal([]float64{2, 4}); err != nil {
		t.Fatalf("valid diagonal rejected: %v", err)
	} else if jac.InvDiag[0] != 0.5 || jac.InvDiag[1] != 0.25 {
		t.Errorf("InvDiag = %v", jac.InvDiag)
	}
	for _, bad := range [][]float64{
		{1, 0, 1},
		{1, -2},
		{math.Inf(1)},
		{math.NaN()},
	} {
		if _, err := NewJacobiFromDiagonal(bad); !errors.Is(err, ErrBadDiagonal) {
			t.Errorf("diag %v: err = %v, want ErrBadDiagonal", bad, err)
		}
	}
}

// zeroDiagOp reports a diagonal with a zero entry; the CG default-precond
// selection must fall back to the identity instead of dividing by zero.
type zeroDiagOp struct{ blockDenseOp }

func (o zeroDiagOp) Diagonal() []float64 {
	d := make([]float64, o.m.Rows)
	for i := range d {
		d[i] = o.m.At(i, i)
	}
	d[0] = 0 // poison: must not become Inf in InvDiag
	return d
}

func TestCGDegenerateDiagonalFallsBackToIdentity(t *testing.T) {
	rng := randx.New(26)
	n := 10
	spd := randomSPD(n, rng)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	res, err := CG(zeroDiagOp{blockDenseOp{spd}}, x, b, CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatalf("CG with degenerate diagonal: %v", err)
	}
	if !res.Converged {
		t.Fatalf("CG did not converge: %+v", res)
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("solution contains %v", v)
		}
	}
	// The fallback must behave exactly like an explicit identity run.
	ref := make([]float64, n)
	if _, err := CG(zeroDiagOp{blockDenseOp{spd}}, ref, b, CGOptions{Tol: 1e-12, Precond: IdentityPreconditioner{}}); err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if x[i] != ref[i] {
			t.Fatalf("fallback differs from explicit identity at %d", i)
		}
	}
	// BlockCG shares the selection logic.
	bx := [][]float64{make([]float64, n)}
	_, colErrs, err := BlockCG(zeroDiagOp{blockDenseOp{spd}}, bx, [][]float64{b}, BlockCGOptions{Tol: 1e-12})
	if err != nil || colErrs[0] != nil {
		t.Fatalf("BlockCG with degenerate diagonal: %v %v", err, colErrs)
	}
	for i := range ref {
		if bx[0][i] != ref[i] {
			t.Fatalf("BlockCG fallback differs at %d", i)
		}
	}
}

// denseLaplacian returns the Laplacian of a connected weighted graph on n
// vertices — a cycle plus n/10 random chords, so CG needs well over a
// handful of iterations — as a dense, singular operator whose null space is
// span{1}.
func denseLaplacian(n int, rng *randx.RNG) *Dense {
	m := NewDense(n, n)
	addEdge := func(u, v int, w float64) {
		m.Set(u, v, m.At(u, v)-w)
		m.Set(v, u, m.At(v, u)-w)
		m.Set(u, u, m.At(u, u)+w)
		m.Set(v, v, m.At(v, v)+w)
	}
	for u := 0; u < n; u++ {
		addEdge(u, (u+1)%n, 0.5+rng.Float64())
	}
	for i := 0; i < n/10; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			addEdge(u, v, 0.5+rng.Float64())
		}
	}
	return m
}

// TestBlockCGProjectConstantMatchesCG: with ProjectConstant, BlockCG over a
// singular Laplacian must reproduce per-column CG with ProjectConstant bit
// for bit — solution, iterations, residual and convergence — under every
// preconditioner kind. The twelve columns converge at staggered iterations
// (a zero rhs, a tiny rhs, dense ones), and some start from a nonzero
// guess with a constant component, so every one of CG's projection points
// is exercised in both blocks.
func TestBlockCGProjectConstantMatchesCG(t *testing.T) {
	rng := randx.New(27)
	n := 150
	lap := denseLaplacian(n, rng)
	const k = 12
	b := make([][]float64, k)
	start := make([][]float64, k)
	for c := range b {
		b[c] = make([]float64, n)
		start[c] = make([]float64, n)
	}
	// Per block of six: a zero rhs; a tiny dipole across one edge; a
	// dense mean-zero rhs; one smooth wave; a dense rhs with a constant
	// component; a dense rhs from a nonzero start off range(L).
	for _, o := range []int{0, 6} {
		b[o+1][o], b[o+1][o+1] = 1e-8, -1e-8
		for i := range b[o+3] {
			b[o+3][i] = math.Cos(2 * math.Pi * float64(i*(1+o)) / float64(n))
		}
		for _, c := range []int{o + 2, o + 4, o + 5} {
			for i := range b[c] {
				b[c][i] = rng.NormFloat64()
			}
			if c != o+4 {
				ProjectOutConstant(b[c])
			}
		}
		for i := range start[o+5] {
			start[o+5][i] = 3 + rng.NormFloat64()
		}
	}
	for name, pc := range blockPreconds(n, rng) {
		res := checkBlockMatchesCG(t, name, lap, b, start, CGOptions{Tol: 1e-10, ProjectConstant: true, Precond: pc})
		if res[1].Iterations == res[2].Iterations || res[2].Iterations == res[3].Iterations {
			t.Fatalf("%s: test is vacuous: the nonzero columns converge at the same iteration", name)
		}
	}
}
