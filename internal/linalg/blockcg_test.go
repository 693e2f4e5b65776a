package linalg

import (
	"errors"
	"math"
	"testing"

	"landmarkrd/internal/randx"
)

// blockDenseOp wraps Dense as a BlockOperator so the fused-apply path is
// exercised: ApplyBlock applies the matrix column by column, which keeps the
// per-column floating-point sequence identical to Apply.
type blockDenseOp struct{ m *Dense }

func (o blockDenseOp) Dim() int               { return o.m.Rows }
func (o blockDenseOp) Apply(dst, x []float64) { o.m.MulVec(dst, x) }
func (o blockDenseOp) ApplyBlock(dst, x [][]float64) {
	for c := range x {
		o.m.MulVec(dst[c], x[c])
	}
}
func (o blockDenseOp) Diagonal() []float64 { return denseOp{o.m}.Diagonal() }

// TestBlockCGMatchesSingleCG is the satellite conformance test: BlockCG over
// k right-hand sides must reproduce k independent CG solves bit for bit —
// same solutions, iteration counts, residuals, and convergence flags — for
// both the per-column Apply path (plain Operator) and the fused ApplyBlock
// path (BlockOperator).
func TestBlockCGMatchesSingleCG(t *testing.T) {
	rng := randx.New(21)
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(25)
		k := 1 + rng.Intn(6)
		spd := randomSPD(n, rng)
		b := make([][]float64, k)
		for c := range b {
			b[c] = make([]float64, n)
			for i := range b[c] {
				b[c][i] = rng.NormFloat64()
			}
		}
		// Reference: k independent single-column solves.
		refX := make([][]float64, k)
		refRes := make([]CGResult, k)
		for c := range b {
			refX[c] = make([]float64, n)
			res, err := CG(denseOp{spd}, refX[c], b[c], CGOptions{Tol: 1e-12})
			if err != nil {
				t.Fatalf("trial %d: reference CG col %d: %v", trial, c, err)
			}
			refRes[c] = res
		}
		for _, fused := range []bool{false, true} {
			var op Operator = denseOp{spd}
			if fused {
				op = blockDenseOp{spd}
			}
			x := make([][]float64, k)
			for c := range x {
				x[c] = make([]float64, n)
			}
			results, colErrs, err := BlockCG(op, x, b, BlockCGOptions{Tol: 1e-12})
			if err != nil {
				t.Fatalf("trial %d fused=%v: BlockCG: %v", trial, fused, err)
			}
			for c := 0; c < k; c++ {
				if colErrs[c] != nil {
					t.Fatalf("trial %d fused=%v col %d: %v", trial, fused, c, colErrs[c])
				}
				if results[c].Iterations != refRes[c].Iterations ||
					results[c].Converged != refRes[c].Converged ||
					results[c].Residual != refRes[c].Residual {
					t.Fatalf("trial %d fused=%v col %d: result %+v, want %+v",
						trial, fused, c, results[c], refRes[c])
				}
				for i := range x[c] {
					if x[c][i] != refX[c][i] {
						t.Fatalf("trial %d fused=%v col %d row %d: %v != %v (bitwise)",
							trial, fused, c, i, x[c][i], refX[c][i])
					}
				}
			}
		}
	}
}

// TestBlockCGStaggeredConvergence forces columns to converge at different
// iteration counts (an easy rhs next to hard ones) and checks the frozen
// columns still match their independent solves exactly.
func TestBlockCGStaggeredConvergence(t *testing.T) {
	rng := randx.New(22)
	n := 30
	spd := randomSPD(n, rng)
	b := make([][]float64, 3)
	// Column 0: zero rhs — converges at iteration 0.
	b[0] = make([]float64, n)
	// Column 1: e_0 scaled tiny.
	b[1] = make([]float64, n)
	b[1][0] = 1e-8
	// Column 2: dense random rhs.
	b[2] = make([]float64, n)
	for i := range b[2] {
		b[2][i] = rng.NormFloat64()
	}
	x := make([][]float64, 3)
	refX := make([][]float64, 3)
	refRes := make([]CGResult, 3)
	for c := range b {
		x[c] = make([]float64, n)
		refX[c] = make([]float64, n)
		res, err := CG(denseOp{spd}, refX[c], b[c], CGOptions{Tol: 1e-10})
		if err != nil {
			t.Fatalf("reference col %d: %v", c, err)
		}
		refRes[c] = res
	}
	results, colErrs, err := BlockCG(blockDenseOp{spd}, x, b, BlockCGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if refRes[0].Iterations == refRes[2].Iterations {
		t.Fatal("test is vacuous: all columns converge at the same iteration")
	}
	for c := range b {
		if colErrs[c] != nil {
			t.Fatalf("col %d: %v", c, colErrs[c])
		}
		if results[c].Iterations != refRes[c].Iterations {
			t.Errorf("col %d iterations = %d, want %d", c, results[c].Iterations, refRes[c].Iterations)
		}
		for i := range x[c] {
			if x[c][i] != refX[c][i] {
				t.Fatalf("col %d row %d: %v != %v", c, i, x[c][i], refX[c][i])
			}
		}
	}
}

func TestBlockCGDimensionMismatch(t *testing.T) {
	spd := randomSPD(5, randx.New(23))
	good := [][]float64{make([]float64, 5)}
	bad := [][]float64{make([]float64, 4)}
	if _, _, err := BlockCG(denseOp{spd}, bad, good, BlockCGOptions{}); err == nil {
		t.Error("short solution column accepted")
	}
	if _, _, err := BlockCG(denseOp{spd}, good, bad, BlockCGOptions{}); err == nil {
		t.Error("short rhs column accepted")
	}
	if _, _, err := BlockCG(denseOp{spd}, good, [][]float64{make([]float64, 5), make([]float64, 5)}, BlockCGOptions{}); err == nil {
		t.Error("mismatched column counts accepted")
	}
	if res, colErrs, err := BlockCG(denseOp{spd}, nil, nil, BlockCGOptions{}); err != nil || len(res) != 0 || len(colErrs) != 0 {
		t.Errorf("empty block solve: %v %v %v", res, colErrs, err)
	}
}

// TestBlockCGBreakdownIsolated checks a breakdown poisons only its own
// column: the indefinite system's column reports ErrCGBreakdown (or fails to
// converge) while the SPD columns alongside it still solve exactly.
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
	b := make([][]float64, 2)
	b[0] = make([]float64, n)
	b[0][0], b[0][1] = 1, 1 // lives in the indefinite block
	b[1] = make([]float64, n)
	for i := 2; i < n; i++ {
		b[1][i] = rng.NormFloat64()
	}
	x := [][]float64{make([]float64, n), make([]float64, n)}
	results, colErrs, err := BlockCG(denseOp{m}, x, b, BlockCGOptions{Tol: 1e-12, MaxIter: 50})
	if err != nil {
		t.Fatal(err)
	}
	if colErrs[0] == nil && !results[0].Converged {
		t.Error("indefinite column reported neither an error nor convergence")
	}
	if colErrs[1] != nil {
		t.Fatalf("SPD column poisoned by sibling breakdown: %v", colErrs[1])
	}
	ref := make([]float64, n)
	if _, err := CG(denseOp{m}, ref, b[1], CGOptions{Tol: 1e-12, MaxIter: 50}); err != nil {
		t.Fatalf("reference: %v", err)
	}
	for i := range ref {
		if x[1][i] != ref[i] {
			t.Fatalf("SPD column diverged from independent solve at %d: %v != %v", i, x[1][i], ref[i])
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
		_, colErrs, err := BlockCG(denseOp{spd}, x, b, BlockCGOptions{Tol: 1e-12, Work: &work})
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
type zeroDiagOp struct{ m *Dense }

func (o zeroDiagOp) Dim() int               { return o.m.Rows }
func (o zeroDiagOp) Apply(dst, x []float64) { o.m.MulVec(dst, x) }
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
	res, err := CG(zeroDiagOp{spd}, x, b, CGOptions{Tol: 1e-12})
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
	if _, err := CG(zeroDiagOp{spd}, ref, b, CGOptions{Tol: 1e-12, Precond: IdentityPreconditioner{}}); err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if x[i] != ref[i] {
			t.Fatalf("fallback differs from explicit identity at %d", i)
		}
	}
	// BlockCG shares the selection logic.
	bx := [][]float64{make([]float64, n)}
	_, colErrs, err := BlockCG(zeroDiagOp{spd}, bx, [][]float64{b}, BlockCGOptions{Tol: 1e-12})
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
// for bit — solution, iterations, residual and convergence — through both
// the per-column Apply path and the fused ApplyBlock path. The columns
// converge at staggered iterations (a zero rhs, a tiny rhs, dense ones), and
// some start from a nonzero guess with a constant component, so every one of
// CG's projection points is exercised.
func TestBlockCGProjectConstantMatchesCG(t *testing.T) {
	rng := randx.New(27)
	n := 150
	lap := denseLaplacian(n, rng)
	const k = 6
	b := make([][]float64, k)
	start := make([][]float64, k)
	for c := range b {
		b[c] = make([]float64, n)
		start[c] = make([]float64, n)
	}
	// Column 0: zero rhs. Column 1: a tiny dipole across one edge.
	// Column 2: a dense mean-zero rhs. Column 3: one smooth wave.
	// Column 4: a dense rhs with a constant component. Column 5: a dense
	// rhs from a nonzero start off range(L).
	b[1][0], b[1][1] = 1e-8, -1e-8
	for i := range b[3] {
		b[3][i] = math.Cos(2 * math.Pi * float64(i) / float64(n))
	}
	for _, c := range []int{2, 4, 5} {
		for i := range b[c] {
			b[c][i] = rng.NormFloat64()
		}
		if c != 4 {
			ProjectOutConstant(b[c])
		}
	}
	for i := range start[5] {
		start[5][i] = 3 + rng.NormFloat64()
	}
	opts := CGOptions{Tol: 1e-10, ProjectConstant: true}
	refX := make([][]float64, k)
	refRes := make([]CGResult, k)
	for c := range b {
		refX[c] = append([]float64(nil), start[c]...)
		res, err := CG(denseOp{lap}, refX[c], b[c], opts)
		if err != nil {
			t.Fatalf("reference CG col %d: %v", c, err)
		}
		refRes[c] = res
	}
	if refRes[1].Iterations == refRes[2].Iterations || refRes[2].Iterations == refRes[3].Iterations {
		t.Fatal("test is vacuous: the nonzero columns converge at the same iteration")
	}
	for _, fused := range []bool{false, true} {
		var op Operator = denseOp{lap}
		if fused {
			op = blockDenseOp{lap}
		}
		x := make([][]float64, k)
		for c := range x {
			x[c] = append([]float64(nil), start[c]...)
		}
		results, colErrs, err := BlockCG(op, x, b, BlockCGOptions{Tol: opts.Tol, ProjectConstant: true})
		if err != nil {
			t.Fatalf("fused=%v: BlockCG: %v", fused, err)
		}
		for c := 0; c < k; c++ {
			if colErrs[c] != nil {
				t.Fatalf("fused=%v col %d: %v", fused, c, colErrs[c])
			}
			if results[c] != refRes[c] {
				t.Fatalf("fused=%v col %d: result %+v, want %+v", fused, c, results[c], refRes[c])
			}
			for i := range x[c] {
				if math.Float64bits(x[c][i]) != math.Float64bits(refX[c][i]) {
					t.Fatalf("fused=%v col %d row %d: %v != %v (bitwise)", fused, c, i, x[c][i], refX[c][i])
				}
			}
		}
	}
}
