package linalg

import (
	"context"
	"fmt"
	"math"

	"landmarkrd/internal/cancel"
	"landmarkrd/internal/faultinject"
)

// BlockOperator is an Operator that can apply itself to several vectors in
// one sweep over its structure. For CSR graph operators this amortizes the
// offsets/adjacency traversal across all columns, which is where the block
// solver's speedup comes from.
type BlockOperator interface {
	Operator
	// ApplyBlock computes dst[c] = A·x[c] for every column c. Each column
	// must receive bit-for-bit the result Apply(dst[c], x[c]) would have
	// produced, so block solves agree exactly with independent ones.
	ApplyBlock(dst, x [][]float64)
}

// BlockCGOptions controls the block conjugate-gradient solver. The defaults
// mirror CGOptions: Tol 1e-10, MaxIter 10·dim + 100, and a Jacobi
// preconditioner when the operator provides a usable diagonal (identity
// otherwise — see NewJacobiFromDiagonal).
type BlockCGOptions struct {
	Tol     float64
	MaxIter int
	// Precond is applied column-by-column; it must be safe for repeated
	// Precondition calls with distinct dst/x pairs.
	Precond Preconditioner
	// ProjectConstant mirrors CGOptions.ProjectConstant: every column is
	// re-projected orthogonal to the all-ones vector at exactly the points
	// CG projects (x, r and z at the start; Ap, r and z in each iteration),
	// so a singular-Laplacian block solve stays bit-for-bit k CG solves.
	ProjectConstant bool
	// Work, when non-nil, supplies the scratch matrices so repeated block
	// solves do not allocate.
	Work *BlockCGWorkspace
	// Ctx, when non-nil and cancellable, aborts the iteration with a
	// cancel.Error once the context is done (polled every cgCheckEvery
	// iterations, like CG).
	Ctx context.Context
}

// BlockCGWorkspace holds the per-column scratch vectors (r, z, p, Ap) a
// block solve needs, plus the column-view slices the active-set compaction
// uses. The zero value is ready; it grows on demand and must not be shared
// by concurrent solves.
type BlockCGWorkspace struct {
	r, z, p, ap [][]float64
	// views are reused [][]float64 headers for the active-column operator
	// apply.
	dstView, xView [][]float64
}

// columns returns the four k×n scratch matrices, reallocating columns only
// when k or n grows.
func (w *BlockCGWorkspace) columns(k, n int) (r, z, p, ap [][]float64) {
	grow := func(m [][]float64) [][]float64 {
		for len(m) < k {
			m = append(m, nil)
		}
		for c := 0; c < k; c++ {
			if cap(m[c]) < n {
				m[c] = make([]float64, n)
			}
			m[c] = m[c][:n]
		}
		return m
	}
	w.r, w.z, w.p, w.ap = grow(w.r), grow(w.z), grow(w.p), grow(w.ap)
	if cap(w.dstView) < k {
		w.dstView = make([][]float64, 0, k)
		w.xView = make([][]float64, 0, k)
	}
	return w.r[:k], w.z[:k], w.p[:k], w.ap[:k]
}

// BlockCG solves A·x[c] = b[c] for every column c with k independent
// preconditioned conjugate-gradient recurrences sharing one (block) operator
// apply per iteration. Each column runs exactly the CG recurrence — same
// operation order, same convergence test — so its solution, iteration count
// and residual are bit-for-bit what a separate CG call would produce; a
// column that converges is frozen and drops out of the block apply while the
// others continue.
//
// X columns are the starting guesses (pass zero vectors for cold starts) and
// receive the solutions; B is not modified. The returned slices have one
// entry per column: colErrs[c] is non-nil when column c broke down or failed
// to converge (its CGResult still reports the final residual). The single
// error return is reserved for whole-solve failures: dimension mismatches
// and context cancellation.
func BlockCG(a Operator, x, b [][]float64, opts BlockCGOptions) (results []CGResult, colErrs []error, err error) {
	n := a.Dim()
	k := len(x)
	if len(b) != k {
		return nil, nil, fmt.Errorf("linalg: BlockCG column mismatch: x has %d, b has %d", k, len(b))
	}
	for c := 0; c < k; c++ {
		if len(x[c]) != n || len(b[c]) != n {
			return nil, nil, fmt.Errorf("linalg: BlockCG dimension mismatch at column %d: operator %d, x %d, b %d", c, n, len(x[c]), len(b[c]))
		}
	}
	results = make([]CGResult, k)
	colErrs = make([]error, k)
	if k == 0 {
		return results, colErrs, nil
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-10
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 10*n + 100
	}
	if opts.Precond == nil {
		opts.Precond = IdentityPreconditioner{}
		if dp, ok := a.(DiagonalProvider); ok {
			if jac, jerr := NewJacobiFromDiagonal(dp.Diagonal()); jerr == nil {
				opts.Precond = jac
			}
		}
	}
	work := opts.Work
	if work == nil {
		work = &BlockCGWorkspace{}
	}
	r, z, p, ap := work.columns(k, n)

	done := cancel.Done(opts.Ctx)
	if done != nil {
		if cerr := cancel.Check(opts.Ctx); cerr != nil {
			return nil, nil, cerr
		}
	}
	fi := faultinject.At(faultinject.SiteCGIter)

	blockOp, fused := a.(BlockOperator)
	applyActive := func(dst, src [][]float64, active []int) {
		if len(active) == 1 {
			a.Apply(dst[active[0]], src[active[0]])
			return
		}
		if fused {
			dv := work.dstView[:0]
			xv := work.xView[:0]
			for _, c := range active {
				dv = append(dv, dst[c])
				xv = append(xv, src[c])
			}
			work.dstView, work.xView = dv, xv
			blockOp.ApplyBlock(dv, xv)
			return
		}
		for _, c := range active {
			a.Apply(dst[c], src[c])
		}
	}

	normB := make([]float64, k)
	rz := make([]float64, k)
	active := make([]int, 0, k)
	for c := 0; c < k; c++ {
		normB[c] = Norm2(b[c])
		if normB[c] == 0 {
			Zero(x[c])
			results[c].Converged = true
			continue
		}
		active = append(active, c)
	}
	project := func(v []float64) {
		if opts.ProjectConstant {
			ProjectOutConstant(v)
		}
	}
	// r = b - A x, per active column, then the first preconditioned search
	// direction — the same initialization CG performs.
	for _, c := range active {
		project(x[c])
	}
	applyActive(r, x, active)
	for _, c := range active {
		rc, bc := r[c], b[c]
		for i := range rc {
			rc[i] = bc[i] - rc[i]
		}
		project(rc)
		opts.Precond.Precondition(z[c], rc)
		project(z[c])
		copy(p[c], z[c])
		rz[c] = Dot(rc, z[c])
	}

	for iter := 0; iter < opts.MaxIter && len(active) > 0; iter++ {
		if (done != nil || fi != nil) && iter%cgCheckEvery == 0 {
			if done != nil {
				select {
				case <-done:
					for _, c := range active {
						results[c].Iterations = iter
						results[c].Residual = Norm2(r[c]) / normB[c]
					}
					return results, colErrs, cancel.Wrap(opts.Ctx.Err())
				default:
				}
			}
			if ferr := fi.Fire(); ferr != nil {
				for _, c := range active {
					results[c].Iterations = iter
					results[c].Residual = Norm2(r[c]) / normB[c]
				}
				return results, colErrs, ferr
			}
		}
		// Per-column convergence check, freezing converged columns exactly
		// where an independent CG would have returned.
		live := active[:0]
		for _, c := range active {
			results[c].Iterations = iter
			results[c].Residual = Norm2(r[c]) / normB[c]
			if results[c].Residual <= opts.Tol {
				results[c].Converged = true
				continue
			}
			live = append(live, c)
		}
		active = live
		if len(active) == 0 {
			break
		}
		applyActive(ap, p, active)
		live = active[:0]
		for _, c := range active {
			project(ap[c])
			pap := Dot(p[c], ap[c])
			if pap <= 0 || math.IsNaN(pap) {
				colErrs[c] = ErrCGBreakdown
				continue
			}
			alpha := rz[c] / pap
			Axpy(alpha, p[c], x[c])
			Axpy(-alpha, ap[c], r[c])
			project(r[c])
			opts.Precond.Precondition(z[c], r[c])
			project(z[c])
			rzNew := Dot(r[c], z[c])
			beta := rzNew / rz[c]
			rz[c] = rzNew
			pc, zc := p[c], z[c]
			for i := range pc {
				pc[i] = zc[i] + beta*pc[i]
			}
			live = append(live, c)
		}
		active = live
	}
	for _, c := range active {
		results[c].Iterations = opts.MaxIter
		results[c].Residual = Norm2(r[c]) / normB[c]
		results[c].Converged = results[c].Residual <= opts.Tol
		if !results[c].Converged {
			colErrs[c] = fmt.Errorf("linalg: CG did not converge in %d iterations (residual %.3e)", opts.MaxIter, results[c].Residual)
		}
	}
	return results, colErrs, nil
}
