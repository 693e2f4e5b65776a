package linalg

import (
	"context"
	"errors"
	"fmt"
	"math"

	"landmarkrd/internal/cancel"
	"landmarkrd/internal/faultinject"
)

// Operator is an abstract symmetric positive (semi-)definite linear
// operator. Implementations must compute dst = A*x without retaining
// either slice.
type Operator interface {
	Dim() int
	Apply(dst, x []float64)
}

// Preconditioner applies an approximate inverse: dst ≈ A⁻¹ x.
type Preconditioner interface {
	Precondition(dst, x []float64)
}

// JacobiPreconditioner scales by the inverse diagonal.
type JacobiPreconditioner struct {
	InvDiag []float64
}

// Precondition implements Preconditioner.
func (p *JacobiPreconditioner) Precondition(dst, x []float64) {
	for i, d := range p.InvDiag {
		dst[i] = d * x[i]
	}
}

// IdentityPreconditioner is a no-op preconditioner.
type IdentityPreconditioner struct{}

// Precondition implements Preconditioner.
func (IdentityPreconditioner) Precondition(dst, x []float64) { copy(dst, x) }

// ErrBadDiagonal is returned (wrapped — test with errors.Is) by
// NewJacobiFromDiagonal when a diagonal entry cannot be inverted for Jacobi
// preconditioning: zero, negative, NaN, or infinite. Inverting such an
// entry would plant an Inf/NaN (or a singular scale) in InvDiag that CG
// then propagates into every iterate.
var ErrBadDiagonal = errors.New("linalg: diagonal entry unusable for Jacobi preconditioning")

// NewJacobiFromDiagonal builds the Jacobi preconditioner 1/diag, validating
// that every entry is finite and strictly positive — the preconditioner of
// an SPD operator must itself be SPD. The first offending entry is reported
// in an error matching ErrBadDiagonal; callers that can proceed without
// preconditioning (CG's and BlockCG's default selection do) fall back to
// the identity instead.
func NewJacobiFromDiagonal(diag []float64) (*JacobiPreconditioner, error) {
	inv := make([]float64, len(diag))
	for i, d := range diag {
		if !(d > 0) || math.IsInf(d, 1) { // !(d > 0) also catches NaN
			return nil, fmt.Errorf("linalg: diagonal[%d] = %v: %w", i, d, ErrBadDiagonal)
		}
		inv[i] = 1 / d
	}
	return &JacobiPreconditioner{InvDiag: inv}, nil
}

// CGOptions controls the conjugate-gradient solver.
type CGOptions struct {
	// Tol is the relative residual tolerance ‖r‖₂ ≤ Tol·‖b‖₂ (default 1e-10).
	Tol float64
	// MaxIter bounds the iteration count (default 10·dim + 100).
	MaxIter int
	// Precond is the preconditioner (default Jacobi if the operator
	// provides one via DiagonalProvider, else identity).
	Precond Preconditioner
	// ProjectConstant, if set, re-projects iterates to be orthogonal to
	// the all-ones vector after every step. Required when solving with a
	// singular graph Laplacian whose null space is span{1}.
	ProjectConstant bool
	// Work, when non-nil, supplies the four O(n) scratch vectors so
	// repeated solves do not allocate. The workspace is fully overwritten
	// by every solve; the solution is unaffected by its prior contents.
	Work *CGWorkspace
	// Ctx, when non-nil and cancellable, aborts the iteration with a
	// cancel.Error (matching cancel.ErrCanceled and the context cause)
	// once the context is done. The check runs every cgCheckEvery
	// iterations — each iteration is an O(m) matvec, so the poll is far
	// below 1% of solve time — and is skipped entirely for contexts that
	// can never cancel (context.Background / context.TODO), keeping the
	// non-context solve paths byte-identical and overhead-free.
	Ctx context.Context
}

// cgCheckEvery is the cancellation poll period in CG iterations. Each
// iteration costs an O(m) operator apply plus several O(n) vector sweeps,
// so even on tiny graphs an 8-iteration period keeps the poll cost
// unmeasurable while bounding abort latency to a handful of matvecs.
const cgCheckEvery = 8

// CGWorkspace holds the scratch vectors (r, z, p, Ap) one CG solve needs.
// The zero value is ready to use; it grows on first use and is then reused
// across solves. A workspace must not be shared by concurrent solves.
type CGWorkspace struct {
	r, z, p, ap []float64
}

// vectors returns the four scratch slices sized to n, reallocating only
// when the dimension grows.
func (w *CGWorkspace) vectors(n int) (r, z, p, ap []float64) {
	if cap(w.r) < n {
		w.r = make([]float64, n)
		w.z = make([]float64, n)
		w.p = make([]float64, n)
		w.ap = make([]float64, n)
	}
	return w.r[:n], w.z[:n], w.p[:n], w.ap[:n]
}

// DiagonalProvider is implemented by operators that can expose their
// diagonal for Jacobi preconditioning.
type DiagonalProvider interface {
	Diagonal() []float64
}

// CGResult reports convergence metadata.
type CGResult struct {
	Iterations int
	Residual   float64 // final relative residual
	Converged  bool
}

// ErrCGBreakdown indicates a (numerically) indefinite operator was detected.
var ErrCGBreakdown = errors.New("linalg: conjugate gradient breakdown (operator not positive definite?)")

// CG solves A x = b with the (preconditioned) conjugate gradient method and
// writes the solution into x (used as the starting guess; pass a zero
// vector for a cold start). b is not modified.
func CG(a Operator, x, b []float64, opts CGOptions) (CGResult, error) {
	n := a.Dim()
	if len(x) != n || len(b) != n {
		return CGResult{}, fmt.Errorf("linalg: CG dimension mismatch: operator %d, x %d, b %d", n, len(x), len(b))
	}
	res, colErr, err := cg(a, x, b, opts)
	if err == nil {
		err = colErr
	}
	return res, err
}

// cg is CG with its two kinds of failure apart: colErr is a breakdown or
// non-convergence of this right-hand side, err a cancellation or an
// injected fault, which BlockCG reports for the whole solve.
func cg(a Operator, x, b []float64, opts CGOptions) (res CGResult, colErr, err error) {
	n := a.Dim()
	if opts.Tol <= 0 {
		opts.Tol = 1e-10
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 10*n + 100
	}
	if opts.Precond == nil {
		// Default Jacobi from the operator's diagonal — but only when every
		// entry is invertible. A zero/NaN/Inf entry (a buggy or merely
		// honest DiagonalProvider) would otherwise seed InvDiag with a value
		// that turns the solve into NaNs; identity is always safe.
		opts.Precond = IdentityPreconditioner{}
		if dp, ok := a.(DiagonalProvider); ok {
			if jac, jerr := NewJacobiFromDiagonal(dp.Diagonal()); jerr == nil {
				opts.Precond = jac
			}
		}
	}

	var r, z, p, ap []float64
	if opts.Work != nil {
		r, z, p, ap = opts.Work.vectors(n)
	} else {
		r = make([]float64, n)
		z = make([]float64, n)
		p = make([]float64, n)
		ap = make([]float64, n)
	}

	done := cancel.Done(opts.Ctx)
	if done != nil {
		// Entry check: an already-expired deadline aborts before any work.
		if err := cancel.Check(opts.Ctx); err != nil {
			return CGResult{}, nil, err
		}
	}
	// Fault hook, polled at the cancellation cadence; nil (one atomic
	// load, no per-iteration cost) unless the test suite armed it.
	fi := faultinject.At(faultinject.SiteCGIter)

	normB := Norm2(b)
	if normB == 0 {
		Zero(x)
		return CGResult{Converged: true}, nil, nil
	}
	if opts.ProjectConstant {
		ProjectOutConstant(x)
	}
	// r = b - A x
	a.Apply(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	if opts.ProjectConstant {
		ProjectOutConstant(r)
	}
	opts.Precond.Precondition(z, r)
	if opts.ProjectConstant {
		ProjectOutConstant(z)
	}
	copy(p, z)
	rz := Dot(r, z)

	for res.Iterations = 0; res.Iterations < opts.MaxIter; res.Iterations++ {
		if (done != nil || fi != nil) && res.Iterations%cgCheckEvery == 0 {
			if done != nil {
				select {
				case <-done:
					res.Residual = Norm2(r) / normB
					return res, nil, cancel.Wrap(opts.Ctx.Err())
				default:
				}
			}
			if err := fi.Fire(); err != nil {
				res.Residual = Norm2(r) / normB
				return res, nil, err
			}
		}
		rnorm := Norm2(r)
		res.Residual = rnorm / normB
		if res.Residual <= opts.Tol {
			res.Converged = true
			return res, nil, nil
		}
		a.Apply(ap, p)
		if opts.ProjectConstant {
			ProjectOutConstant(ap)
		}
		pap := Dot(p, ap)
		if pap <= 0 || math.IsNaN(pap) {
			return res, ErrCGBreakdown, nil
		}
		alpha := rz / pap
		Axpy(alpha, p, x)
		Axpy(-alpha, ap, r)
		if opts.ProjectConstant {
			ProjectOutConstant(r)
		}
		opts.Precond.Precondition(z, r)
		if opts.ProjectConstant {
			ProjectOutConstant(z)
		}
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	res.Residual = Norm2(r) / normB
	res.Converged = res.Residual <= opts.Tol
	if !res.Converged {
		return res, notConverged(opts.MaxIter, res.Residual), nil
	}
	return res, nil, nil
}

func notConverged(maxIter int, residual float64) error {
	return fmt.Errorf("linalg: CG did not converge in %d iterations (residual %.3e)", maxIter, residual)
}
