package lap

import (
	"context"
	"errors"
	"time"

	"landmarkrd/internal/cancel"
	"landmarkrd/internal/graph"
	"landmarkrd/internal/linalg"
	"landmarkrd/internal/obs"
)

// GroundedSolver answers repeated L_v x = b solves against one (graph,
// landmark) pair without per-solve allocation: it owns the rhs and solution
// vectors, the four CG scratch vectors, and the Jacobi preconditioner, all
// built once at construction. The index builder gives one solver to each
// worker, and Index.SingleSource recycles solvers through a pool.
//
// A solver is not safe for concurrent use; create one per goroutine.
type GroundedSolver struct {
	// Op is the grounded operator the solver iterates with. Callers
	// running many solvers side by side should set Op.NoParallel so the
	// per-solve applies do not oversubscribe the worker pool.
	Op Grounded
	// Metrics receives one ObserveSolve per solve. Nil means the package
	// solverMetrics (the process-wide exact-solver sink); worker pools
	// point it at a worker-local sink and merge when they join.
	Metrics *obs.Metrics
	// MaxIter, when positive, caps the CG iterations of every solve (a solve
	// that hits it fails with a non-convergence error); zero keeps
	// linalg.CG's default.
	MaxIter int

	precond linalg.Preconditioner
	rhs     []float64
	x       []float64
	work    linalg.CGWorkspace
}

// NewGroundedSolver builds a reusable solver for L_v at the given landmark.
func NewGroundedSolver(g *graph.Graph, landmark int) *GroundedSolver {
	n := g.N()
	inv := make([]float64, n)
	for i, d := range g.WeightedDegrees() {
		if d > 0 {
			inv[i] = 1 / d
		} else {
			inv[i] = 1
		}
	}
	inv[landmark] = 1 // pinned coordinate, matching Grounded.Diagonal
	return &GroundedSolver{
		Op:      Grounded{G: g, Landmark: landmark},
		precond: &linalg.JacobiPreconditioner{InvDiag: inv},
		rhs:     make([]float64, n),
		x:       make([]float64, n),
	}
}

// SetPreconditioner replaces the solver's preconditioner (Jacobi by
// default). Nil is ignored — pass linalg.IdentityPreconditioner{} for
// "none". The preconditioner must treat the landmark coordinate as pinned
// (map it to itself or zero); both the approximate-Cholesky factor and
// Jacobi with InvDiag[landmark] = 1 satisfy this. A preconditioner shared
// across solvers must be safe for concurrent Precondition calls (read-only
// state), which the Cholesky factor is.
func (s *GroundedSolver) SetPreconditioner(p linalg.Preconditioner) {
	if p != nil {
		s.precond = p
	}
}

// Solve solves L_v x = b (b[landmark] is ignored) and returns the solution
// with x[landmark] = 0. The returned slice is owned by the solver and valid
// only until the next Solve/SolveUnit call; b is not modified.
func (s *GroundedSolver) Solve(b []float64, tol float64) ([]float64, linalg.CGResult, error) {
	return s.SolveContext(context.Background(), b, tol)
}

// SolveContext is Solve with cancellation: once ctx is done the CG
// iteration aborts within a few matvecs and the solve returns a
// cancel.Error (matching cancel.ErrCanceled and the context cause). The
// abort is counted in the solver metrics' Canceled alongside the partial
// iteration work.
func (s *GroundedSolver) SolveContext(ctx context.Context, b []float64, tol float64) ([]float64, linalg.CGResult, error) {
	copy(s.rhs, b)
	return s.run(ctx, tol)
}

// SolveUnit solves L_v x = e_t — the grounded column at t, the kernel under
// both the diagonal index build (Diag[t] = x[t]) and single-source queries.
// Same ownership contract as Solve.
func (s *GroundedSolver) SolveUnit(t int, tol float64) ([]float64, linalg.CGResult, error) {
	return s.SolveUnitContext(context.Background(), t, tol)
}

// SolveUnitContext is SolveUnit with cancellation (see SolveContext).
func (s *GroundedSolver) SolveUnitContext(ctx context.Context, t int, tol float64) ([]float64, linalg.CGResult, error) {
	linalg.Zero(s.rhs)
	s.rhs[t] = 1
	return s.run(ctx, tol)
}

// run solves against the staged rhs.
func (s *GroundedSolver) run(ctx context.Context, tol float64) ([]float64, linalg.CGResult, error) {
	start := time.Now()
	v := s.Op.Landmark
	s.rhs[v] = 0
	linalg.Zero(s.x)
	res, err := linalg.CG(&s.Op, s.x, s.rhs, linalg.CGOptions{
		Tol:     tol,
		MaxIter: s.MaxIter,
		Precond: s.precond,
		Work:    &s.work,
		Ctx:     ctx,
	})
	m := s.Metrics
	if m == nil {
		m = &solverMetrics
	}
	m.ObserveSolve(res.Iterations, time.Since(start))
	if err != nil {
		if errors.Is(err, cancel.ErrCanceled) {
			m.Canceled.Inc()
		}
		return nil, res, err
	}
	s.x[v] = 0
	return s.x, res, nil
}
