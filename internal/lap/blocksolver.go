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

// GroundedBlockSolver answers batched L_v X = B solves against one (graph,
// landmark) pair: k right-hand sides advance together through BlockCG so the
// CSR structure is traversed once per iteration instead of once per column.
// Every column's solution is bit-for-bit what the single-column
// GroundedSolver would produce for the same rhs and tolerance.
//
// Like GroundedSolver it owns its buffers and is not safe for concurrent
// use; create one per goroutine.
type GroundedBlockSolver struct {
	// Op is the grounded operator (see GroundedSolver.Op for the NoParallel
	// guidance when many solvers run side by side).
	Op Grounded
	// Metrics receives one ObserveSolve per column per block solve. Nil
	// means the package solverMetrics.
	Metrics *obs.Metrics

	precond linalg.Preconditioner
	jacobi  *linalg.JacobiPreconditioner // the default preconditioner
	rhs     [][]float64
	x       [][]float64
	work    linalg.BlockCGWorkspace
}

// NewGroundedBlockSolver builds a reusable block solver for L_v at the given
// landmark, sized for up to k simultaneous right-hand sides (the buffers
// grow if a solve presents more).
func NewGroundedBlockSolver(g *graph.Graph, landmark int, k int) *GroundedBlockSolver {
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
	s := &GroundedBlockSolver{
		Op:     Grounded{G: g, Landmark: landmark},
		jacobi: &linalg.JacobiPreconditioner{InvDiag: inv},
	}
	s.precond = s.jacobi
	s.grow(k, n)
	return s
}

// Reground moves the solver to landmark v, keeping its buffers: its solves
// are then bit for bit those of a new NewGroundedBlockSolver(g, v, k). It
// needs the default Jacobi preconditioner, which it re-pins at v; it
// panics on a solver given another one by SetPreconditioner.
func (s *GroundedBlockSolver) Reground(v int) {
	if s.precond != s.jacobi {
		panic("lap: Reground of a block solver with a custom preconditioner")
	}
	old, inv := s.Op.Landmark, s.jacobi.InvDiag
	inv[old] = 1
	if d := s.Op.G.WeightedDegree(old); d > 0 {
		inv[old] = 1 / d
	}
	inv[v] = 1
	s.Op.Landmark = v
}

// SetPreconditioner replaces the solver's preconditioner (Jacobi by
// default); see GroundedSolver.SetPreconditioner for the contract.
func (s *GroundedBlockSolver) SetPreconditioner(p linalg.Preconditioner) {
	if p != nil {
		s.precond = p
	}
}

// grow sizes the rhs and solution matrices for k columns of length n.
func (s *GroundedBlockSolver) grow(k, n int) {
	for len(s.rhs) < k {
		s.rhs = append(s.rhs, nil)
		s.x = append(s.x, nil)
	}
	for c := 0; c < k; c++ {
		if cap(s.rhs[c]) < n {
			s.rhs[c] = make([]float64, n)
			s.x[c] = make([]float64, n)
		}
		s.rhs[c] = s.rhs[c][:n]
		s.x[c] = s.x[c][:n]
	}
}

// SolveUnits solves L_v x = e_t for every t in ts — the batched form of
// GroundedSolver.SolveUnit, the kernel under the diagonal index build. The
// returned columns are owned by the solver and valid only until the next
// Solve call; xs[c][landmark] = 0. colErrs[c] reports a per-column failure
// (breakdown / non-convergence); err is reserved for whole-solve failures
// (cancellation, faults).
func (s *GroundedBlockSolver) SolveUnits(ctx context.Context, ts []int, tol float64) (xs [][]float64, results []linalg.CGResult, colErrs []error, err error) {
	n := s.Op.G.N()
	s.grow(len(ts), n)
	for c, t := range ts {
		linalg.Zero(s.rhs[c])
		s.rhs[c][t] = 1
	}
	return s.run(ctx, len(ts), tol)
}

// SolveRHS solves L_v x = b for every column b of bs (each b[landmark] is
// ignored). Ownership and error contract as in SolveUnits; bs is not
// modified.
func (s *GroundedBlockSolver) SolveRHS(ctx context.Context, bs [][]float64, tol float64) (xs [][]float64, results []linalg.CGResult, colErrs []error, err error) {
	n := s.Op.G.N()
	s.grow(len(bs), n)
	for c, b := range bs {
		copy(s.rhs[c], b)
	}
	return s.run(ctx, len(bs), tol)
}

// run solves against the k staged right-hand sides.
func (s *GroundedBlockSolver) run(ctx context.Context, k int, tol float64) ([][]float64, []linalg.CGResult, []error, error) {
	start := time.Now()
	v := s.Op.Landmark
	rhs, x := s.rhs[:k], s.x[:k]
	for c := 0; c < k; c++ {
		rhs[c][v] = 0
		linalg.Zero(x[c])
	}
	results, colErrs, err := linalg.BlockCG(&s.Op, x, rhs, linalg.BlockCGOptions{
		Tol:     tol,
		Precond: s.precond,
		Work:    &s.work,
		Ctx:     ctx,
	})
	elapsed := time.Since(start)
	m := s.Metrics
	if m == nil {
		m = &solverMetrics
	}
	// The block shares one wall clock; attribute an equal slice to each
	// column so per-solve latency histograms stay comparable with the
	// single-column path.
	perCol := elapsed
	if k > 0 {
		perCol = elapsed / time.Duration(k)
	}
	for _, res := range results {
		m.ObserveSolve(res.Iterations, perCol)
	}
	if err != nil {
		if errors.Is(err, cancel.ErrCanceled) {
			m.Canceled.Inc()
		}
		return nil, results, colErrs, err
	}
	for c := 0; c < k; c++ {
		x[c][v] = 0
	}
	return x, results, colErrs, nil
}
