package lap

import (
	"context"
	"fmt"
	"math"

	"landmarkrd/internal/graph"
	"landmarkrd/internal/linalg"
	"landmarkrd/internal/obs"
)

// ExactTol is the CG tolerance used for "ground truth" resistance values.
// With a relative residual of 1e-11 the resulting RD error is far below
// every ε the experiments sweep.
const ExactTol = 1e-11

// ResistanceCG computes r(s,t) exactly (to CG tolerance) by solving the
// grounded system L_v x = e_s - e_t with a landmark v ∉ {s, t} and
// returning x(s) - x(t). This is the reference ground truth used by tests
// and experiments on graphs too large for dense algebra.
func ResistanceCG(g *graph.Graph, s, t int) (float64, error) {
	return ResistanceCGContext(context.Background(), g, s, t)
}

// ResistanceCGContext is ResistanceCG with cancellation: once ctx is done
// the CG loop aborts within a few matvecs and the solve returns a
// cancel.Error wrapping the context cause.
func ResistanceCGContext(ctx context.Context, g *graph.Graph, s, t int) (float64, error) {
	if err := validatePair(g, s, t); err != nil {
		return 0, err
	}
	if s == t {
		return 0, nil
	}
	if !g.IsConnected() {
		return 0, graph.ErrNotConnected
	}
	v := pickGround(g, s, t)
	b := make([]float64, g.N())
	b[s] = 1
	b[t] = -1
	x, _, err := GroundedSolveContext(ctx, g, v, b, ExactTol)
	if err != nil {
		return 0, fmt.Errorf("lap: exact resistance solve failed: %w", err)
	}
	return x[s] - x[t], nil
}

// PotentialCG returns the potential vector φ = L†(e_s − e_t) (grounded at
// an arbitrary vertex then re-centred to mean zero), from which
// r(s,t) = φ(s) − φ(t) and electric flows can be read off.
func PotentialCG(g *graph.Graph, s, t int) ([]float64, error) {
	if err := validatePair(g, s, t); err != nil {
		return nil, err
	}
	if !g.IsConnected() {
		return nil, graph.ErrNotConnected
	}
	v := pickGround(g, s, t)
	b := make([]float64, g.N())
	b[s] = 1
	b[t] = -1
	x, _, err := GroundedSolve(g, v, b, ExactTol)
	if err != nil {
		return nil, fmt.Errorf("lap: potential solve failed: %w", err)
	}
	linalg.ProjectOutConstant(x)
	return x, nil
}

// GroundVertex returns the grounding vertex ResistanceCG would use for the
// pair (s, t): the first vertex distinct from both, or t itself when n == 2.
// Batch callers group pairs by this vertex so pairs sharing a ground can be
// solved as one multi-RHS block.
func GroundVertex(g *graph.Graph, s, t int) int { return pickGround(g, s, t) }

// ResistanceBatchCG computes r(s,t) for a batch of pairs that share the
// grounding vertex ground (each must satisfy GroundVertex(g, s, t) ==
// ground, and s != t), using one block CG solve — one operator sweep per
// iteration across all pairs instead of one solve per pair. Every returned
// value is bit-for-bit what ResistanceCGContext would produce for that pair.
// The solve holds about seven n-vectors per pair at once, so callers bound
// len(pairs).
//
// errs[i] carries a per-pair failure (invalid vertex, breakdown,
// non-convergence); err is reserved for whole-batch failures — a
// disconnected graph, cancellation, or injected faults. tol <= 0 means
// ExactTol. The block solve records into m (nil means the package
// SolverMetrics).
func ResistanceBatchCG(ctx context.Context, g *graph.Graph, ground int, pairs [][2]int, tol float64, m *obs.Metrics) (values []float64, errs []error, err error) {
	if tol <= 0 {
		tol = ExactTol
	}
	values = make([]float64, len(pairs))
	errs = make([]error, len(pairs))
	if len(pairs) == 0 {
		return values, errs, nil
	}
	if !g.IsConnected() {
		return nil, nil, graph.ErrNotConnected
	}
	// Validate up front; invalid pairs get their error and drop out of the
	// block, valid ones keep their batch position via cols.
	cols := make([]int, 0, len(pairs))
	bs := make([][]float64, 0, len(pairs))
	n := g.N()
	for i, pr := range pairs {
		s, t := pr[0], pr[1]
		if verr := validatePair(g, s, t); verr != nil {
			errs[i] = verr
			continue
		}
		if s == t {
			continue // values[i] stays 0
		}
		if pickGround(g, s, t) != ground {
			errs[i] = fmt.Errorf("lap: pair (%d,%d) grounds at %d, not %d", s, t, pickGround(g, s, t), ground)
			continue
		}
		b := make([]float64, n)
		b[s] = 1
		b[t] = -1
		cols = append(cols, i)
		bs = append(bs, b)
	}
	if len(cols) == 0 {
		return values, errs, nil
	}
	solver := NewGroundedBlockSolver(g, ground, len(cols))
	solver.Metrics = m
	xs, _, colErrs, serr := solver.SolveRHS(ctx, bs, tol)
	if serr != nil {
		return nil, nil, fmt.Errorf("lap: exact resistance solve failed: %w", serr)
	}
	for c, i := range cols {
		if colErrs[c] != nil {
			errs[i] = fmt.Errorf("lap: exact resistance solve failed: %w", colErrs[c])
			continue
		}
		s, t := pairs[i][0], pairs[i][1]
		values[i] = xs[c][s] - xs[c][t]
	}
	return values, errs, nil
}

// pickGround chooses a grounding vertex different from s and t.
func pickGround(g *graph.Graph, s, t int) int {
	for v := 0; v < g.N(); v++ {
		if v != s && v != t {
			return v
		}
	}
	// n == 2: ground at t; the grounded identity r(s,t) = L_t^{-1}[s,s]
	// still applies.
	return t
}

func validatePair(g *graph.Graph, s, t int) error {
	if err := g.ValidateVertex(s); err != nil {
		return err
	}
	if err := g.ValidateVertex(t); err != nil {
		return err
	}
	return nil
}

// DensePseudoInverse computes L† exactly for a small graph using the
// classical trick L† = (L + J/n)⁻¹ − J/n, where J is the all-ones matrix.
// L + J/n is positive definite on a connected graph so plain Cholesky
// applies. Intended for n up to a few thousand (tests and reference data).
func DensePseudoInverse(g *graph.Graph) (*linalg.Dense, error) {
	if !g.IsConnected() {
		return nil, graph.ErrNotConnected
	}
	n := g.N()
	a := linalg.NewDense(n, n)
	for u := 0; u < n; u++ {
		a.Set(u, u, g.WeightedDegree(u))
		g.ForEachNeighbor(u, func(v int32, w float64) {
			a.Add(u, int(v), -w)
		})
	}
	jn := 1.0 / float64(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Add(i, j, jn)
		}
	}
	chol, err := linalg.NewCholesky(a)
	if err != nil {
		return nil, fmt.Errorf("lap: dense pseudo-inverse (is the graph connected?): %w", err)
	}
	inv := chol.Inverse()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			inv.Add(i, j, -jn)
		}
	}
	return inv, nil
}

// DenseResistanceMatrix returns the full n x n matrix of pairwise
// resistance distances for a small graph.
func DenseResistanceMatrix(g *graph.Graph) (*linalg.Dense, error) {
	pinv, err := DensePseudoInverse(g)
	if err != nil {
		return nil, err
	}
	n := g.N()
	r := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r.Set(i, j, pinv.At(i, i)-2*pinv.At(i, j)+pinv.At(j, j))
		}
	}
	return r, nil
}

// DenseGroundedInverse computes L_v⁻¹ exactly for a small graph, in the
// full index space with row/column v zeroed. Tests use it to check every
// landmark identity directly.
func DenseGroundedInverse(g *graph.Graph, v int) (*linalg.Dense, error) {
	if err := g.ValidateVertex(v); err != nil {
		return nil, err
	}
	if !g.IsConnected() {
		return nil, graph.ErrNotConnected
	}
	n := g.N()
	// Build the reduced (n-1)x(n-1) matrix.
	idx := make([]int, 0, n-1)
	pos := make([]int, n)
	for u := 0; u < n; u++ {
		pos[u] = -1
		if u != v {
			pos[u] = len(idx)
			idx = append(idx, u)
		}
	}
	a := linalg.NewDense(n-1, n-1)
	for _, u := range idx {
		a.Set(pos[u], pos[u], g.WeightedDegree(u))
		g.ForEachNeighbor(u, func(w int32, wt float64) {
			if int(w) != v {
				a.Add(pos[u], pos[w], -wt)
			}
		})
	}
	chol, err := linalg.NewCholesky(a)
	if err != nil {
		return nil, fmt.Errorf("lap: grounded inverse: %w", err)
	}
	small := chol.Inverse()
	full := linalg.NewDense(n, n)
	for i, u := range idx {
		for j, w := range idx {
			full.Set(u, w, small.At(i, j))
		}
	}
	return full, nil
}

// ResistanceDense computes r(s,t) via the dense pseudo-inverse. Only for
// small graphs; tests use it to validate ResistanceCG.
func ResistanceDense(g *graph.Graph, s, t int) (float64, error) {
	if err := validatePair(g, s, t); err != nil {
		return 0, err
	}
	if s == t {
		return 0, nil
	}
	pinv, err := DensePseudoInverse(g)
	if err != nil {
		return 0, err
	}
	r := pinv.At(s, s) - 2*pinv.At(s, t) + pinv.At(t, t)
	if r < 0 && r > -1e-9 {
		r = 0 // numerical noise on near-identical vertices
	}
	return r, nil
}

// CommuteTime returns the expected commute time between s and t,
// 2·W·r(s,t) where W is the total edge weight (Volume/2), computed from the
// exact resistance.
func CommuteTime(g *graph.Graph, s, t int) (float64, error) {
	r, err := ResistanceCG(g, s, t)
	if err != nil {
		return 0, err
	}
	return g.Volume() * r, nil
}

// EffectiveResistanceOfEdge returns r(u,v) for an edge {u,v}; exposed for
// Foster-theorem style checks (Σ_e w_e·r(e) = n − 1).
func EffectiveResistanceOfEdge(g *graph.Graph, u, v int) (float64, error) {
	if !g.HasEdge(u, v) {
		return 0, fmt.Errorf("lap: (%d,%d) is not an edge", u, v)
	}
	return ResistanceCG(g, u, v)
}

// IsFinite reports whether x is a usable finite float.
func IsFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
