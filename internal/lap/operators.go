// Package lap provides Laplacian operators over CSR graphs and the exact
// (reference) resistance-distance computations built on them: grounded
// conjugate-gradient solves for large graphs and dense pseudo-inverse
// computation for small test graphs, plus spectral utilities (condition
// number estimation).
package lap

import (
	"context"
	"math"

	"landmarkrd/internal/graph"
	"landmarkrd/internal/linalg"
)

// Laplacian is the linalg.Operator view of L = D - A.
// It is symmetric positive semi-definite with null space span{1} on a
// connected graph.
type Laplacian struct {
	G *graph.Graph
	// NoParallel disables the automatic row-blocked parallel sweep that
	// kicks in above a size threshold. Set it when many solves already run
	// side by side (worker pools) so the applies do not oversubscribe.
	NoParallel bool
}

// Dim implements linalg.Operator.
func (l *Laplacian) Dim() int { return l.G.N() }

// Apply computes dst = L x. dst and x must not alias.
func (l *Laplacian) Apply(dst, x []float64) { applyLaplacian(l.G, l.NoParallel, dst, x) }

// ApplyBlock computes dst = L·x for an interleaved block of lanes columns
// (entry i of column c at i·lanes + c; see linalg.BlockOperator) in one
// sweep over the CSR structure; per column the accumulation order is
// laplacianSweep's, so every column's result is bit-for-bit what Apply
// would have produced. It implements linalg.BlockOperator.
func (l *Laplacian) ApplyBlock(dst, x []float64, lanes int) {
	applyLaplacianBlock(l.G, l.NoParallel, dst, x, lanes)
}

// applyLaplacian computes dst = L x over g, row-parallel above the size
// threshold unless noParallel. It is the sweep behind Laplacian.Apply and
// Grounded.Apply.
func applyLaplacian(g *graph.Graph, noParallel bool, dst, x []float64) {
	n := g.N()
	offsets, adj, w := g.RawCSR()
	deg := g.WeightedDegrees()
	if !noParallel && parallelApplyWorthwhile(n, len(adj)) {
		parallelRows(n, offsets, func(lo, hi int) {
			laplacianSweep(dst, x, offsets, adj, w, deg, lo, hi)
		})
		return
	}
	laplacianSweep(dst, x, offsets, adj, w, deg, 0, n)
}

// applyLaplacianBlock is applyLaplacian for an interleaved block of lanes
// columns, the sweep behind Laplacian.ApplyBlock and Grounded.ApplyBlock:
// it runs the laplacianSweepBlock instantiation for lanes.
func applyLaplacianBlock(g *graph.Graph, noParallel bool, dst, x []float64, lanes int) {
	switch lanes {
	case 2:
		applyLanes[[2]float64](g, noParallel, dst, x)
	case 4:
		applyLanes[[4]float64](g, noParallel, dst, x)
	default:
		applyLanes[[linalg.BlockWidth]float64](g, noParallel, dst, x)
	}
}

// applyLanes sweeps an interleaved block of len(L) lanes. Each row block
// of the parallel split runs every lane, so the parallel threshold counts
// the block's total work.
func applyLanes[L linalg.Lanes](g *graph.Graph, noParallel bool, dst, x []float64) {
	var row L
	n := g.N()
	offsets, adj, w := g.RawCSR()
	deg := g.WeightedDegrees()
	if !noParallel && parallelApplyWorthwhile(n, len(adj)*len(row)) {
		parallelRows(n, offsets, func(lo, hi int) {
			laplacianSweepBlock[L](dst, x, offsets, adj, w, deg, lo, hi)
		})
		return
	}
	laplacianSweepBlock[L](dst, x, offsets, adj, w, deg, 0, n)
}

// laplacianSweep computes dst[u] = deg[u]·x[u] − Σ_{(u,v)} w·x[v] for rows
// in [lo, hi) by direct CSR index iteration — the flat form of the
// ForEachNeighbor loop, with the unweighted case split out so the inner
// loop carries no per-edge branch.
func laplacianSweep(dst, x []float64, offsets []int64, adj []int32, w, deg []float64, lo, hi int) {
	if w == nil {
		for u := lo; u < hi; u++ {
			s := deg[u] * x[u]
			row := adj[offsets[u]:offsets[u+1]]
			for _, v := range row {
				s -= x[v]
			}
			dst[u] = s
		}
		return
	}
	for u := lo; u < hi; u++ {
		s := deg[u] * x[u]
		b, e := offsets[u], offsets[u+1]
		row := adj[b:e]
		wts := w[b:e:e]
		for j, v := range row {
			s -= wts[j] * x[v]
		}
		dst[u] = s
	}
}

// Diagonal implements linalg.DiagonalProvider (the weighted degrees).
func (l *Laplacian) Diagonal() []float64 {
	g := l.G
	d := make([]float64, g.N())
	for u := range d {
		d[u] = g.WeightedDegree(u)
	}
	return d
}

// Grounded is the grounded Laplacian L_v: the operator that behaves as L
// restricted to V \ {v}. Rather than renumbering vertices, it keeps the
// full index space and pins coordinate v to zero, which keeps all vertex
// ids stable for callers.
type Grounded struct {
	G        *graph.Graph
	Landmark int
	// NoParallel disables the automatic row-blocked parallel sweep above
	// the size threshold (see Laplacian.NoParallel).
	NoParallel bool
}

// Dim implements linalg.Operator. The operator acts on full-length vectors
// whose v-th entry is ignored and produced as zero.
func (l *Grounded) Dim() int { return l.G.N() }

// Apply computes dst = L_v x, treating x[Landmark] as 0 and forcing
// dst[Landmark] = 0. dst and x must not alias.
//
// The per-edge "is this neighbor the landmark" test of the naive kernel is
// hoisted out of the sweep: x[Landmark] is zeroed for the duration of the
// plain Laplacian sweep (making the excluded column vanish algebraically)
// and restored afterwards, so the inner loop is branch-free.
func (l *Grounded) Apply(dst, x []float64) {
	v := l.Landmark
	xv := x[v]
	x[v] = 0
	applyLaplacian(l.G, l.NoParallel, dst, x)
	x[v] = xv
	dst[v] = 0
}

// ApplyBlock computes dst = L_v·x for an interleaved block of lanes
// columns through laplacianSweepBlock, with row v of x zeroed for the
// sweep as in Apply; per column the result is bit-for-bit what Apply would
// have produced. It implements linalg.BlockOperator. x is mutated (row v
// is zeroed for the sweep) but restored before returning.
func (l *Grounded) ApplyBlock(dst, x []float64, lanes int) {
	o := l.Landmark * lanes
	row := x[o : o+lanes]
	var saved [linalg.BlockWidth]float64
	copy(saved[:], row)
	clear(row)
	applyLaplacianBlock(l.G, l.NoParallel, dst, x, lanes)
	copy(row, saved[:])
	clear(dst[o : o+lanes])
}

// laplacianSweepBlock is laplacianSweep over rows [lo, hi) of an
// interleaved block of len(L) lanes: each neighbour's entries come from
// one cache line, and the accumulators are scalar locals (registers). The
// lane count is a constant in each instantiation, so its tests compile
// away. A neighbour's row is read in slices of at most four entries: the
// second slice's bounds check keeps the eight-lane loop from loading all
// eight entries before it subtracts any, which would spill an accumulator
// to the stack. As in laplacianSweep, the unweighted case has its own row
// loop.
func laplacianSweepBlock[L linalg.Lanes](dst, x []float64, offsets []int64, adj []int32, w, deg []float64, lo, hi int) {
	if w != nil {
		weightedSweepBlock[L](dst, x, offsets, adj, w, deg, lo, hi)
		return
	}
	var row L
	lanes := len(row)
	quad := min(lanes, 4)
	for u := lo; u < hi; u++ {
		o := u * lanes
		a0, a1, a2, a3, a4, a5, a6, a7 := rowStart(x[o:o+lanes:o+lanes], deg[u])
		for _, v := range adj[offsets[u]:offsets[u+1]] {
			ov := int(v) * lanes
			xv := x[ov : ov+quad : ov+quad]
			a0 -= xv[0]
			a1 -= xv[1]
			if lanes > 2 {
				a2 -= xv[2]
				a3 -= xv[3]
			}
			if lanes > 4 {
				xv := x[ov+4 : ov+8 : ov+8]
				a4 -= xv[0]
				a5 -= xv[1]
				a6 -= xv[2]
				a7 -= xv[3]
			}
		}
		rowStore(dst[o:o+lanes:o+lanes], a0, a1, a2, a3, a4, a5, a6, a7)
	}
}

// weightedSweepBlock is laplacianSweepBlock's row loop for a weighted
// graph.
func weightedSweepBlock[L linalg.Lanes](dst, x []float64, offsets []int64, adj []int32, w, deg []float64, lo, hi int) {
	var row L
	lanes := len(row)
	quad := min(lanes, 4)
	for u := lo; u < hi; u++ {
		o := u * lanes
		a0, a1, a2, a3, a4, a5, a6, a7 := rowStart(x[o:o+lanes:o+lanes], deg[u])
		b, e := offsets[u], offsets[u+1]
		wts := w[b:e:e]
		for j, v := range adj[b:e] {
			wv := wts[j]
			ov := int(v) * lanes
			xv := x[ov : ov+quad : ov+quad]
			a0 -= wv * xv[0]
			a1 -= wv * xv[1]
			if lanes > 2 {
				a2 -= wv * xv[2]
				a3 -= wv * xv[3]
			}
			if lanes > 4 {
				xv := x[ov+4 : ov+8 : ov+8]
				a4 -= wv * xv[0]
				a5 -= wv * xv[1]
				a6 -= wv * xv[2]
				a7 -= wv * xv[3]
			}
		}
		rowStore(dst[o:o+lanes:o+lanes], a0, a1, a2, a3, a4, a5, a6, a7)
	}
}

// rowStart returns a row's accumulators deg·x, one per entry of xu (2, 4
// or 8), and zero for the rest.
func rowStart(xu []float64, du float64) (a0, a1, a2, a3, a4, a5, a6, a7 float64) {
	a0, a1 = du*xu[0], du*xu[1]
	if len(xu) > 2 {
		a2, a3 = du*xu[2], du*xu[3]
		if len(xu) > 4 {
			a4, a5, a6, a7 = du*xu[4], du*xu[5], du*xu[6], du*xu[7]
		}
	}
	return
}

// rowStore writes a row's accumulators, one per entry of d (2, 4 or 8).
func rowStore(d []float64, a0, a1, a2, a3, a4, a5, a6, a7 float64) {
	d[0], d[1] = a0, a1
	if len(d) > 2 {
		d[2], d[3] = a2, a3
		if len(d) > 4 {
			d[4], d[5], d[6], d[7] = a4, a5, a6, a7
		}
	}
}

// Diagonal implements linalg.DiagonalProvider.
func (l *Grounded) Diagonal() []float64 {
	g := l.G
	d := make([]float64, g.N())
	for u := range d {
		d[u] = g.WeightedDegree(u)
	}
	d[l.Landmark] = 1 // pinned coordinate; any positive value works
	return d
}

// NormalizedAdjacency is the operator 𝒜 = D^{-1/2} A D^{-1/2}.
type NormalizedAdjacency struct {
	G       *graph.Graph
	invSqrt []float64
	// NoParallel disables the automatic row-blocked parallel sweep above
	// the size threshold (see Laplacian.NoParallel).
	NoParallel bool
}

// NewNormalizedAdjacency precomputes D^{-1/2}.
func NewNormalizedAdjacency(g *graph.Graph) *NormalizedAdjacency {
	inv := make([]float64, g.N())
	for u := range inv {
		d := g.WeightedDegree(u)
		if d > 0 {
			inv[u] = 1 / math.Sqrt(d)
		}
	}
	return &NormalizedAdjacency{G: g, invSqrt: inv}
}

// Dim implements linalg.Operator.
func (a *NormalizedAdjacency) Dim() int { return a.G.N() }

// Apply computes dst = 𝒜 x. dst and x must not alias.
func (a *NormalizedAdjacency) Apply(dst, x []float64) {
	g := a.G
	n := g.N()
	offsets, adj, w := g.RawCSR()
	inv := a.invSqrt
	sweep := func(lo, hi int) {
		if w == nil {
			for u := lo; u < hi; u++ {
				var s float64
				row := adj[offsets[u]:offsets[u+1]]
				for _, v := range row {
					s += inv[v] * x[v]
				}
				dst[u] = inv[u] * s
			}
			return
		}
		for u := lo; u < hi; u++ {
			var s float64
			b, e := offsets[u], offsets[u+1]
			row := adj[b:e]
			wts := w[b:e:e]
			for j, v := range row {
				s += wts[j] * inv[v] * x[v]
			}
			dst[u] = inv[u] * s
		}
	}
	if !a.NoParallel && parallelApplyWorthwhile(n, len(adj)) {
		parallelRows(n, offsets, sweep)
		return
	}
	sweep(0, n)
}

// TopEigenvector returns the known top eigenvector of 𝒜, namely D^{1/2}·1
// normalized, with eigenvalue exactly 1 on a connected graph.
func (a *NormalizedAdjacency) TopEigenvector() []float64 {
	g := a.G
	v := make([]float64, g.N())
	for u := range v {
		v[u] = math.Sqrt(g.WeightedDegree(u))
	}
	n := linalg.Norm2(v)
	if n > 0 {
		linalg.Scale(1/n, v)
	}
	return v
}

// GroundedSolve solves L_v x = b (with b[v] ignored) by preconditioned CG
// and returns the solution with x[v] = 0. Every solve records its
// iteration count and wall time in the package SolverMetrics. It is the
// one-shot form of GroundedSolver; repeated solves against one landmark
// should build a solver once and reuse its buffers.
func GroundedSolve(g *graph.Graph, landmark int, b []float64, tol float64) ([]float64, linalg.CGResult, error) {
	return NewGroundedSolver(g, landmark).Solve(b, tol)
}

// GroundedSolveContext is GroundedSolve with cancellation: once ctx is done
// the CG loop aborts within a few matvecs and the solve returns a
// cancel.Error (see internal/cancel).
func GroundedSolveContext(ctx context.Context, g *graph.Graph, landmark int, b []float64, tol float64) ([]float64, linalg.CGResult, error) {
	return NewGroundedSolver(g, landmark).SolveContext(ctx, b, tol)
}
