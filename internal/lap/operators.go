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

// ApplyBlock computes dst[c] = L x[c] for every column c through the
// unrolled multi-column kernels of laplacianSweepBlock; per column the
// accumulation order is laplacianSweep's, so every column's result is
// bit-for-bit what Apply would have produced. It implements
// linalg.BlockOperator.
func (l *Laplacian) ApplyBlock(dst, x [][]float64) {
	applyLaplacianBlock(l.G, l.NoParallel, dst, x)
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

// applyLaplacianBlock is applyLaplacian for several columns at once, the
// sweep behind Laplacian.ApplyBlock and Grounded.ApplyBlock. Each row block
// of the parallel split runs every column, so the parallel threshold counts
// the block's total work.
func applyLaplacianBlock(g *graph.Graph, noParallel bool, dst, x [][]float64) {
	n := g.N()
	offsets, adj, w := g.RawCSR()
	deg := g.WeightedDegrees()
	if !noParallel && parallelApplyWorthwhile(n, len(adj)*len(x)) {
		parallelRows(n, offsets, func(lo, hi int) {
			laplacianSweepBlock(dst, x, offsets, adj, w, deg, lo, hi)
		})
		return
	}
	laplacianSweepBlock(dst, x, offsets, adj, w, deg, 0, n)
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

// ApplyBlock computes dst[c] = L_v x[c] for every column c with edge-
// balanced sweeps over the CSR structure that amortize each row's offsets,
// adjacency and weights across several columns at once. Columns are
// dispatched to unrolled kernels in chunks of 8, 4 and 2 whose accumulators
// live in registers; per column the accumulation order is exactly
// laplacianSweep's, so every column's result is bit-for-bit what Apply would
// have produced. It implements linalg.BlockOperator. x is mutated (the
// landmark entries are zeroed for the sweep) but restored before returning.
func (l *Grounded) ApplyBlock(dst, x [][]float64) {
	k := len(x)
	if k == 1 {
		l.Apply(dst[0], x[0])
		return
	}
	v := l.Landmark
	saved := make([]float64, k)
	for c, xc := range x {
		saved[c] = xc[v]
		xc[v] = 0
	}
	applyLaplacianBlock(l.G, l.NoParallel, dst, x)
	for c, xc := range x {
		xc[v] = saved[c]
		dst[c][v] = 0
	}
}

// laplacianSweepBlock sweeps rows [lo, hi) for every column, peeling the
// columns into unrolled chunks: 8-wide and 4-wide kernels whose per-column
// accumulators are scalar locals (registers), then a 2-wide kernel, then the
// plain single-column sweep for a final odd column. Each chunk re-traverses
// the adjacency, so the amortization factor is the chunk width — still far
// cheaper than one traversal per column, without the cache-hostile k-way
// indirection of a fully generic inner loop.
func laplacianSweepBlock(dst, x [][]float64, offsets []int64, adj []int32, w, deg []float64, lo, hi int) {
	for len(x) >= 8 {
		laplacianSweepBlock8(dst, x, offsets, adj, w, deg, lo, hi)
		dst, x = dst[8:], x[8:]
	}
	if len(x) >= 4 {
		laplacianSweepBlock4(dst, x, offsets, adj, w, deg, lo, hi)
		dst, x = dst[4:], x[4:]
	}
	if len(x) >= 2 {
		laplacianSweepBlock2(dst[0], dst[1], x[0], x[1], offsets, adj, w, deg, lo, hi)
		dst, x = dst[2:], x[2:]
	}
	if len(x) == 1 {
		laplacianSweep(dst[0], x[0], offsets, adj, w, deg, lo, hi)
	}
}

func laplacianSweepBlock2(dst0, dst1, x0, x1 []float64, offsets []int64, adj []int32, w, deg []float64, lo, hi int) {
	for u := lo; u < hi; u++ {
		du := deg[u]
		a0 := du * x0[u]
		a1 := du * x1[u]
		b, e := offsets[u], offsets[u+1]
		row := adj[b:e]
		if w == nil {
			for _, v := range row {
				a0 -= x0[v]
				a1 -= x1[v]
			}
		} else {
			wts := w[b:e:e]
			for j, v := range row {
				wv := wts[j]
				a0 -= wv * x0[v]
				a1 -= wv * x1[v]
			}
		}
		dst0[u] = a0
		dst1[u] = a1
	}
}

func laplacianSweepBlock4(dst, x [][]float64, offsets []int64, adj []int32, w, deg []float64, lo, hi int) {
	dst0, dst1, dst2, dst3 := dst[0], dst[1], dst[2], dst[3]
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	for u := lo; u < hi; u++ {
		du := deg[u]
		a0 := du * x0[u]
		a1 := du * x1[u]
		a2 := du * x2[u]
		a3 := du * x3[u]
		b, e := offsets[u], offsets[u+1]
		row := adj[b:e]
		if w == nil {
			for _, v := range row {
				a0 -= x0[v]
				a1 -= x1[v]
				a2 -= x2[v]
				a3 -= x3[v]
			}
		} else {
			wts := w[b:e:e]
			for j, v := range row {
				wv := wts[j]
				a0 -= wv * x0[v]
				a1 -= wv * x1[v]
				a2 -= wv * x2[v]
				a3 -= wv * x3[v]
			}
		}
		dst0[u] = a0
		dst1[u] = a1
		dst2[u] = a2
		dst3[u] = a3
	}
}

func laplacianSweepBlock8(dst, x [][]float64, offsets []int64, adj []int32, w, deg []float64, lo, hi int) {
	dst0, dst1, dst2, dst3 := dst[0], dst[1], dst[2], dst[3]
	dst4, dst5, dst6, dst7 := dst[4], dst[5], dst[6], dst[7]
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	x4, x5, x6, x7 := x[4], x[5], x[6], x[7]
	for u := lo; u < hi; u++ {
		du := deg[u]
		a0, a1, a2, a3 := du*x0[u], du*x1[u], du*x2[u], du*x3[u]
		a4, a5, a6, a7 := du*x4[u], du*x5[u], du*x6[u], du*x7[u]
		b, e := offsets[u], offsets[u+1]
		row := adj[b:e]
		if w == nil {
			for _, v := range row {
				a0 -= x0[v]
				a1 -= x1[v]
				a2 -= x2[v]
				a3 -= x3[v]
				a4 -= x4[v]
				a5 -= x5[v]
				a6 -= x6[v]
				a7 -= x7[v]
			}
		} else {
			wts := w[b:e:e]
			for j, v := range row {
				wv := wts[j]
				a0 -= wv * x0[v]
				a1 -= wv * x1[v]
				a2 -= wv * x2[v]
				a3 -= wv * x3[v]
				a4 -= wv * x4[v]
				a5 -= wv * x5[v]
				a6 -= wv * x6[v]
				a7 -= wv * x7[v]
			}
		}
		dst0[u], dst1[u], dst2[u], dst3[u] = a0, a1, a2, a3
		dst4[u], dst5[u], dst6[u], dst7[u] = a4, a5, a6, a7
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
