package linalg

import (
	"context"
	"fmt"
	"math"

	"landmarkrd/internal/cancel"
	"landmarkrd/internal/faultinject"
)

// BlockWidth is the most columns one interleaved block holds.
const BlockWidth = 8

// Lanes is the row type of an interleaved block: a block of w lanes
// (2, 4 or BlockWidth columns) stores entry i of column c at index
// i·w + c, so row i's entries share one cache line. Kernels generic over
// Lanes compile once per width with w a constant, so a narrow block
// sweeps and stores only the lanes it uses, with no lane test at run time.
type Lanes interface {
	[2]float64 | [4]float64 | [BlockWidth]float64
}

// width returns the lane count of L.
func width[L Lanes]() int {
	var row L
	return len(row)
}

// BlockOperator is an Operator that can apply itself to a whole
// interleaved block in one sweep over its structure. For CSR graph
// operators one row visit then loads each neighbour's entries from a
// single cache line, which is where the block solver's speedup comes from.
type BlockOperator interface {
	Operator
	// ApplyBlock computes dst = A·x for an interleaved block of lanes
	// columns (2, 4 or BlockWidth; see Lanes): x and dst have length
	// lanes·Dim(). Each column must receive bit-for-bit the result Apply
	// would produce for it alone, so block solves agree exactly with
	// independent ones.
	ApplyBlock(dst, x []float64, lanes int)
}

// BlockCGOptions controls the block conjugate-gradient solver. The defaults
// mirror CGOptions: Tol 1e-10, MaxIter 10·dim + 100, and a Jacobi
// preconditioner when the operator provides a usable diagonal (identity
// otherwise — see NewJacobiFromDiagonal).
type BlockCGOptions struct {
	Tol     float64
	MaxIter int
	// Precond is the preconditioner. Jacobi and the identity are fused
	// into the block passes; any other preconditioner is applied column by
	// column, each column gathered out of the block and scattered back.
	Precond Preconditioner
	// ProjectConstant mirrors CGOptions.ProjectConstant: every column is
	// re-projected orthogonal to the all-ones vector at exactly the points
	// CG projects (x, r and z at the start; Ap, r and z in each iteration),
	// so a singular-Laplacian block solve stays bit-for-bit k CG solves.
	ProjectConstant bool
	// Work, when non-nil, supplies the scratch so repeated block solves
	// do not allocate.
	Work *BlockCGWorkspace
	// Ctx, when non-nil and cancellable, aborts the iteration with a
	// cancel.Error once the context is done (polled every cgCheckEvery
	// iterations, like CG).
	Ctx context.Context
}

// BlockCGWorkspace holds a block solve's state: the iterate x, the
// residual r, the search direction p and the product Ap, each interleaved
// over the block's lanes (4·lanes·n floats). The preconditioned residual
// z is never stored for Jacobi or the identity; the passes recompute it
// from r. A column-by-column preconditioner also uses one n-vector of
// gather scratch, and both it and the identity read a unit diagonal; these
// are allocated on first use. The zero value is ready; it grows on demand
// and must not be shared by concurrent solves.
type BlockCGWorkspace struct {
	x, r, p, ap []float64
	col, ones   []float64
	cg          CGWorkspace
}

// block returns the four interleaved vectors for lanes columns of
// dimension n.
func (w *BlockCGWorkspace) block(n, lanes int) (x, r, p, ap []float64) {
	m := lanes * n
	if cap(w.x) < m {
		w.x = make([]float64, m)
		w.r = make([]float64, m)
		w.p = make([]float64, m)
		w.ap = make([]float64, m)
	}
	return w.x[:m], w.r[:m], w.p[:m], w.ap[:m]
}

// column returns the n-vector of gather scratch.
func (w *BlockCGWorkspace) column(n int) []float64 {
	if cap(w.col) < n {
		w.col = make([]float64, n)
	}
	return w.col[:n]
}

// unitDiagonal returns n ones: the identity as a Jacobi diagonal, since
// float64(1·r) is r exactly.
func (w *BlockCGWorkspace) unitDiagonal(n int) []float64 {
	if len(w.ones) != n {
		w.ones = make([]float64, n)
		for i := range w.ones {
			w.ones[i] = 1
		}
	}
	return w.ones
}

// cgWorkspace lends CG four n-vectors for a column solved on its own: the
// first 2·n floats of the block's x and r, when a block solve has
// allocated them, else its own, so a solve of one column holds 4·n floats.
func (w *BlockCGWorkspace) cgWorkspace(n int) *CGWorkspace {
	if cap(w.x) < 2*n {
		return &w.cg
	}
	x, r := w.x[:2*n], w.r[:2*n]
	return &CGWorkspace{r: x[:n:n], z: x[n:], p: r[:n:n], ap: r[n:]}
}

// BlockCG solves A·x[c] = b[c] for every column c. Columns are solved
// BlockWidth at a time. A block of k ≥ 2 columns runs on the fewest lanes
// that hold them (2, 4 or BlockWidth), its k preconditioned CG recurrences
// sharing one operator sweep per iteration; a lone column is solved by CG
// itself. Each column runs exactly the CG recurrence — same operation
// order, same convergence test — so its solution, iteration count and
// residual are bit-for-bit what a separate CG call would produce; a
// column that converges is frozen while the others continue.
//
// X columns are the starting guesses (pass zero vectors for cold starts) and
// receive the solutions; B is not modified. While a column is being solved
// its x[c] also serves as gather scratch. The returned slices have one
// entry per column: colErrs[c] is non-nil when column c broke down or
// failed to converge (its CGResult still reports the final residual). The
// single error return is reserved for whole-solve failures: dimension
// mismatches, context cancellation and injected faults.
func BlockCG(a BlockOperator, x, b [][]float64, opts BlockCGOptions) (results []CGResult, colErrs []error, err error) {
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
	if opts.Work == nil {
		opts.Work = &BlockCGWorkspace{}
	}
	for lo := 0; lo < k && err == nil; lo += BlockWidth {
		hi := min(lo+BlockWidth, k)
		xs, bs, rs, es := x[lo:hi], b[lo:hi], results[lo:hi], colErrs[lo:hi]
		switch hi - lo {
		case 1:
			rs[0], es[0], err = cg(a, xs[0], bs[0], CGOptions{
				Tol: opts.Tol, MaxIter: opts.MaxIter, Precond: opts.Precond,
				ProjectConstant: opts.ProjectConstant, Work: opts.Work.cgWorkspace(n), Ctx: opts.Ctx,
			})
		case 2:
			err = solveBlock[[2]float64](a, xs, bs, rs, es, &opts)
		case 3, 4:
			err = solveBlock[[4]float64](a, xs, bs, rs, es, &opts)
		default:
			err = solveBlock[[BlockWidth]float64](a, xs, bs, rs, es, &opts)
		}
	}
	return results, colErrs, err
}

// perLane is one value per column of a block.
type perLane = [BlockWidth]float64

// solveBlock runs the CG recurrences of 2 to len(L) columns on the
// interleaved workspace, a block of len(L) lanes. Lanes past len(x),
// and lanes whose column has finished, hold zeros in x, r, p and Ap and
// step with α = β = 0, so they stay zero.
//
// Per iteration the block makes one operator sweep and these passes over
// the rows, each reduction running over i = 0…n−1 in order as CG's does:
//
//   - with ProjectConstant: sum Ap; project Ap and dot it with p; update
//     x and r and sum r; project r, precondition and sum z and ‖r‖²;
//     project z and take r·z; update p;
//   - without: dot Ap with p; update x and r and take ‖r‖²; take r·z;
//     update p.
//
// z = M·r is recomputed from r in every pass that reads it when M is
// Jacobi or the identity. Any other preconditioner is applied column by
// column into the Ap vector, which is dead between the r update and the
// next sweep, and the passes then read z from there with a unit diagonal.
func solveBlock[L Lanes](a BlockOperator, x, b [][]float64, results []CGResult, colErrs []error, opts *BlockCGOptions) error {
	n := a.Dim()
	k := len(x)
	work := opts.Work
	project := opts.ProjectConstant
	fn := float64(n)
	lanes := width[L]()
	X, R, P, AP := work.block(n, lanes)

	// d is the fused preconditioner's diagonal; with gather set, z is
	// preconditioned column by column into AP and read back through ones.
	var d []float64
	gather := false
	switch pc := opts.Precond.(type) {
	case *JacobiPreconditioner:
		d = pc.InvDiag
	case IdentityPreconditioner, *IdentityPreconditioner:
		d = work.unitDiagonal(n)
	default:
		d = work.unitDiagonal(n)
		gather = true
	}

	done := cancel.Done(opts.Ctx)
	if done != nil {
		if err := cancel.Check(opts.Ctx); err != nil {
			return err
		}
	}
	fi := faultinject.At(faultinject.SiteCGIter)

	var live [BlockWidth]bool
	var normB, rz, rr, alpha, beta perLane
	Zero(X)
	Zero(R)
	Zero(P)
	Zero(AP)
	for c := 0; c < k; c++ {
		normB[c] = Norm2(b[c])
		if normB[c] == 0 {
			Zero(x[c])
			results[c].Converged = true
			continue
		}
		live[c] = true
		if project {
			ProjectOutConstant(x[c])
		}
		scatterLane(X, x[c], c, lanes)
	}
	// precondition writes z = M·r into AP for the live lanes, column by
	// column through x[c] and the gather scratch, returning its lane sums.
	precondition := func() perLane {
		col := work.column(n)
		for c := 0; c < k; c++ {
			if live[c] {
				gatherLane(x[c], R, c, lanes)
				opts.Precond.Precondition(col, x[c])
				scatterLane(AP, col, c, lanes)
			}
		}
		return laneSums[L](AP)
	}
	// freeze hands lane c's iterate back to its column and zeroes the lane.
	freeze := func(c int) {
		live[c] = false
		gatherLane(x[c], X, c, lanes)
		for _, v := range [][]float64{X, R, P, AP} {
			for o := c; o < len(v); o += lanes {
				v[o] = 0
			}
		}
	}
	stop := func(iter int, err error) error {
		for c := 0; c < k; c++ {
			if live[c] {
				results[c].Iterations = iter
				results[c].Residual = math.Sqrt(rr[c]) / normB[c]
				freeze(c)
			}
		}
		return err
	}

	// zsrc holds what z is recomputed from: r itself, or the column-by-
	// column preconditioner's output in AP.
	zsrc := R
	if gather {
		zsrc = AP
	}
	var meanR, meanZ perLane
	// dotRZ preconditions the current r and returns r·z, leaving z's mean
	// in meanZ; sumZ is the lane sums of the fused z = d·r.
	dotRZ := func(sumZ perLane) perLane {
		if gather {
			sumZ = precondition()
		}
		if project {
			meanZ = means(sumZ, fn)
		}
		return dotZ[L](R, zsrc, d, &meanZ)
	}

	// r = b − A·x, projected; z = M·r, projected; p = z; rz = r·z.
	a.ApplyBlock(AP, X, lanes)
	for c := 0; c < k; c++ {
		if live[c] {
			bc := b[c]
			for i, o := 0, c; i < n; i, o = i+1, o+lanes {
				R[o] = bc[i] - AP[o]
			}
		}
	}
	if project {
		meanR = means(laneSums[L](R), fn)
	}
	var sumZ perLane
	sumZ, rr = projectPrecondition[L](R, d, &meanR)
	rz = dotRZ(sumZ)
	startP[L](P, zsrc, d, &meanZ)

	for iter := 0; iter < opts.MaxIter; iter++ {
		if (done != nil || fi != nil) && iter%cgCheckEvery == 0 {
			if done != nil {
				select {
				case <-done:
					return stop(iter, cancel.Wrap(opts.Ctx.Err()))
				default:
				}
			}
			if err := fi.Fire(); err != nil {
				return stop(iter, err)
			}
		}
		// Per-column convergence check, freezing converged columns exactly
		// where an independent CG would have returned.
		active := 0
		for c := 0; c < k; c++ {
			if !live[c] {
				continue
			}
			results[c].Iterations = iter
			results[c].Residual = math.Sqrt(rr[c]) / normB[c]
			if results[c].Residual <= opts.Tol {
				results[c].Converged = true
				freeze(c)
				continue
			}
			active++
		}
		if active == 0 {
			return nil
		}

		a.ApplyBlock(AP, P, lanes)
		var pap perLane
		if project {
			meanAp := means(laneSums[L](AP), fn)
			pap = projectDot[L](AP, P, &meanAp)
		} else {
			pap = dotLanes[L](P, AP)
		}
		for c := 0; c < k; c++ {
			alpha[c] = 0
			if !live[c] {
				continue
			}
			if pap[c] <= 0 || math.IsNaN(pap[c]) {
				colErrs[c] = ErrCGBreakdown
				freeze(c)
				continue
			}
			alpha[c] = rz[c] / pap[c]
		}

		if project {
			meanR = means(updateSum[L](X, R, P, AP, &alpha), fn)
			sumZ, rr = projectPrecondition[L](R, d, &meanR)
		} else {
			rr = updateNorm[L](X, R, P, AP, &alpha)
		}
		rzNew := dotRZ(sumZ)
		for c := 0; c < k; c++ {
			beta[c] = 0
			if live[c] {
				beta[c] = rzNew[c] / rz[c]
				rz[c] = rzNew[c]
			}
		}
		updateP[L](P, zsrc, d, &meanZ, &beta)
	}
	for c := 0; c < k; c++ {
		if live[c] {
			results[c].Iterations = opts.MaxIter
			results[c].Residual = math.Sqrt(rr[c]) / normB[c]
			results[c].Converged = results[c].Residual <= opts.Tol
			if !results[c].Converged {
				colErrs[c] = notConverged(opts.MaxIter, results[c].Residual)
			}
			freeze(c)
		}
	}
	return nil
}

// scatterLane writes the contiguous column src into lane c of the
// interleaved block v of lanes lanes.
func scatterLane(v, src []float64, c, lanes int) {
	for i, o := 0, c; i < len(src); i, o = i+1, o+lanes {
		v[o] = src[i]
	}
}

// gatherLane copies lane c of the interleaved block v of lanes lanes into
// the contiguous column dst.
func gatherLane(dst, v []float64, c, lanes int) {
	for i, o := 0, c; i < len(dst); i, o = i+1, o+lanes {
		dst[i] = v[o]
	}
}

// means divides every lane sum by n, as ProjectOutConstant does.
func means(s perLane, n float64) perLane {
	for c := range s {
		s[c] /= n
	}
	return s
}

// The passes below walk an interleaved block of w = len(L) lanes row by
// row, o = i·w, each lane's reduction running over i = 0…n−1 in order.
// Every instantiation compiles with w a constant, so the lane guards and
// the stride cost nothing at run time.

// laneSums returns Σᵢ v[i·w+c] for every lane c.
func laneSums[L Lanes](v []float64) perLane {
	w := width[L]()
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for o := 0; o < len(v); o += w {
		r := v[o : o+w : o+w]
		s0 += r[0]
		s1 += r[1]
		if w > 2 {
			s2 += r[2]
			s3 += r[3]
			if w > 4 {
				s4 += r[4]
				s5 += r[5]
				s6 += r[6]
				s7 += r[7]
			}
		}
	}
	return perLane{s0, s1, s2, s3, s4, s5, s6, s7}
}

// dotLanes returns Σᵢ p·ap per lane, as Dot(p, ap).
func dotLanes[L Lanes](p, ap []float64) perLane {
	w := width[L]()
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for o := 0; o < len(p); o += w {
		ps := p[o : o+w : o+w]
		as := ap[o : o+w : o+w]
		s0 += ps[0] * as[0]
		s1 += ps[1] * as[1]
		if w > 2 {
			s2 += ps[2] * as[2]
			s3 += ps[3] * as[3]
			if w > 4 {
				s4 += ps[4] * as[4]
				s5 += ps[5] * as[5]
				s6 += ps[6] * as[6]
				s7 += ps[7] * as[7]
			}
		}
	}
	return perLane{s0, s1, s2, s3, s4, s5, s6, s7}
}

// projectDot subtracts each lane's mean from ap and returns p·ap per lane:
// ProjectOutConstant(ap) then Dot(p, ap).
func projectDot[L Lanes](ap, p []float64, m *perLane) perLane {
	w := width[L]()
	m0, m1, m2, m3, m4, m5, m6, m7 := m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7]
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for o := 0; o < len(p); o += w {
		ps := p[o : o+w : o+w]
		as := ap[o : o+w : o+w]
		a0 := as[0] - m0
		as[0] = a0
		s0 += ps[0] * a0
		a1 := as[1] - m1
		as[1] = a1
		s1 += ps[1] * a1
		if w > 2 {
			a2 := as[2] - m2
			as[2] = a2
			s2 += ps[2] * a2
			a3 := as[3] - m3
			as[3] = a3
			s3 += ps[3] * a3
			if w > 4 {
				a4 := as[4] - m4
				as[4] = a4
				s4 += ps[4] * a4
				a5 := as[5] - m5
				as[5] = a5
				s5 += ps[5] * a5
				a6 := as[6] - m6
				as[6] = a6
				s6 += ps[6] * a6
				a7 := as[7] - m7
				as[7] = a7
				s7 += ps[7] * a7
			}
		}
	}
	return perLane{s0, s1, s2, s3, s4, s5, s6, s7}
}

// updateSum steps x += α·p and r += (−α)·ap, as CG's two Axpy calls, and
// returns the lane sums of the new r. A row is read in slices of at most
// four lanes, as laplacianSweepBlock reads a neighbour's: the second
// slices' bounds checks keep the eight-lane loop from scheduling all eight
// updates before any sum, which spills accumulators and α values to the
// stack.
func updateSum[L Lanes](x, r, p, ap []float64, alpha *perLane) perLane {
	w := width[L]()
	quad := min(w, 4)
	a0, a1, a2, a3, a4, a5, a6, a7 := alpha[0], alpha[1], alpha[2], alpha[3], alpha[4], alpha[5], alpha[6], alpha[7]
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for o := 0; o < len(x); o += w {
		xs := x[o : o+quad : o+quad]
		ps := p[o : o+quad : o+quad]
		rs := r[o : o+quad : o+quad]
		as := ap[o : o+quad : o+quad]
		xs[0] += a0 * ps[0]
		r0 := rs[0] + -a0*as[0]
		rs[0] = r0
		s0 += r0
		xs[1] += a1 * ps[1]
		r1 := rs[1] + -a1*as[1]
		rs[1] = r1
		s1 += r1
		if w > 2 {
			xs[2] += a2 * ps[2]
			r2 := rs[2] + -a2*as[2]
			rs[2] = r2
			s2 += r2
			xs[3] += a3 * ps[3]
			r3 := rs[3] + -a3*as[3]
			rs[3] = r3
			s3 += r3
		}
		if w > 4 {
			xs := x[o+4 : o+8 : o+8]
			ps := p[o+4 : o+8 : o+8]
			rs := r[o+4 : o+8 : o+8]
			as := ap[o+4 : o+8 : o+8]
			xs[0] += a4 * ps[0]
			r4 := rs[0] + -a4*as[0]
			rs[0] = r4
			s4 += r4
			xs[1] += a5 * ps[1]
			r5 := rs[1] + -a5*as[1]
			rs[1] = r5
			s5 += r5
			xs[2] += a6 * ps[2]
			r6 := rs[2] + -a6*as[2]
			rs[2] = r6
			s6 += r6
			xs[3] += a7 * ps[3]
			r7 := rs[3] + -a7*as[3]
			rs[3] = r7
			s7 += r7
		}
	}
	return perLane{s0, s1, s2, s3, s4, s5, s6, s7}
}

// updateNorm is the unprojected step x += α·p and r += (−α)·ap, as CG's
// two Axpy calls, returning the next iteration's Norm2(r)² per lane.
func updateNorm[L Lanes](x, r, p, ap []float64, alpha *perLane) perLane {
	w := width[L]()
	a0, a1, a2, a3, a4, a5, a6, a7 := alpha[0], alpha[1], alpha[2], alpha[3], alpha[4], alpha[5], alpha[6], alpha[7]
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for o := 0; o < len(x); o += w {
		xs := x[o : o+w : o+w]
		ps := p[o : o+w : o+w]
		rs := r[o : o+w : o+w]
		as := ap[o : o+w : o+w]
		xs[0] += a0 * ps[0]
		r0 := rs[0] + -a0*as[0]
		rs[0] = r0
		s0 += r0 * r0
		xs[1] += a1 * ps[1]
		r1 := rs[1] + -a1*as[1]
		rs[1] = r1
		s1 += r1 * r1
		if w > 2 {
			xs[2] += a2 * ps[2]
			r2 := rs[2] + -a2*as[2]
			rs[2] = r2
			s2 += r2 * r2
			xs[3] += a3 * ps[3]
			r3 := rs[3] + -a3*as[3]
			rs[3] = r3
			s3 += r3 * r3
			if w > 4 {
				xs[4] += a4 * ps[4]
				r4 := rs[4] + -a4*as[4]
				rs[4] = r4
				s4 += r4 * r4
				xs[5] += a5 * ps[5]
				r5 := rs[5] + -a5*as[5]
				rs[5] = r5
				s5 += r5 * r5
				xs[6] += a6 * ps[6]
				r6 := rs[6] + -a6*as[6]
				rs[6] = r6
				s6 += r6 * r6
				xs[7] += a7 * ps[7]
				r7 := rs[7] + -a7*as[7]
				rs[7] = r7
				s7 += r7 * r7
			}
		}
	}
	return perLane{s0, s1, s2, s3, s4, s5, s6, s7}
}

// projectPrecondition subtracts each lane's mean from r and returns the
// lane sums of z = d·r and ‖r‖²: ProjectOutConstant(r), the Jacobi apply,
// Sum(z) and the next iteration's Norm2(r). With m zero it only takes the
// sums, since r − 0 is r. A row is read in two four-lane slices, as in
// updateSum.
func projectPrecondition[L Lanes](r, d []float64, m *perLane) (sz, rr perLane) {
	w := width[L]()
	quad := min(w, 4)
	m0, m1, m2, m3, m4, m5, m6, m7 := m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7]
	var q0, q1, q2, q3, q4, q5, q6, q7 float64
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for i, di := range d {
		o := i * w
		rs := r[o : o+quad : o+quad]
		r0 := rs[0] - m0
		rs[0] = r0
		s0 += float64(di * r0)
		q0 += r0 * r0
		r1 := rs[1] - m1
		rs[1] = r1
		s1 += float64(di * r1)
		q1 += r1 * r1
		if w > 2 {
			r2 := rs[2] - m2
			rs[2] = r2
			s2 += float64(di * r2)
			q2 += r2 * r2
			r3 := rs[3] - m3
			rs[3] = r3
			s3 += float64(di * r3)
			q3 += r3 * r3
		}
		if w > 4 {
			rs := r[o+4 : o+8 : o+8]
			r4 := rs[0] - m4
			rs[0] = r4
			s4 += float64(di * r4)
			q4 += r4 * r4
			r5 := rs[1] - m5
			rs[1] = r5
			s5 += float64(di * r5)
			q5 += r5 * r5
			r6 := rs[2] - m6
			rs[2] = r6
			s6 += float64(di * r6)
			q6 += r6 * r6
			r7 := rs[3] - m7
			rs[3] = r7
			s7 += float64(di * r7)
			q7 += r7 * r7
		}
	}
	return perLane{s0, s1, s2, s3, s4, s5, s6, s7}, perLane{q0, q1, q2, q3, q4, q5, q6, q7}
}

// dotZ returns r·z per lane for z = d·src − m: ProjectOutConstant(z) then
// Dot(r, z), with z recomputed from src.
func dotZ[L Lanes](r, src, d []float64, m *perLane) perLane {
	w := width[L]()
	m0, m1, m2, m3, m4, m5, m6, m7 := m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7]
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for i, di := range d {
		o := i * w
		rs := r[o : o+w : o+w]
		zs := src[o : o+w : o+w]
		s0 += rs[0] * (float64(di*zs[0]) - m0)
		s1 += rs[1] * (float64(di*zs[1]) - m1)
		if w > 2 {
			s2 += rs[2] * (float64(di*zs[2]) - m2)
			s3 += rs[3] * (float64(di*zs[3]) - m3)
			if w > 4 {
				s4 += rs[4] * (float64(di*zs[4]) - m4)
				s5 += rs[5] * (float64(di*zs[5]) - m5)
				s6 += rs[6] * (float64(di*zs[6]) - m6)
				s7 += rs[7] * (float64(di*zs[7]) - m7)
			}
		}
	}
	return perLane{s0, s1, s2, s3, s4, s5, s6, s7}
}

// updateP steps p = z + β·p for z = d·src − m, recomputed from src.
func updateP[L Lanes](p, src, d []float64, m, beta *perLane) {
	w := width[L]()
	m0, m1, m2, m3, m4, m5, m6, m7 := m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7]
	b0, b1, b2, b3, b4, b5, b6, b7 := beta[0], beta[1], beta[2], beta[3], beta[4], beta[5], beta[6], beta[7]
	for i, di := range d {
		o := i * w
		ps := p[o : o+w : o+w]
		zs := src[o : o+w : o+w]
		ps[0] = (float64(di*zs[0]) - m0) + b0*ps[0]
		ps[1] = (float64(di*zs[1]) - m1) + b1*ps[1]
		if w > 2 {
			ps[2] = (float64(di*zs[2]) - m2) + b2*ps[2]
			ps[3] = (float64(di*zs[3]) - m3) + b3*ps[3]
			if w > 4 {
				ps[4] = (float64(di*zs[4]) - m4) + b4*ps[4]
				ps[5] = (float64(di*zs[5]) - m5) + b5*ps[5]
				ps[6] = (float64(di*zs[6]) - m6) + b6*ps[6]
				ps[7] = (float64(di*zs[7]) - m7) + b7*ps[7]
			}
		}
	}
}

// startP sets p = z for z = d·src − m: CG's copy(p, z).
func startP[L Lanes](p, src, d []float64, m *perLane) {
	w := width[L]()
	for i, di := range d {
		o := i * w
		ps := p[o : o+w : o+w]
		zs := src[o : o+w : o+w]
		for c := range ps {
			ps[c] = float64(di*zs[c]) - m[c]
		}
	}
}
