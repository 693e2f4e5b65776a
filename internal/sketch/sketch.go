// Package sketch implements the Spielman-Srivastava effective-resistance
// sketch: a k x n matrix Z ≈ Q W^{1/2} B L† (Q a random Johnson-
// Lindenstrauss projection, B the edge-vertex incidence matrix) such that
//
//	r(s,t) ≈ ‖Z(e_s − e_t)‖₂² = Σᵢ (Zᵢ[s] − Zᵢ[t])²
//
// for every pair simultaneously, with relative error 1±ε when
// k = O(log n / ε²). Building the sketch costs k preconditioned-CG
// Laplacian solves; queries cost O(k).
//
// The rows are solved blockRows at a time through one linalg.BlockCG over
// lap.Laplacian.ApplyBlock, and every solved block is handed on in row
// order. Build keeps the rows: it is the "sketch/index"-style baseline of
// the experiment grid and the public all-pairs sketch. Columns folds each
// block into the K landmark columns r(·, ℓ) of the landmark index as soon
// as it is solved, so an index build holds at most workers·blockRows rows,
// never the k x n sketch; each column entry sums its rows in the order
// Sketch.ResistancesInto does, so the columns are bit-for-bit those of the
// built sketch.
package sketch

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"landmarkrd/internal/faultinject"
	"landmarkrd/internal/graph"
	"landmarkrd/internal/guard"
	"landmarkrd/internal/lap"
	"landmarkrd/internal/linalg"
	"landmarkrd/internal/randx"
)

// Sketch holds the k x n sketch matrix, stored row-major.
type Sketch struct {
	g    *graph.Graph
	k    int
	rows [][]float64
}

// Options configures sketch construction.
type Options struct {
	// Epsilon is the target relative error; used to derive K when K == 0.
	Epsilon float64
	// K overrides the number of rows directly (0 = derive from Epsilon).
	K int
	// Tol is the CG tolerance for the Laplacian solves (default 1e-8).
	Tol float64
	// Workers parallelizes the row-block solves (default GOMAXPROCS; 1
	// forces sequential construction). The result is deterministic in the
	// seed regardless of worker count: each row gets its own derived RNG.
	Workers int
}

// blockRows is the number of sketch rows one BlockCG solve advances
// together. Like the exact index build's diagBlockRHS, eight columns
// amortize the CSR sweep well while keeping a worker's scratch (eight
// right-hand sides, solutions and CG states) small.
const blockRows = 8

// RowsFor returns the standard JL row count ⌈c·ln n / ε²⌉ for the given
// parameters (c = 8, a practical constant rather than the worst-case one).
func RowsFor(n int, eps float64) int {
	if eps <= 0 {
		eps = 0.5
	}
	k := int(math.Ceil(8 * math.Log(float64(n)) / (eps * eps)))
	if k < 4 {
		k = 4
	}
	return k
}

// rowCount validates g and returns the row count opts asks for.
func rowCount(g *graph.Graph, opts Options) (int, error) {
	if g.N() < 2 {
		return 0, fmt.Errorf("sketch: need n >= 2, got %d", g.N())
	}
	if !g.IsConnected() {
		return 0, graph.ErrNotConnected
	}
	if opts.K > 0 {
		return opts.K, nil
	}
	return RowsFor(g.N(), opts.Epsilon), nil
}

// Build constructs the sketch for g.
func Build(g *graph.Graph, opts Options, rng *randx.RNG) (*Sketch, error) {
	k, err := rowCount(g, opts)
	if err != nil {
		return nil, err
	}
	s := &Sketch{g: g, k: k, rows: make([][]float64, k)}
	err = solveRows(g, k, opts, rng, nil, func(first int, rows [][]float64) {
		for c, row := range rows {
			s.rows[first+c] = slices.Clone(row)
		}
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Columns returns, for every landmark ℓ_j, the sketched r(t, ℓ_j) for all
// t: bit-for-bit what ResistancesFrom(ℓ_j) returns on the sketch Build
// makes from the same graph, options and RNG state, without ever holding
// that sketch. Each solved block of rows is folded into the columns as
// soon as its turn in row order comes, so the build holds the K columns
// plus at most workers·blockRows rows. It is the DiagSketch column builder
// of the landmark index, and the index-build fault site fires once per row.
func Columns(g *graph.Graph, landmarks []int, opts Options, rng *randx.RNG) ([][]float64, error) {
	k, err := rowCount(g, opts)
	if err != nil {
		return nil, err
	}
	cols := make([][]float64, len(landmarks))
	for j, v := range landmarks {
		if err := g.ValidateVertex(v); err != nil {
			return nil, err
		}
		cols[j] = make([]float64, g.N())
	}
	err = solveRows(g, k, opts, rng, faultinject.At(faultinject.SiteIndexBuild), func(_ int, rows [][]float64) {
		for _, row := range rows {
			for j, v := range landmarks {
				foldRow(cols[j], row, v)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return cols, nil
}

// solveRows solves the k sketch rows Zᵢ = L† Bᵀ W^{1/2} qᵢ / √k and hands
// them to sink in row order: sink(first, rows) receives rows first,
// first+1, … and may read them only during the call. Rows are solved
// blockRows at a time, one BlockCG per block, by a pool of workers that
// claim blocks in order; a worker whose block is solved before its turn
// waits for it, so at most workers·blockRows rows are held at once, and
// sink is never called concurrently. fi, when armed, fires once per row.
//
// Every row is bit-for-bit the linalg.CG solve with ProjectConstant from a
// zero start: BlockCG runs each column's CG recurrence exactly, with the
// projections at CG's points, Laplacian.ApplyBlock matches Apply per
// column, and the Jacobi preconditioner — built once here — holds the
// inverse degrees CG's default would build per row. Each row's RNG is split
// off rng up front, in row order, so the rows do not depend on the worker
// count or the schedule. A worker panic is recovered into a guard error.
func solveRows(g *graph.Graph, k int, opts Options, rng *randx.RNG, fi *faultinject.Hook, sink func(first int, rows [][]float64)) error {
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-8
	}
	n := g.N()
	scale := 1 / math.Sqrt(float64(k))
	rowRNGs := make([]*randx.RNG, k)
	for i := range rowRNGs {
		rowRNGs[i] = rng.Split()
	}
	blocks := (k + blockRows - 1) / blockRows
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, blocks)
	// With several blocks in flight the pool already saturates the cores;
	// keep each block's Laplacian applies on its own goroutine.
	op := &lap.Laplacian{G: g, NoParallel: workers > 1}
	var precond linalg.Preconditioner = linalg.IdentityPreconditioner{}
	if jac, err := linalg.NewJacobiFromDiagonal(op.Diagonal()); err == nil {
		precond = jac
	}

	var (
		claimed atomic.Int64 // blocks claimed so far
		failed  atomic.Bool
		mu      sync.Mutex
		turn    = sync.NewCond(&mu)
		folded  int // blocks handed to sink so far; guarded by mu
	)
	solveBlocks := func() error {
		rhs := make([][]float64, blockRows)
		x := make([][]float64, blockRows)
		for c := range rhs {
			rhs[c] = make([]float64, n)
			x[c] = make([]float64, n)
		}
		var work linalg.BlockCGWorkspace
		for !failed.Load() {
			b := int(claimed.Add(1) - 1)
			if b >= blocks {
				return nil
			}
			first := b * blockRows
			rows := min(blockRows, k-first)
			for c := 0; c < rows; c++ {
				if err := fi.Fire(); err != nil {
					return err
				}
				rowRHS(g, rhs[c], rowRNGs[first+c], scale)
				linalg.Zero(x[c])
			}
			_, colErrs, err := linalg.BlockCG(op, x[:rows], rhs[:rows], linalg.BlockCGOptions{
				Tol: tol, Precond: precond, ProjectConstant: true, Work: &work,
			})
			if err != nil {
				return fmt.Errorf("sketch: rows %d-%d solve: %w", first, first+rows-1, err)
			}
			for c, err := range colErrs {
				if err != nil {
					return fmt.Errorf("sketch: row %d solve: %w", first+c, err)
				}
			}
			mu.Lock()
			for folded != b && !failed.Load() {
				turn.Wait()
			}
			mu.Unlock()
			if failed.Load() {
				return nil
			}
			sink(first, x[:rows])
			mu.Lock()
			folded++
			turn.Broadcast()
			mu.Unlock()
		}
		return nil
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[w] = guard.Run(solveBlocks); errs[w] != nil {
				failed.Store(true)
				mu.Lock()
				turn.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rowRHS writes b = Bᵀ W^{1/2} q / √k for a Rademacher edge vector q drawn
// from rng: each edge {u,v} contributes ±√w·scale to u and ∓√w·scale to v.
// The edges come in ForEachEdge order, one draw each, and the draw's low
// bit flips the sign bit of √w·scale, which is rng.Rademacher()·√w·scale
// exactly.
func rowRHS(g *graph.Graph, b []float64, rng *randx.RNG, scale float64) {
	linalg.Zero(b)
	offsets, adj, w := g.RawCSR()
	for u := range b {
		for j := offsets[u]; j < offsets[u+1]; j++ {
			v := adj[j]
			if v <= int32(u) {
				continue
			}
			m := scale
			if w != nil {
				m = math.Sqrt(w[j]) * scale
			}
			sgn := math.Float64frombits(math.Float64bits(m) ^ (rng.Uint64()&1)<<63)
			b[u] += sgn
			b[v] -= sgn
		}
	}
	// b ⊥ 1 by construction, but project to be safe against rounding.
	linalg.ProjectOutConstant(b)
}

// K returns the number of sketch rows.
func (s *Sketch) K() int { return s.k }

// Resistance returns the sketched estimate of r(u, v).
func (s *Sketch) Resistance(u, v int) (float64, error) {
	if err := s.g.ValidateVertex(u); err != nil {
		return 0, err
	}
	if err := s.g.ValidateVertex(v); err != nil {
		return 0, err
	}
	if u == v {
		return 0, nil
	}
	var sum float64
	for _, row := range s.rows {
		d := row[u] - row[v]
		sum += d * d
	}
	return sum, nil
}

// ResistancesFrom returns the sketched r(src, t) for every t, in O(kn).
func (s *Sketch) ResistancesFrom(src int) ([]float64, error) {
	out := make([]float64, s.g.N())
	if err := s.ResistancesInto(out, src); err != nil {
		return nil, err
	}
	return out, nil
}

// ResistancesInto fills dst (length N) with the sketched r(src, t) for
// every t, letting callers that already own a destination buffer avoid the
// extra allocation ResistancesFrom pays.
func (s *Sketch) ResistancesInto(dst []float64, src int) error {
	if err := s.g.ValidateVertex(src); err != nil {
		return err
	}
	if len(dst) != s.g.N() {
		return fmt.Errorf("sketch: destination length %d, graph has n=%d", len(dst), s.g.N())
	}
	linalg.Zero(dst)
	for _, row := range s.rows {
		foldRow(dst, row, src)
	}
	return nil
}

// foldRow adds one row's term (row[src] − row[t])² to dst[t] for every t.
// Folding the rows in row order is the whole of ResistancesInto, and of
// every column Columns builds.
func foldRow(dst, row []float64, src int) {
	rs := row[src]
	for t, rt := range row {
		d := rs - rt
		dst[t] += d * d
	}
}

// MemoryBytes reports the approximate storage of the sketch.
func (s *Sketch) MemoryBytes() int64 {
	return int64(s.k) * int64(s.g.N()) * 8
}
