package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"landmarkrd/internal/cancel"
	"landmarkrd/internal/faultinject"
	"landmarkrd/internal/graph"
	"landmarkrd/internal/guard"
	"landmarkrd/internal/lap"
	"landmarkrd/internal/linalg"
	"landmarkrd/internal/obs"
	"landmarkrd/internal/randx"
	"landmarkrd/internal/sketch"
	"landmarkrd/internal/walk"
)

// DiagMode selects how the landmark index builds the diagonal
// r(t, v) = L_v⁻¹[t,t] for all t.
type DiagMode int

const (
	// DiagExactCG solves one grounded system per vertex — O(n) CG solves,
	// exact to solver tolerance. Only sensible for small graphs.
	DiagExactCG DiagMode = iota
	// DiagMC estimates τ(t,t) = E[visits to t of a v-absorbed walk from t]
	// by sampling; cost per vertex is the hitting time h(t, v).
	DiagMC
	// DiagSketch folds r(t,v) out of Spielman-Srivastava sketch rows as
	// they are solved, never holding the sketch; build cost is
	// O(log n / ε²) Laplacian solves total.
	DiagSketch
)

// String implements fmt.Stringer.
func (m DiagMode) String() string {
	switch m {
	case DiagExactCG:
		return "exact-cg"
	case DiagMC:
		return "mc"
	case DiagSketch:
		return "sketch"
	default:
		return fmt.Sprintf("diagmode(%d)", int(m))
	}
}

// IndexOptions configures BuildIndex.
type IndexOptions struct {
	Mode DiagMode
	// WalksPerVertex is the DiagMC sample count (default 64).
	WalksPerVertex int
	// MaxSteps truncates DiagMC walks (default 100·n).
	MaxSteps int
	// SketchEpsilon is the DiagSketch relative-error target (default 0.3).
	SketchEpsilon float64
	// Tol is the DiagExactCG solver tolerance (default lap.ExactTol).
	Tol float64
	// Precond selects the CG preconditioner for the exact diagonal build
	// and all subsequent SingleSource query solves (default PrecondJacobi,
	// the zero value). PrecondAuto resolves to jacobi or chol from the
	// landmark's BFS eccentricity; the resolved mode is recorded in
	// Index.Precond. A chol factor is built once and shared read-only
	// across build workers and pooled query solvers.
	Precond PrecondMode
	// PrecondSeed drives the approximate-Cholesky factorization's internal
	// tie-breaking (0 means the chol package default), keeping the factor
	// deterministic.
	PrecondSeed uint64
	// Workers shards the per-vertex diagonal work across a worker pool
	// (default GOMAXPROCS; 1 forces a sequential build). The Diag array is
	// byte-identical for a fixed seed regardless of the worker count:
	// every vertex draws from its own random stream derived from the root
	// seed, and the CG solves are deterministic per vertex.
	Workers int
	// Metrics, when non-nil, receives an IndexBuilds increment, the build
	// wall time (IndexBuildTime histogram), for DiagMC the walk work
	// counters, merged from the worker-local sinks when the pool joins,
	// and Panics increments for recovered DiagMC or DiagSketch worker
	// panics.
	Metrics *obs.Metrics
}

// Index is the landmark index: the grounded diagonal r(t,v) for all t.
// With it, a single-source query reduces to one grounded column
// computation:
//
//	r(s,t) = L_v⁻¹[s,s] − 2·L_v⁻¹[s,t] + Diag[t].
//
// An Index is safe for concurrent SingleSource queries and must not be
// copied after first use (it recycles solver scratch through a pool).
type Index struct {
	G        *graph.Graph
	Landmark int
	// Diag[t] ≈ r(t, v); Diag[v] = 0.
	Diag []float64
	Mode DiagMode
	// Precond is the resolved preconditioner mode (PrecondAuto is replaced
	// by the mode it picked). Not persisted in snapshots; loaded indices
	// default to Jacobi.
	Precond PrecondMode
	// BuildTime is the wall time BuildIndex took, including preconditioner
	// factorization (not persisted).
	BuildTime time.Duration

	// precond is the shared concrete preconditioner query solvers use; nil
	// means the solver's built-in Jacobi default.
	precond linalg.Preconditioner

	// solvers recycles GroundedSolvers (rhs/x/CG scratch vectors) across
	// SingleSource calls so repeated queries do not allocate per solve.
	solvers sync.Pool
}

// indexWorkers resolves the worker count for an n-vertex build.
func indexWorkers(opts IndexOptions, n int) int {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runIndexWorkers fans build out over workers goroutines. Each worker gets
// a private obs.Metrics sink so the hot loops record without contention;
// the sinks are merged into mergeInto (which may be nil) after the pool
// joins. A panicking worker is isolated: the panic is recovered into a
// *guard.PanicError (matching guard.ErrInternal) carrying the stack, counted
// in the sink's Panics counter, and surfaced as that worker's error instead
// of killing the process. The first worker error wins.
func runIndexWorkers(workers int, mergeInto *obs.Metrics, build func(worker int, local *obs.Metrics) error) error {
	if workers == 1 {
		local := &obs.Metrics{}
		err := guard.Run(func() error { return build(0, local) })
		if errors.Is(err, guard.ErrInternal) {
			local.Panics.Inc()
		}
		mergeInto.Merge(local)
		return err
	}
	locals := make([]*obs.Metrics, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		locals[w] = &obs.Metrics{}
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			errs[worker] = guard.Run(func() error { return build(worker, locals[worker]) })
			if errors.Is(errs[worker], guard.ErrInternal) {
				locals[worker].Panics.Inc()
			}
		}(w)
	}
	wg.Wait()
	for _, local := range locals {
		mergeInto.Merge(local)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// BuildIndex constructs the diagonal index for landmark v. All three diag
// modes shard their per-vertex work across opts.Workers goroutines; see
// IndexOptions.Workers for the determinism guarantee. rng drives the
// randomized modes (DiagMC, DiagSketch) and may be nil for DiagExactCG.
func BuildIndex(g *graph.Graph, landmark int, opts IndexOptions, rng *randx.RNG) (*Index, error) {
	if err := g.ValidateVertex(landmark); err != nil {
		return nil, err
	}
	if err := requireConnected(g); err != nil {
		return nil, err
	}
	start := time.Now()
	workers := indexWorkers(opts, g.N())
	cols, err := sketchColumns(g, []int{landmark}, opts, workers, rng)
	if err != nil {
		return nil, err
	}
	idx, err := buildColumn(g, landmark, opts, workers, cols[0], rng)
	if err != nil {
		return nil, err
	}
	idx.BuildTime = time.Since(start)
	if opts.Metrics != nil {
		opts.Metrics.IndexBuilds.Inc()
		opts.Metrics.IndexBuildTime.Observe(idx.BuildTime.Nanoseconds())
	}
	return idx, nil
}

// sketchColumns returns the DiagSketch column of every landmark, all
// folded out of one streamed sketch solve (sketch.Columns), so the build
// never holds the k×n sketch. The other modes get nil columns, which
// buildColumn fills itself. A worker panic in the solve surfaces as a
// guard.ErrInternal error and is counted in opts.Metrics.Panics.
func sketchColumns(g *graph.Graph, landmarks []int, opts IndexOptions, workers int, rng *randx.RNG) ([][]float64, error) {
	if opts.Mode != DiagSketch {
		return make([][]float64, len(landmarks)), nil
	}
	if rng == nil {
		return nil, fmt.Errorf("core: DiagSketch index build requires an RNG")
	}
	eps := opts.SketchEpsilon
	if eps <= 0 {
		eps = 0.3
	}
	cols, err := sketch.Columns(g, landmarks, sketch.Options{Epsilon: eps, Workers: workers}, rng)
	if err != nil {
		if errors.Is(err, guard.ErrInternal) && opts.Metrics != nil {
			opts.Metrics.Panics.Inc()
		}
		return nil, fmt.Errorf("core: index sketch: %w", err)
	}
	return cols, nil
}

// buildColumn builds the index of one landmark, the single column builder
// behind BuildIndex and BuildPortfolio: it resolves the preconditioner,
// then fills Diag with grounded CG solves (DiagExactCG) or absorbed walks
// drawing from rng (DiagMC), or takes sketchCol, the column sketchColumns
// built (DiagSketch).
func buildColumn(g *graph.Graph, landmark int, opts IndexOptions, workers int, sketchCol []float64, rng *randx.RNG) (*Index, error) {
	diag := sketchCol
	if diag == nil {
		diag = make([]float64, g.N())
	}
	idx := &Index{G: g, Landmark: landmark, Diag: diag, Mode: opts.Mode}
	pc, resolved, err := resolvePrecond(g, landmark, opts.Precond, opts.PrecondSeed, opts.Metrics)
	if err != nil {
		return nil, err
	}
	idx.Precond = resolved
	idx.precond = pc
	switch opts.Mode {
	case DiagExactCG:
		err = buildDiagExact(g, landmark, idx.Diag, opts, workers, pc)
	case DiagMC:
		err = buildDiagMC(g, landmark, idx.Diag, opts, workers, rng)
	case DiagSketch:
		idx.Diag[landmark] = 0
	default:
		err = fmt.Errorf("core: unknown diag mode %d", int(opts.Mode))
	}
	if err != nil {
		return nil, err
	}
	return idx, nil
}

// diagBlockRHS is the number of right-hand sides an exact diagonal build
// advances through one block CG solve. Eight columns amortize the CSR
// traversal well while keeping the per-worker scratch (8 extra vectors per
// CG state) modest.
const diagBlockRHS = 8

// buildDiagExact fills diag[t] = L_v⁻¹[t,t] with grounded CG solves, batched
// diagBlockRHS right-hand sides at a time through a block solver so the CSR
// structure is swept once per iteration instead of once per column, and
// sharded across the worker pool in stride-workers order. Each worker owns a
// GroundedBlockSolver recording into a worker-local sink; the sinks merge
// into the process-wide lap.SolverMetrics when the pool joins. Every
// diagonal entry depends only on (g, landmark, tol, pc) — block columns are
// bit-identical to independent solves — so the Diag array stays
// byte-identical at any worker count. pc, when non-nil, replaces the
// built-in Jacobi preconditioner and is shared read-only across workers.
func buildDiagExact(g *graph.Graph, landmark int, diag []float64, opts IndexOptions, workers int, pc linalg.Preconditioner) error {
	tol := opts.Tol
	if tol <= 0 {
		tol = lap.ExactTol
	}
	n := g.N()
	// Fault hook, fired once per vertex across all workers; nil unless armed.
	fi := faultinject.At(faultinject.SiteIndexBuild)
	return runIndexWorkers(workers, lap.SolverMetrics(), func(worker int, local *obs.Metrics) error {
		solver := lap.NewGroundedBlockSolver(g, landmark, diagBlockRHS)
		solver.Metrics = local
		solver.SetPreconditioner(pc)
		// A pool of solvers already saturates the cores; with a single
		// worker, let the solve's applies row-parallelize instead (the
		// result is bit-identical either way).
		solver.Op.NoParallel = workers > 1
		batch := make([]int, 0, diagBlockRHS)
		flush := func() error {
			if len(batch) == 0 {
				return nil
			}
			xs, _, colErrs, err := solver.SolveUnits(context.Background(), batch, tol)
			if err != nil {
				return fmt.Errorf("core: index diag solve at %d: %w", batch[0], err)
			}
			for c, t := range batch {
				if colErrs[c] != nil {
					return fmt.Errorf("core: index diag solve at %d: %w", t, colErrs[c])
				}
				diag[t] = xs[c][t]
			}
			batch = batch[:0]
			return nil
		}
		for t := worker; t < n; t += workers {
			if t == landmark {
				continue
			}
			if err := fi.Fire(); err != nil {
				return err
			}
			batch = append(batch, t)
			if len(batch) == diagBlockRHS {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return flush()
	})
}

// buildDiagMC fills diag[t] with the absorbed-walk visit estimator,
// sharded across the worker pool; each worker fills its walk lanes with
// one vertex's walks at a time. Walk k from vertex t draws from a stream
// keyed by a root seed drawn once from rng, t and k, so the estimate for t
// is independent of which worker samples it, of the worker count, and of
// which walks share its lanes. Walk work counters accumulate in
// worker-local sinks and merge into opts.Metrics at the end.
func buildDiagMC(g *graph.Graph, landmark int, diag []float64, opts IndexOptions, workers int, rng *randx.RNG) error {
	if rng == nil {
		return fmt.Errorf("core: DiagMC index build requires an RNG")
	}
	walks := opts.WalksPerVertex
	if walks <= 0 {
		walks = 64
	}
	n := g.N()
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 100 * n
		if maxSteps < 100000 {
			maxSteps = 100000
		}
	}
	root := rng.Uint64()
	// Fault hook, fired once per vertex across all workers; nil unless armed.
	fi := faultinject.At(faultinject.SiteIndexBuild)
	return runIndexWorkers(workers, opts.Metrics, func(worker int, local *obs.Metrics) error {
		var fired error // an injected fault, which ends the worker's share
		t := worker
		next := func() walk.Job {
			for ; t < n && fired == nil; t += workers {
				if t == landmark {
					continue
				}
				if fired = fi.Fire(); fired != nil {
					return nil
				}
				j := &diagMCJob{
					t: t, landmark: landmark, walks: walks, maxSteps: maxSteps, deg: g.WeightedDegree(t),
					key: randx.Derive(root, uint64(t)), diag: diag, metrics: local,
				}
				t += workers
				return j
			}
			return nil
		}
		// A background context never cancels, so RunJobs cannot fail.
		_ = walk.NewSampler(g).RunJobs(context.Background(), next)
		return fired
	})
}

// diagMCJob is one vertex t of a DiagMC build as a walk.Job: walks absorbed
// walks from t to the landmark, counting visits to t, walk k on the stream
// keyed by (key, k). Once its walks are over it writes diag[t] and its
// work counters.
type diagMCJob struct {
	t, landmark, walks, maxSteps int
	deg                          float64 // t's weighted degree
	key                          uint64
	begun                        int
	visits, steps, truncated     int64
	diag                         []float64
	metrics                      *obs.Metrics
}

func (j *diagMCJob) Next(rng *randx.RNG) (walk.Walk, bool) {
	if j.begun == j.walks {
		return walk.Walk{}, false
	}
	rng.Seed(randx.Derive(j.key, uint64(j.begun)))
	j.begun++
	return walk.Walk{Src: j.t, V: j.landmark, A: j.t, B: -1, MaxSteps: j.maxSteps}, true
}

func (j *diagMCJob) Done(_, nt, _, steps int, absorbed bool) {
	j.visits += int64(nt)
	j.steps += int64(steps)
	if !absorbed {
		j.truncated++
	}
}

func (j *diagMCJob) Over() {
	j.metrics.Walks.Add(int64(j.walks))
	j.metrics.WalkSteps.Add(j.steps)
	j.metrics.TruncatedWalks.Add(j.truncated)
	j.diag[j.t] = float64(j.visits) / (float64(j.walks) * j.deg)
}

// MemoryBytes reports the index footprint.
func (idx *Index) MemoryBytes() int64 { return int64(len(idx.Diag)) * 8 }

// acquireSolver returns a pooled grounded solver bound to the index
// landmark, creating one on a pool miss. New solvers inherit the index's
// resolved preconditioner (shared read-only; nil keeps the Jacobi default).
func (idx *Index) acquireSolver() *lap.GroundedSolver {
	if v := idx.solvers.Get(); v != nil {
		return v.(*lap.GroundedSolver)
	}
	s := lap.NewGroundedSolver(idx.G, idx.Landmark)
	s.SetPreconditioner(idx.precond)
	return s
}

// SingleSourceOptions configures single-source queries against an index.
type SingleSourceOptions struct {
	// UsePush selects the local push column computation instead of a CG
	// solve. Push is faster when the source is close to the landmark but
	// only lower-bounds the column.
	UsePush bool
	// PushTheta is the push residual threshold (default 1e-5).
	PushTheta float64
	// Tol is the CG tolerance (default 1e-8).
	Tol float64
	// MaxOps bounds the push.
	MaxOps int64
}

// SingleSource computes r(s, t) for every t, using one grounded column from
// s plus the index diagonal. The entry for t == s is 0 and for
// t == landmark it is L_v⁻¹[s,s].
func (idx *Index) SingleSource(s int, opts SingleSourceOptions) ([]float64, error) {
	return idx.SingleSourceContext(context.Background(), s, opts)
}

// SingleSourceContext is SingleSource with cancellation: the grounded
// column computation (CG solve or push) polls ctx and aborts with a
// cancel.Error once the context is done. With a non-cancellable ctx the
// result is byte-identical to SingleSource.
func (idx *Index) SingleSourceContext(ctx context.Context, s int, opts SingleSourceOptions) ([]float64, error) {
	g := idx.G
	v := idx.Landmark
	if err := g.ValidateVertex(s); err != nil {
		return nil, err
	}
	if err := cancel.Check(ctx); err != nil {
		return nil, err
	}
	if s == v {
		// r(v, t) = Diag[t] by definition of the index.
		out := make([]float64, g.N())
		copy(out, idx.Diag)
		return out, nil
	}
	// col[t] = L_v⁻¹[s,t].
	var col []float64
	if opts.UsePush {
		theta := opts.PushTheta
		if theta <= 0 {
			theta = 1e-5
		}
		p, err := NewPusher(g, v)
		if err != nil {
			return nil, err
		}
		if _, err := p.RunContext(ctx, s, PushOptions{Theta: theta, MaxOps: opts.MaxOps}); err != nil {
			return nil, err
		}
		col = make([]float64, g.N())
		for _, u := range p.TouchedVertices() {
			col[u] = p.GroundedEntry(int(u))
		}
	} else {
		tol := opts.Tol
		if tol <= 0 {
			tol = 1e-8
		}
		solver := idx.acquireSolver()
		defer idx.solvers.Put(solver)
		x, _, err := solver.SolveUnitContext(ctx, s, tol)
		if err != nil {
			if errors.Is(err, cancel.ErrCanceled) {
				return nil, err
			}
			return nil, fmt.Errorf("core: single-source column solve: %w", err)
		}
		col = x // solver-owned; read only until the deferred Put
	}
	out := make([]float64, g.N())
	lss := col[s]
	for t := range out {
		switch t {
		case s:
			out[t] = 0
		case v:
			out[t] = lss
		default:
			r := lss - 2*col[t] + idx.Diag[t]
			if r < 0 {
				r = 0 // clamp sampling noise on near-zero distances
			}
			out[t] = r
		}
	}
	return out, nil
}
