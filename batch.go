package landmarkrd

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"landmarkrd/internal/cancel"
	"landmarkrd/internal/core"
	"landmarkrd/internal/elim"
	"landmarkrd/internal/faultinject"
	"landmarkrd/internal/guard"
	"landmarkrd/internal/lap"
	"landmarkrd/internal/obs"
	"landmarkrd/internal/randx"
	"landmarkrd/internal/retry"
	"landmarkrd/internal/walk"
)

// PairQuery is one (s, t) query in a batch.
type PairQuery struct {
	S, T int
}

// PairResult is the outcome of one batch query, in input order.
type PairResult struct {
	PairQuery
	Estimate Estimate
	Err      error
	// Degraded marks an answer produced by the low-cost fallback tier
	// (deadline pressure or explicit load shedding). A degraded estimate
	// carries a conservative absolute error bound in Estimate.ErrBound.
	Degraded bool
	// Attempts is how many times the query ran: 1 normally, more when
	// transient failures were retried.
	Attempts int
}

// ConflictPolicy selects how batch queries touching the landmark are
// answered.
type ConflictPolicy int

const (
	// ConflictExact answers landmark-touching queries with the exact CG
	// solver. This is the zero value: a zero BatchOptions never fails a
	// query just because it happened to hit the landmark.
	ConflictExact ConflictPolicy = iota
	// ConflictError fails the individual query with ErrLandmarkConflict
	// (reported in its PairResult.Err; the batch itself still succeeds).
	ConflictError
)

// String implements fmt.Stringer.
func (p ConflictPolicy) String() string {
	switch p {
	case ConflictExact:
		return "exact"
	case ConflictError:
		return "error"
	default:
		return fmt.Sprintf("conflictpolicy(%d)", int(p))
	}
}

// BatchOptions configures Pairs and NewBatchEngine. The zero value is
// usable: landmark selected by strategy, GOMAXPROCS workers, and
// landmark-touching queries answered exactly.
type BatchOptions struct {
	// Options configures each worker's estimator.
	Options Options
	// Workers is the number of parallel workers (default GOMAXPROCS).
	// Worker w handles queries w, w+Workers, w+2·Workers, ..., keeping up
	// to four of them in flight: their pushes run one after another, and
	// their walks advance in lockstep on the worker's core, which overlaps
	// the memory reads of independent walks. Every query draws from its own
	// random stream derived from Options.Seed and the query position, so
	// batch results are byte-identical at any worker count and whichever
	// queries share a worker's lanes.
	Workers int
	// Landmark pins the landmark vertex when PinLandmark is true (0 is a
	// valid vertex, hence the explicit flag). Setting Landmark to a
	// nonzero vertex while leaving PinLandmark false is rejected with an
	// error rather than silently ignored.
	Landmark    int
	PinLandmark bool
	// Portfolio routes every query through a K-landmark portfolio built on
	// the same graph: each query tries landmarks in ascending cost-law
	// order (PortfolioIndex.Route), skipping any that collide with an
	// endpoint, so landmark-conflict fallbacks to the exact solver only
	// happen when every member conflicts. Mutually exclusive with
	// PinLandmark. The engine keeps one estimator pool per landmark;
	// results stay byte-identical across worker counts.
	Portfolio *PortfolioIndex
	// OnConflict selects how queries touching the landmark are answered.
	// The zero value, ConflictExact, falls back to the exact solver.
	OnConflict ConflictPolicy
	// Metrics, when non-nil, is the shared observability sink for the
	// batch: every worker estimator and every exact solve records into
	// it, and the engine counts estimator builds, exact fallbacks and
	// planned exact answers there. When nil the engine allocates its own
	// (readable via BatchEngine.Stats).
	Metrics *Metrics
	// MaxAttempts is the per-query attempt budget for transient failures
	// (default 1 = no retries). The first attempt draws from exactly the
	// stream the no-retry path uses, so enabling retries cannot change the
	// answer of a query that succeeds first try; retried attempts resample
	// from a salted stream, with jittered exponential backoff between them
	// (counted in Stats().Retries).
	MaxAttempts int
	// Retriable classifies an error as transient, i.e. worth another
	// attempt. When nil, only injected test faults are considered
	// transient; cancellation and validation errors are never retried
	// regardless.
	Retriable func(error) bool
	// DegradeBelow enables deadline-aware degradation: a query that starts
	// with less than this much context deadline remaining is answered by
	// the degraded Monte Carlo tier — a low-walk absorbed-walk estimate
	// with a conservative error bound — and marked Degraded, instead of
	// starting exact/CG work it cannot finish. Zero disables the check. An
	// engine whose Plan is exact answers such queries exactly, as in
	// DegradedPairsContext.
	DegradeBelow time.Duration
	// DegradedWalks is the degraded tier's per-endpoint walk budget
	// (default 128).
	DegradedWalks int
}

// BatchEngine answers repeated batches of resistance queries over one
// graph. Construction does the per-graph work once — landmark selection
// (which may rank vertices by an expensive strategy), validation — and
// free lists recycle per-worker estimators with their O(n) scratch buffers
// across Pairs calls, so a steady stream of batches pays for estimator
// construction only when a list runs dry. The shared Metrics sink proves
// the amortization: Stats().EstimatorBuilds stays flat across repeated
// calls while Queries grows.
//
// The engine is safe for concurrent use; individual pooled estimators are
// not shared between in-flight workers.
type BatchEngine struct {
	g         *Graph
	method    Method // the walk path's estimator (Auto resolves to BiPush)
	plan      Plan
	opts      BatchOptions
	landmark  int
	portfolio *PortfolioIndex
	seed      uint64
	sampler   *walk.Sampler // the workers' walk lanes step through it
	// idle[j] holds idle estimators for portfolio position j; without a
	// portfolio there is a single list at position 0.
	idle    []freeList[*Estimator]
	degIdle freeList[*core.AbWalkEstimator] // degraded-tier AbWalk estimators
	metrics *Metrics
}

// freeList is a stack of idle estimators guarded by a mutex. Unlike a
// sync.Pool it has no per-processor caches and is never emptied by the
// garbage collector, so how many estimators a sequence of batches builds
// depends only on how many workers each batch runs, not on scheduling.
// It needs no bound: it never holds more estimators than were checked out
// at once, and the caller's admission control already limits that.
type freeList[T any] struct {
	mu    sync.Mutex
	items []T
}

func (f *freeList[T]) get() (x T, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.items)
	if n == 0 {
		return x, false
	}
	x = f.items[n-1]
	var zero T
	f.items[n-1] = zero
	f.items = f.items[:n-1]
	return x, true
}

func (f *freeList[T]) put(x T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.items = append(f.items, x)
}

// NewBatchEngine validates opts, selects the landmark, and prepares the
// shared immutable state every pooled estimator reads. With Auto it also
// runs the method planner's pilot and fixes the engine's Plan.
func NewBatchEngine(g *Graph, m Method, opts BatchOptions) (*BatchEngine, error) {
	if err := requireGraph(g); err != nil {
		return nil, err
	}
	if opts.Landmark != 0 && !opts.PinLandmark {
		return nil, fmt.Errorf("landmarkrd: BatchOptions.Landmark = %d without PinLandmark; set PinLandmark (or leave Landmark zero to select by strategy)", opts.Landmark)
	}
	seed := opts.Options.Seed
	if seed == 0 {
		seed = 1
	}
	landmark := -1
	pools := 1
	switch {
	case opts.Portfolio != nil:
		if opts.PinLandmark {
			return nil, fmt.Errorf("landmarkrd: BatchOptions.Portfolio and PinLandmark are mutually exclusive")
		}
		if opts.Portfolio.G != g {
			return nil, fmt.Errorf("landmarkrd: BatchOptions.Portfolio was built on a different graph")
		}
		landmark = opts.Portfolio.Primary()
		pools = opts.Portfolio.K()
	case opts.PinLandmark:
		landmark = opts.Landmark
		if err := g.ValidateVertex(landmark); err != nil {
			return nil, fmt.Errorf("landmarkrd: batch landmark: %w", err)
		}
	default:
		v, err := SelectLandmark(g, opts.Options.Strategy, seed)
		if err != nil {
			return nil, err
		}
		landmark = v
	}
	metrics := opts.Metrics
	if metrics == nil {
		metrics = &Metrics{}
	}
	e := &BatchEngine{
		g:         g,
		method:    m,
		plan:      Plan{Path: m.String()},
		opts:      opts,
		landmark:  landmark,
		portfolio: opts.Portfolio,
		seed:      seed,
		sampler:   walk.NewSampler(g),
		idle:      make([]freeList[*Estimator], pools),
		metrics:   metrics,
	}
	if m == Auto {
		e.method = BiPush
		if err := e.planAuto(); err != nil {
			return nil, fmt.Errorf("landmarkrd: method planner pilot: %w", err)
		}
	}
	return e, nil
}

// Landmark returns the landmark vertex every batch query uses; with a
// portfolio it is the primary (first-selected) landmark, and individual
// queries may route elsewhere.
func (e *BatchEngine) Landmark() int { return e.landmark }

// Graph returns the graph the engine was built on.
func (e *BatchEngine) Graph() *Graph { return e.g }

// Portfolio returns the portfolio the engine routes through, or nil.
func (e *BatchEngine) Portfolio() *PortfolioIndex { return e.portfolio }

// Stats snapshots the engine's shared metrics: queries, push ops, walk
// steps, estimator builds (pool misses), exact fallbacks, planned exact
// answers, CG solves, and latency/work histograms aggregated over every
// worker.
func (e *BatchEngine) Stats() Stats { return e.metrics.Snapshot() }

// Plan returns how the engine answers pairs: the pinned method, or the
// path the Auto pilot chose with the pilot's modelled work.
func (e *BatchEngine) Plan() Plan { return e.plan }

// landmarkAt returns the landmark vertex of portfolio position j (always
// the engine landmark without a portfolio).
func (e *BatchEngine) landmarkAt(j int) int {
	if e.portfolio != nil {
		return e.portfolio.Landmarks[j]
	}
	return e.landmark
}

// acquire returns an idle estimator for portfolio position j or builds
// one when the free list is empty.
func (e *BatchEngine) acquire(j int) (*Estimator, error) {
	if est, ok := e.idle[j].get(); ok {
		return est, nil
	}
	est, err := NewEstimatorAt(e.g, e.method, e.landmarkAt(j), e.opts.Options)
	if err != nil {
		return nil, err
	}
	est.SetMetrics(e.metrics)
	e.metrics.EstimatorBuilds.Inc()
	return est, nil
}

// acquireDegraded returns an idle degraded-tier estimator (a low-walk
// AbWalk sampler) or builds one when the free list is empty.
func (e *BatchEngine) acquireDegraded() (*core.AbWalkEstimator, error) {
	if deg, ok := e.degIdle.get(); ok {
		return deg, nil
	}
	walks := e.opts.DegradedWalks
	if walks <= 0 {
		walks = 128
	}
	deg, err := core.NewAbWalkEstimator(e.g, e.landmark, core.AbWalkOptions{
		Walks:    walks,
		MaxSteps: e.opts.Options.MaxSteps,
	}, randx.New(e.seed))
	if err != nil {
		return nil, err
	}
	deg.SetMetrics(e.metrics)
	e.metrics.EstimatorBuilds.Inc()
	return deg, nil
}

// defaultRetriable is the transient-error classification used when
// BatchOptions.Retriable is nil: only injected test faults qualify.
func defaultRetriable(err error) bool { return errors.Is(err, faultinject.ErrInjected) }

// fatalError marks an error that must fail the whole batch (estimator
// construction failure, mid-query cancellation), as opposed to a per-query
// error recorded in that query's PairResult.
type fatalError struct{ error }

func (f fatalError) Unwrap() error { return f.error }

// batchWorker holds one worker's estimators for the length of a batch,
// with panic-poisoning: an estimator that panicked mid-query may hold
// arbitrarily corrupt internal state, so it is dropped on the floor instead
// of being returned to its free list, and the next query acquires a fresh
// one. It also tracks the queries the worker has in its walk lanes.
type batchWorker struct {
	e        *BatchEngine
	ests     []*Estimator          // one slot per portfolio position (one without)
	deg      *core.AbWalkEstimator // degraded tier, acquired on first use
	inflight []*laneQuery          // queries whose first attempt is walking
	fatal    error                 // a batch-fatal error; the worker stops
}

// estimator returns the worker's estimator for portfolio position j,
// acquiring one if needed.
func (w *batchWorker) estimator(j int) (*Estimator, error) {
	if w.ests == nil {
		w.ests = make([]*Estimator, len(w.e.idle))
	}
	if w.ests[j] == nil {
		est, err := w.e.acquire(j)
		if err != nil {
			return nil, err
		}
		w.ests[j] = est
	}
	return w.ests[j], nil
}

// degraded returns the worker's degraded-tier estimator, acquiring one if
// needed.
func (w *batchWorker) degraded() (*core.AbWalkEstimator, error) {
	if w.deg == nil {
		deg, err := w.e.acquireDegraded()
		if err != nil {
			return nil, err
		}
		w.deg = deg
	}
	return w.deg, nil
}

// poison discards the estimator a panicking attempt ran on instead of
// returning it to its list, unless the worker has replaced it already.
func (w *batchWorker) poison(a *attempt) {
	switch {
	case a.pos < 0 && w.deg == a.deg:
		w.deg = nil
	case a.pos >= 0 && w.ests != nil && w.ests[a.pos] == a.est:
		w.ests[a.pos] = nil
	}
}

// close returns the healthy estimators to their free lists.
func (w *batchWorker) close() {
	for j, est := range w.ests {
		if est != nil {
			w.e.idle[j].put(est)
			w.ests[j] = nil
		}
	}
	if w.deg != nil {
		w.e.degIdle.put(w.deg)
		w.deg = nil
	}
}

// attempt is one attempt of a batch query between its phases (see
// core.PairJob): begun on one of the worker's estimators, its walks still
// to run.
type attempt struct {
	job core.PairJob
	pos int                   // portfolio position; −1 on the degraded tier
	est *Estimator            // the estimator it began on (pos ≥ 0)
	deg *core.AbWalkEstimator // the degraded-tier estimator (pos < 0)
}

// beginAttempt fires the per-attempt fault hook and begins one attempt of
// query q with the given seed: on the degraded tier when degrade is set,
// else routed (beginRouted).
func (e *BatchEngine) beginAttempt(ctx context.Context, w *batchWorker, fi *faultinject.Hook, q PairQuery, seed uint64, degrade bool) (*attempt, error) {
	// Guard the fire itself: an injected panic at this site must surface as
	// ErrInternal, not kill the worker goroutine.
	if ferr := guard.Run(fi.Fire); ferr != nil {
		if errors.Is(ferr, guard.ErrInternal) {
			e.metrics.Panics.Inc()
		}
		return nil, ferr
	}
	if degrade {
		return e.beginDegraded(ctx, w, q, seed)
	}
	return e.beginRouted(ctx, w, q, seed)
}

// beginRouted begins a full-fidelity attempt. With a portfolio it routes
// the query to the cheapest landmark and falls back across the members on
// conflict; without one it always uses the engine landmark.
func (e *BatchEngine) beginRouted(ctx context.Context, w *batchWorker, q PairQuery, seed uint64) (*attempt, error) {
	p := e.portfolio
	if p == nil {
		return e.beginAt(ctx, w, 0, q, seed)
	}
	// Route indexes the landmark columns by s and t.
	if err := e.g.ValidateVertex(q.S); err != nil {
		return nil, err
	}
	if err := e.g.ValidateVertex(q.T); err != nil {
		return nil, err
	}
	for _, j := range p.Route(q.S, q.T) {
		if v := p.Landmarks[j]; v == q.S || v == q.T {
			p.NoteFallback()
			e.metrics.RouterFallbacks.Inc()
			continue
		}
		a, err := e.beginAt(ctx, w, j, q, seed)
		if errors.Is(err, ErrLandmarkConflict) {
			p.NoteFallback()
			e.metrics.RouterFallbacks.Inc()
			continue
		}
		return a, err
	}
	// Every member collided with s or t; let the OnConflict policy decide
	// (ConflictExact answers with the exact solver).
	return nil, fmt.Errorf("landmarkrd: every portfolio landmark conflicts with query (%d,%d): %w", q.S, q.T, ErrLandmarkConflict)
}

// beginAt begins an attempt of query q on portfolio position j's
// estimator, recovering a panic into a typed internal error.
func (e *BatchEngine) beginAt(ctx context.Context, w *batchWorker, j int, q PairQuery, seed uint64) (*attempt, error) {
	est, err := w.estimator(j)
	if err != nil {
		return nil, fatalError{err}
	}
	// Per-query streams keep the answer to query i a pure function of
	// (seed, i) — independent of which worker ran it, of the worker count,
	// and of the queries sharing its walk lanes.
	est.Reseed(seed)
	a := &attempt{pos: j, est: est}
	err = guard.Run(func() error {
		var perr error
		a.job, perr = est.startPair(ctx, q.S, q.T)
		return perr
	})
	if err != nil {
		return nil, e.failed(w, a, err)
	}
	return a, nil
}

// beginDegraded begins a degraded-tier attempt: a low-walk Monte Carlo
// estimate whose ErrBound end sets to four CI half-widths plus a
// truncation allowance — conservative enough that the true resistance lies
// within Value ± ErrBound with overwhelming probability.
func (e *BatchEngine) beginDegraded(ctx context.Context, w *batchWorker, q PairQuery, seed uint64) (*attempt, error) {
	deg, err := w.degraded()
	if err != nil {
		return nil, fatalError{err}
	}
	a := &attempt{pos: -1, deg: deg}
	err = guard.Run(func() error {
		deg.Reseed(randx.New(seed ^ 0xabcdef))
		var derr error
		a.job, derr = deg.StartPairWithCI(ctx, q.S, q.T)
		return derr
	})
	if err != nil {
		return nil, e.failed(w, a, err)
	}
	return a, nil
}

// failed returns attempt a's error. A recovered panic poisons the
// estimator a ran on and counts in Panics.
func (e *BatchEngine) failed(w *batchWorker, a *attempt, err error) error {
	if errors.Is(err, guard.ErrInternal) {
		w.poison(a)
		e.metrics.Panics.Inc()
	}
	return err
}

// end finishes attempt a once its walks are over: runErr is the walks'
// error (a cancellation, or a panic recovered from them). A panic poisons
// the attempt's estimator (see failed).
func (e *BatchEngine) end(w *batchWorker, a *attempt, runErr error) (Estimate, error) {
	var res Estimate
	err := runErr
	if !errors.Is(err, guard.ErrInternal) {
		err = guard.Run(func() error {
			var ferr error
			res, ferr = a.job.Finish(runErr)
			return ferr
		})
	}
	if err != nil {
		return Estimate{}, e.failed(w, a, err)
	}
	if a.pos < 0 {
		res.ErrBound = 4 * a.job.(core.CIJob).HalfWidth()
		if res.Walks > 0 && res.LandmarkHits < res.Walks {
			// Truncated walks bias the estimate low by at most their share
			// of the total mass; widen the bound by that fraction of the
			// value.
			res.ErrBound += res.Value * float64(res.Walks-res.LandmarkHits) / float64(res.Walks)
		}
	} else if e.portfolio != nil {
		e.portfolio.NoteRouted(a.pos)
		e.metrics.PortfolioQueries.Inc()
	}
	return res, nil
}

// querySeed is the stream seed of query i's first attempt.
func (e *BatchEngine) querySeed(i int) uint64 { return e.seed + uint64(i+1)*0x9e3779b97f4a7c15 }

// laneQuery is one batch query whose first attempt walks in its worker's
// lanes. It confines a panic in its job's callbacks to itself, and once
// its walks are over it finishes the attempt and settles the query.
type laneQuery struct {
	w       *batchWorker
	ctx     context.Context
	fi      *faultinject.Hook
	i       int
	degrade bool
	out     *PairResult // the query, and its result once settled
	a       *attempt
	err     error // a panic recovered from the job's Next or Done
}

// Next implements walk.Job.
func (lq *laneQuery) Next() (walk.Walk, bool) {
	if lq.err == nil {
		if wk, ok := lq.next(); ok {
			return wk, true
		}
	}
	lq.finish(lq.err)
	return walk.Walk{}, false
}

func (lq *laneQuery) next() (walk.Walk, bool) {
	defer lq.recover()
	return lq.a.job.Next()
}

// Done implements walk.Job.
func (lq *laneQuery) Done(na, nb, steps int, absorbed bool) {
	if lq.err == nil {
		lq.done(na, nb, steps, absorbed)
	}
}

func (lq *laneQuery) done(na, nb, steps int, absorbed bool) {
	defer lq.recover()
	lq.a.job.Done(na, nb, steps, absorbed)
}

func (lq *laneQuery) recover() {
	if v := recover(); v != nil {
		lq.err = guard.FromPanic(v)
	}
}

// finish ends the first attempt with its walks' error and settles the
// query: retries, if any, run right here, outside the lanes.
func (lq *laneQuery) finish(runErr error) {
	w := lq.w
	for k, other := range w.inflight {
		if other == lq {
			last := len(w.inflight) - 1
			w.inflight[k], w.inflight[last] = w.inflight[last], nil
			w.inflight = w.inflight[:last]
			break
		}
	}
	defer w.e.confine(lq.out)
	res, err := w.e.end(w, lq.a, runErr)
	if ferr := w.e.settle(lq.ctx, w, lq.fi, lq.i, lq.degrade, res, err, lq.out); ferr != nil && w.fatal == nil {
		w.fatal = ferr
	}
}

// confine fails query out with ErrInternal when a panic escapes its
// attempts' guards — in a Retriable callback, say. beginQuery and
// laneQuery.finish defer it, so the panic ends that one query and the
// worker goes on to its next.
func (e *BatchEngine) confine(out *PairResult) {
	if v := recover(); v != nil {
		e.metrics.Panics.Inc()
		out.Estimate, out.Err, out.Degraded = Estimate{}, guard.FromPanic(v), false
		out.Attempts = max(out.Attempts, 1)
	}
}

// beginQuery starts query i: it runs the query's first attempt up to its
// walks and returns it as a lane job, or answers the query outright (a
// planned exact pair, a method without walks, or a first attempt that
// failed before its walks) and returns nil.
func (e *BatchEngine) beginQuery(ctx context.Context, w *batchWorker, fi *faultinject.Hook, i int, q PairQuery, degrade bool, out *PairResult) *laneQuery {
	out.PairQuery = q
	defer e.confine(out)
	if e.plan.Path == pathExact {
		// Left for the grouped exact solve pairs() runs once the workers
		// finish (see resolveExact), even when degrade is set: a shed query
		// then costs no more than any other, while on road-like graphs the
		// degraded tier's walks cost several solves and carry error
		// (DESIGN.md §10).
		out.Attempts = 1
		out.Err = errPlannedExact
		return nil
	}
	a, err := e.beginAttempt(ctx, w, fi, q, e.querySeed(i), degrade)
	if err == nil {
		lq := &laneQuery{w: w, ctx: ctx, fi: fi, i: i, degrade: degrade, out: out, a: a}
		w.inflight = append(w.inflight, lq)
		return lq
	}
	if ferr := e.settle(ctx, w, fi, i, degrade, Estimate{}, err, out); ferr != nil {
		w.fatal = ferr
	}
	return nil
}

// settle answers query i (already in out) from its first attempt's
// outcome (res, firstErr), applying (in order) the retry budget for transient failures, the
// degraded marking when degrade is set, and the landmark-conflict
// fallback. Retried attempts run one at a time, each its own one-job lane
// run. It returns a non-nil error only for batch-fatal conditions
// (cancellation, estimator construction failure).
func (e *BatchEngine) settle(ctx context.Context, w *batchWorker, fi *faultinject.Hook, i int, degrade bool, res Estimate, firstErr error, out *PairResult) error {
	q, qseed := out.PairQuery, e.querySeed(i)
	maxAttempts := e.opts.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 1
	}
	retriable := e.opts.Retriable
	if retriable == nil {
		retriable = defaultRetriable
	}
	var jitter func() float64
	if maxAttempts > 1 {
		// The backoff jitter draws from its own per-query stream so retry
		// timing never perturbs the estimator's sampling stream.
		jitter = randx.New(qseed ^ 0x94d049bb133111eb).Float64
	}
	attempts, err := retry.Do(ctx, retry.Policy{MaxAttempts: maxAttempts}, jitter, retriable,
		func() { e.metrics.Retries.Inc() },
		func(attempt int) error {
			if attempt == 1 {
				return firstErr
			}
			// Salted stream per retry: resampling with fresh randomness
			// is the point of retrying a Monte Carlo estimator.
			seed := qseed + uint64(attempt-1)*0x6a09e667f3bcc909
			a, aerr := e.beginAttempt(ctx, w, fi, q, seed, degrade)
			if aerr != nil {
				return aerr
			}
			runErr := guard.Run(func() error { return e.sampler.RunJob(ctx, a.job) })
			res, aerr = e.end(w, a, runErr)
			return aerr
		})
	out.Attempts = attempts
	var fatal fatalError
	if errors.As(err, &fatal) {
		return fatal.error
	}
	if errors.Is(err, ErrCanceled) {
		// A mid-query abort fails the whole batch, not just this query:
		// the caller's deadline has passed.
		return err
	}
	// Landmark conflicts under ConflictExact are NOT resolved here: the
	// worker leaves the conflict error in the result and pairs() answers
	// all of them afterwards in one grouped multi-RHS exact solve (see
	// resolveExact). Sentinels may arrive wrapped, so downstream
	// matching uses errors.Is rather than ==.
	if degrade && err == nil {
		out.Degraded = true
		e.metrics.Degraded.Inc()
	}
	if err != nil {
		res = Estimate{}
	}
	out.Estimate = res
	out.Err = err
	return nil
}

// runWorker answers queries first, first+stride, ... into results with up
// to walk.Lanes of them in flight. Each query's first attempt begins here
// — the batch fault hook, routing, Reseed, and for BiPush both pushes —
// then walks in lockstep with the others' in the worker's lanes, and is
// finished and settled once its walks are over. Every query draws from its
// own stream, so no answer depends on which queries shared its lanes.
// degrade reports whether a query starting now goes to the degraded tier.
func (e *BatchEngine) runWorker(ctx context.Context, w *batchWorker, fi *faultinject.Hook, queries []PairQuery, results []PairResult, first, stride int, degrade func() bool) error {
	done := cancel.Done(ctx)
	i := first
	next := func() walk.Job {
		for i < len(queries) && w.fatal == nil {
			k := i
			i += stride
			if done != nil {
				select {
				case <-done:
					w.fatal = cancel.Wrap(ctx.Err())
					return nil
				default:
				}
			}
			if lq := e.beginQuery(ctx, w, fi, k, queries[k], degrade(), &results[k]); lq != nil {
				return lq
			}
		}
		return nil
	}
	for {
		err := guard.Run(func() error { return e.sampler.RunJobs(ctx, next) })
		switch {
		case err == nil:
			return w.fatal
		case errors.Is(err, guard.ErrInternal):
			// A panic in the walk kernel itself, outside any one query's
			// job: every query in flight loses its attempt to it.
			for len(w.inflight) > 0 {
				w.inflight[0].finish(err)
			}
		default:
			// Canceled: the batch fails with err. Finish only records each
			// query's aborted work in the metrics, so its error (err again,
			// or a recovered panic) is dropped.
			for _, lq := range w.inflight {
				_ = guard.Run(func() error { _, ferr := lq.a.job.Finish(err); return ferr })
			}
			return err
		}
	}
}

// Pairs answers a batch of queries in parallel. Worker w deterministically
// handles queries w, w+workers, ..., and each query i reseeds its
// estimator to a stream derived from Options.Seed and i alone, so the
// results are byte-identical across calls, across engines, across worker
// counts, and identical to the one-shot Pairs function — whether or not
// the pool had warm estimators.
func (e *BatchEngine) Pairs(queries []PairQuery) ([]PairResult, error) {
	return e.PairsContext(context.Background(), queries)
}

// PairsContext is Pairs with cancellation: every worker polls ctx between
// queries and each query's kernels poll it internally, so once the context
// is done the whole batch aborts within microseconds and the call returns
// a nil slice and an error matching ErrCanceled (and the context cause —
// errors.Is(err, context.DeadlineExceeded) distinguishes a timeout). With
// a non-cancellable ctx the results are byte-identical to Pairs.
func (e *BatchEngine) PairsContext(ctx context.Context, queries []PairQuery) ([]PairResult, error) {
	return e.pairs(ctx, queries, false)
}

// DegradedPairsContext answers every query with the degraded Monte Carlo
// tier regardless of the deadline — the load-shedding entry point the
// server uses when admission pressure is high. Every successful result is
// marked Degraded and carries its error bound in Estimate.ErrBound. An
// engine whose Plan is exact answers exactly instead, unmarked: a shed
// query then costs no more than any other, while on road-like graphs the
// degraded tier's walks cost several exact solves (DESIGN.md §10).
func (e *BatchEngine) DegradedPairsContext(ctx context.Context, queries []PairQuery) ([]PairResult, error) {
	return e.pairs(ctx, queries, true)
}

// workers is the batch worker count for jobs independent units of work:
// Workers (default GOMAXPROCS), capped at jobs.
func (e *BatchEngine) workers(jobs int) int {
	workers := e.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, jobs)
}

func (e *BatchEngine) pairs(ctx context.Context, queries []PairQuery, forceDegraded bool) ([]PairResult, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	workers := e.workers(len(queries))

	var deadline time.Time
	hasDeadline := false
	if ctx != nil {
		deadline, hasDeadline = ctx.Deadline()
	}
	// Fault hook, fired once per query attempt; nil unless armed.
	fi := faultinject.At(faultinject.SiteBatchQuery)
	results := make([]PairResult, len(queries))
	degrade := func() bool {
		return forceDegraded ||
			(e.opts.DegradeBelow > 0 && hasDeadline && time.Until(deadline) < e.opts.DegradeBelow)
	}
	// Workers keep their estimators until the whole batch is done: a
	// worker that finished early must not hand its estimators to a sibling
	// still starting up, or the number built would depend on scheduling.
	bws := make([]batchWorker, workers)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		bws[w].e = e
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			errs[worker] = e.runWorker(ctx, &bws[worker], fi, queries, results, worker, workers, degrade)
		}(w)
	}
	wg.Wait()
	for w := range bws {
		bws[w].close()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := e.resolveExact(ctx, results); err != nil {
		return nil, err
	}
	return results, nil
}

// errPlannedExact marks a result the plan sends to the grouped exact
// solve; resolveExact always replaces it before the batch returns.
var errPlannedExact = errors.New("landmarkrd: pending planned exact solve")

// pendingExact reports whether a result waits for the exact solver: the
// plan sent it there, or it hit a landmark under ConflictExact.
func (e *BatchEngine) pendingExact(err error) bool {
	return errors.Is(err, errPlannedExact) ||
		(e.opts.OnConflict == ConflictExact && errors.Is(err, ErrLandmarkConflict))
}

// exactBlockRHS bounds the pairs one grouped exact solve advances
// together. A block solve holds about seven n-vectors per column (the
// right-hand side, its staged copy, the solution, and four CG workspace
// vectors), and under the exact plan nearly every pair of a batch grounds
// at the same vertex, so an unbounded block would hold 56·n bytes per pair
// of the batch at once. Eight columns already take the sweep-sharing gain
// (the BlockCG k=8 benchmark in results/README.md), as in the diagonal
// index build.
const exactBlockRHS = 8

// exactBlock is one grouped exact solve: up to exactBlockRHS result
// indices whose pairs share the grounding vertex ground.
type exactBlock struct {
	ground int
	idxs   []int
}

// exactBlocks collects the results pending an exact solve into blocks:
// pairs grouped by grounding vertex in first-appearance order, each group
// cut into runs of at most exactBlockRHS.
func (e *BatchEngine) exactBlocks(results []PairResult) []exactBlock {
	groups := make(map[int][]int)
	var order []int
	for i := range results {
		if !e.pendingExact(results[i].Err) {
			continue
		}
		v := lap.GroundVertex(e.g, results[i].S, results[i].T)
		if _, ok := groups[v]; !ok {
			order = append(order, v)
		}
		groups[v] = append(groups[v], i)
	}
	var blocks []exactBlock
	for _, v := range order {
		for idxs := groups[v]; len(idxs) > 0; {
			k := min(len(idxs), exactBlockRHS)
			blocks = append(blocks, exactBlock{ground: v, idxs: idxs[:k]})
			idxs = idxs[k:]
		}
	}
	return blocks
}

// resolveExact answers every result pending an exact solve on the one
// exact path, bit-for-bit as ExactContext would. When the graph has
// elimination labels (built on first use, recorded in the engine's
// metrics), each answer reads them in O(depth). Otherwise the exact CG
// solver runs: pairs that share a grounding vertex advance together
// through one multi-RHS block solve (one operator sweep per iteration for
// the whole block) instead of one independent solve each, and the blocks
// run across the batch workers. The grounding vertex, right-hand side,
// tolerance, and CG recurrence are identical per pair, whatever block or
// worker solved it. The solves record into the engine's metrics. It
// returns a non-nil error only for batch-fatal conditions (cancellation).
func (e *BatchEngine) resolveExact(ctx context.Context, results []PairResult) error {
	pending := slices.IndexFunc(results, func(r PairResult) bool { return e.pendingExact(r.Err) })
	if pending < 0 {
		return nil
	}
	lab, err := elim.For(e.g, e.metrics)
	if err != nil || lab != nil {
		return e.labelExact(ctx, lab, err, results[pending:])
	}
	blocks := e.exactBlocks(results)
	workers := e.workers(len(blocks))
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for b := worker; b < len(blocks); b += workers {
				if err := e.solveExactBlock(ctx, results, blocks[b]); err != nil {
					errs[worker] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// labelExact answers the results pending an exact solve from lab, or
// fails each with buildErr, the error of a label build that did not
// finish. An already-done ctx fails the batch, as a mid-solve abort does.
func (e *BatchEngine) labelExact(ctx context.Context, lab *elim.Labels, buildErr error, results []PairResult) error {
	if buildErr == nil {
		if err := cancel.Check(ctx); err != nil {
			return err
		}
	}
	for i := range results {
		r := &results[i]
		if !e.pendingExact(r.Err) {
			continue
		}
		v, err := 0.0, buildErr
		if err == nil {
			v, err = labelPair(lab, e.g, r.S, r.T, e.metrics)
		}
		e.finishExact(r, v, err)
	}
	return nil
}

// solveExactBlock answers one block's results in place.
func (e *BatchEngine) solveExactBlock(ctx context.Context, results []PairResult, b exactBlock) error {
	pairs := make([][2]int, len(b.idxs))
	for k, i := range b.idxs {
		pairs[k] = [2]int{results[i].S, results[i].T}
	}
	values, perrs, err := lap.ResistanceBatchCG(ctx, e.g, b.ground, pairs, 0, e.metrics)
	if errors.Is(err, ErrCanceled) {
		// A mid-solve abort fails the whole batch: the caller's deadline
		// has passed.
		return err
	}
	for k, i := range b.idxs {
		// A whole-block failure (disconnected graph, injected fault)
		// surfaces on each pending query with a zero estimate.
		if err == nil {
			e.finishExact(&results[i], values[k], perrs[k])
		} else {
			e.finishExact(&results[i], 0, err)
		}
	}
	return nil
}

// finishExact stores one exact answer, or its failure, in r, counting it
// as a planned exact answer or as a conflict fallback.
func (e *BatchEngine) finishExact(r *PairResult, value float64, err error) {
	planned := errors.Is(r.Err, errPlannedExact)
	r.Degraded = false // the exact solver answered, not the degraded tier
	if err != nil {
		r.Estimate, r.Err = Estimate{}, err
		if planned {
			e.metrics.ObserveQuery(obs.QueryObservation{Err: true})
		} else {
			e.metrics.FallbackErrors.Inc()
		}
		return
	}
	r.Estimate, r.Err = Estimate{Value: value, Converged: true}, nil
	if planned {
		e.metrics.Queries.Inc()
		e.metrics.PlannedExact.Inc()
	} else {
		e.metrics.ExactFallbacks.Inc()
	}
}

// AdaptiveBatchOptions configures AdaptivePairs.
type AdaptiveBatchOptions struct {
	// TotalWalks is the batch-wide walk-pair budget shared across all
	// queries (default 2000 per query — the fixed-budget estimator's
	// per-pair default, now allocated where the variance is).
	TotalWalks int
	// PilotWalks is the per-query pilot round size (default 64).
	PilotWalks int
}

// AdaptivePairs answers a batch of queries with the adaptive Monte Carlo
// allocator: a pilot round measures every pair's per-walk variance, then
// the remaining walk budget goes to the hard (high-variance) pairs so all
// pairs finish at approximately equal 95% error bands (reported in
// Estimate.ErrBound). Easy pairs stop at the pilot instead of spending the
// same budget as hard ones. Results are byte-identical for a fixed engine
// seed at any worker count. Landmark-conflict queries follow the engine's
// OnConflict policy (grouped exact solves under ConflictExact).
func (e *BatchEngine) AdaptivePairs(queries []PairQuery, opts AdaptiveBatchOptions) ([]PairResult, error) {
	return e.AdaptivePairsContext(context.Background(), queries, opts)
}

// AdaptivePairsContext is AdaptivePairs with cancellation: once ctx is done
// the walk loops abort and the call returns a nil slice and an error
// matching ErrCanceled.
func (e *BatchEngine) AdaptivePairsContext(ctx context.Context, queries []PairQuery, opts AdaptiveBatchOptions) ([]PairResult, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	pairs := make([]core.AdaptivePair, len(queries))
	for i, q := range queries {
		pairs[i] = core.AdaptivePair{S: q.S, T: q.T}
	}
	ares, err := core.AdaptiveBatch(ctx, e.g, e.landmark, pairs, core.AdaptiveOptions{
		TotalWalks: opts.TotalWalks,
		PilotWalks: opts.PilotWalks,
		MaxSteps:   e.opts.Options.MaxSteps,
		Workers:    e.opts.Workers,
		Metrics:    e.metrics,
	}, e.seed)
	if err != nil {
		return nil, err
	}
	results := make([]PairResult, len(queries))
	for i, r := range ares {
		results[i] = PairResult{
			PairQuery: queries[i],
			Estimate:  r.Estimate,
			Err:       r.Err,
			Attempts:  1,
		}
	}
	if err := e.resolveExact(ctx, results); err != nil {
		return nil, err
	}
	return results, nil
}

// Pairs answers one batch of resistance queries in parallel. It is the
// one-shot form of BatchEngine.Pairs: workloads issuing repeated batches
// over the same graph should build a BatchEngine once and reuse it, which
// amortizes landmark selection and estimator scratch buffers.
func Pairs(g *Graph, m Method, queries []PairQuery, opts BatchOptions) ([]PairResult, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	engine, err := NewBatchEngine(g, m, opts)
	if err != nil {
		return nil, err
	}
	return engine.Pairs(queries)
}
