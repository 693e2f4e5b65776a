package core

import (
	"context"
	"errors"
	"math"
	"time"

	"landmarkrd/internal/cancel"
	"landmarkrd/internal/faultinject"
	"landmarkrd/internal/graph"
	"landmarkrd/internal/obs"
	"landmarkrd/internal/randx"
	"landmarkrd/internal/walk"
)

// AbWalkOptions controls the absorbed-walk Monte Carlo estimator.
type AbWalkOptions struct {
	// Walks is the number of absorbed walks sampled from each endpoint
	// (default 2000).
	Walks int
	// MaxSteps truncates each walk (default 100·n, effectively no
	// truncation on the benchmark graphs; truncation introduces a small
	// negative bias on τ and is reported via Converged == false).
	MaxSteps int
}

func (o *AbWalkOptions) withDefaults(n int) AbWalkOptions {
	out := *o
	if out.Walks <= 0 {
		out.Walks = 2000
	}
	if out.MaxSteps <= 0 {
		out.MaxSteps = 100 * n
		if out.MaxSteps < 100000 {
			out.MaxSteps = 100000
		}
	}
	return out
}

// AbWalkEstimator answers pairwise queries with absorbed-walk sampling:
// all four τ terms of the landmark identity are unbiased sample means of
// visit counts.
type AbWalkEstimator struct {
	g        *graph.Graph
	landmark int
	sampler  *walk.Sampler
	opts     AbWalkOptions
	seed     uint64
	metrics  *obs.Metrics
}

// NewAbWalkEstimator builds an absorbed-walk estimator with landmark v.
// seed keys every walk's stream (see PairJob).
func NewAbWalkEstimator(g *graph.Graph, landmark int, opts AbWalkOptions, seed uint64) (*AbWalkEstimator, error) {
	if err := g.ValidateVertex(landmark); err != nil {
		return nil, err
	}
	if err := requireConnected(g); err != nil {
		return nil, err
	}
	return &AbWalkEstimator{
		g:        g,
		landmark: landmark,
		sampler:  walk.NewSampler(g),
		opts:     opts,
		seed:     seed,
		metrics:  &obs.Metrics{},
	}, nil
}

// Landmark returns the landmark vertex.
func (e *AbWalkEstimator) Landmark() int { return e.landmark }

// Metrics returns the estimator's metrics sink.
func (e *AbWalkEstimator) Metrics() *obs.Metrics { return e.metrics }

// SetMetrics redirects recording to m (e.g. a sink shared across a pool of
// estimators). Call before issuing queries, not concurrently with them.
func (e *AbWalkEstimator) SetMetrics(m *obs.Metrics) { e.metrics = m }

// Reseed sets the seed that keys the walks of subsequent queries: each
// answer is a function of the seed and the pair alone.
func (e *AbWalkEstimator) Reseed(seed uint64) { e.seed = seed }

// abWalkQuery is one AbWalk query as a PairJob: Walks walk-pairs, walk k
// of side 0 an absorbed walk from s (watching s and t) and walk k of side
// 1 one from t (watching t and s), with the fault hook fired once per
// walk-pair, on its side-0 walk. Finish combines the visit counts into the
// landmark identity, as sums (PairContext) or as the per-walk-pair
// statistic whose sample variance gives a confidence half-width
// (PairWithCIContext).
type abWalkQuery struct {
	e      *AbWalkEstimator
	start  time.Time
	s, t   int // s < t
	o      AbWalkOptions
	key    uint64 // the pair's stream key
	fi     *faultinject.Hook
	withCI bool
	ds, dt float64
	pairWalks
	half float64 // set by Finish with CI
}

// StartPair validates the query and returns its walks as a job keyed by
// the estimator's current seed. The job keeps that seed: a later Reseed
// gives the next query a new one and leaves this job's alone.
func (e *AbWalkEstimator) StartPair(ctx context.Context, s, t int) (PairJob, error) {
	return e.start(ctx, s, t, false)
}

// StartPairWithCI is StartPair for PairWithCIContext's estimate; the
// job's HalfWidth holds the confidence half-width once it is finished.
func (e *AbWalkEstimator) StartPairWithCI(ctx context.Context, s, t int) (CIJob, error) {
	return e.start(ctx, s, t, true)
}

func (e *AbWalkEstimator) start(ctx context.Context, s, t int, withCI bool) (CIJob, error) {
	start := time.Now()
	if err := validateQuery(e.g, e.landmark, s, t); err != nil {
		e.metrics.ObserveQuery(obs.QueryObservation{Err: true})
		return nil, err
	}
	if s == t {
		return answered{Estimate{Converged: true}}, nil
	}
	s, t = canonical(s, t)
	q := &abWalkQuery{
		e: e, start: start, s: s, t: t, o: e.opts.withDefaults(e.g.N()), key: pairKey(e.seed, s, t), withCI: withCI,
		ds: e.g.WeightedDegree(s), dt: e.g.WeightedDegree(t),
	}
	q.n = [2]int{q.o.Walks, q.o.Walks}
	if withCI {
		q.withParts(q.ds, q.dt)
	}
	if cancel.Done(ctx) != nil {
		if err := cancel.Check(ctx); err != nil {
			q.abort(err)
			return nil, err
		}
	}
	// Fault hook, fired once per walk-pair; nil unless armed.
	q.fi = faultinject.At(faultinject.SiteWalkLoop)
	return q, nil
}

// Shards implements PairJob.
func (q *abWalkQuery) Shards(n int) []walk.Job { return q.split(q, n) }

// walk implements walkSource.
func (q *abWalkQuery) walk(side, k int, rng *randx.RNG) (walk.Walk, error) {
	return pairWalk(q.s, q.t, q.e.landmark, q.o.MaxSteps, q.key, q.fi, side, k, rng)
}

// abort records the walks sampled before a failure.
func (q *abWalkQuery) abort(cause error) {
	t, _ := q.totals()
	ob := obs.QueryObservation{
		Duration:  time.Since(q.start),
		Walks:     int64(t[0].walks + t[1].walks),
		WalkSteps: t[0].steps + t[1].steps,
	}
	if errors.Is(cause, cancel.ErrCanceled) {
		ob.Canceled = true
	} else {
		ob.Err = true
	}
	q.e.metrics.ObserveQuery(ob)
}

// HalfWidth returns the 95% normal-approximation half-width Finish
// computed for a query started by StartPairWithCI.
func (q *abWalkQuery) HalfWidth() float64 { return q.half }

// Finish implements PairJob.
func (q *abWalkQuery) Finish(runErr error) (Estimate, error) {
	t, err := q.totals()
	if err == nil {
		err = runErr
	}
	if err != nil {
		q.abort(err)
		return Estimate{}, err
	}
	nr := float64(q.o.Walks)
	var val float64
	if q.withCI {
		var sum, sumSq float64
		q.fold(&sum, &sumSq)
		val = sum / nr
		variance := math.Max(0, sumSq/nr-val*val)
		q.half = 1.96 * math.Sqrt(variance/nr)
	} else {
		// Side 0 walks from s (A = s, B = t), side 1 from t (A = t, B = s).
		val = float64(t[0].na)/(nr*q.ds) + float64(t[1].na)/(nr*q.dt) - float64(t[0].nb)/(nr*q.dt) - float64(t[1].nb)/(nr*q.ds)
	}
	// Resistance is non-negative; sampling noise on near pairs can push
	// the raw combination slightly below zero, so clamp rather than hand
	// the caller an impossible value.
	if val < 0 {
		val = 0
	}
	hits := t[0].hits + t[1].hits
	est := Estimate{
		Value:        val,
		Walks:        2 * q.o.Walks,
		WalkSteps:    t[0].steps + t[1].steps,
		LandmarkHits: hits,
		Duration:     time.Since(q.start),
		Converged:    hits == 2*q.o.Walks,
	}
	q.e.metrics.ObserveQuery(est.observation())
	return est, nil
}

// Pair estimates r(s,t) from 2·Walks absorbed walks.
func (e *AbWalkEstimator) Pair(s, t int) (Estimate, error) {
	return e.PairContext(context.Background(), s, t)
}

// PairContext is Pair with cancellation: the walk loop polls ctx between
// walks and (via the sampler) every few thousand steps inside long walks,
// aborting with a cancel.Error once the context is done. The walks sampled
// before the abort are recorded in the metrics as a canceled observation.
// With a non-cancellable ctx the estimate is byte-identical to Pair.
func (e *AbWalkEstimator) PairContext(ctx context.Context, s, t int) (Estimate, error) {
	q, err := e.StartPair(ctx, s, t)
	if err != nil {
		return Estimate{}, err
	}
	return runPair(ctx, e.sampler, q)
}

// PairWithCI additionally returns a normal-approximation half-width for a
// 95% confidence interval on the estimate, from the per-walk sample
// variance of the combined statistic.
func (e *AbWalkEstimator) PairWithCI(s, t int) (Estimate, float64, error) {
	return e.PairWithCIContext(context.Background(), s, t)
}

// PairWithCIContext is PairWithCI with cancellation and fault-hook polling,
// following the same contract as PairContext: with a non-cancellable ctx and
// no armed faults the estimate is byte-identical to PairWithCI. The batch
// engine's degraded tier uses the half-width to attach an error bound to
// fallback answers.
func (e *AbWalkEstimator) PairWithCIContext(ctx context.Context, s, t int) (Estimate, float64, error) {
	j, err := e.StartPairWithCI(ctx, s, t)
	if err != nil {
		return Estimate{}, 0, err
	}
	est, err := runPair(ctx, e.sampler, j)
	return est, j.HalfWidth(), err
}
