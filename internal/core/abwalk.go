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
	rng      *randx.RNG
	metrics  *obs.Metrics
}

// NewAbWalkEstimator builds an absorbed-walk estimator with landmark v.
func NewAbWalkEstimator(g *graph.Graph, landmark int, opts AbWalkOptions, rng *randx.RNG) (*AbWalkEstimator, error) {
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
		rng:      rng,
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

// Reseed resets the estimator's random stream, making subsequent queries a
// deterministic function of rng regardless of prior use.
func (e *AbWalkEstimator) Reseed(rng *randx.RNG) { e.rng = rng }

// abWalkQuery is one AbWalk query as a walk.Job: Walks walk-pairs, each
// an absorbed walk from s (watching s and t) and then one from t (watching
// t and s), with the fault hook fired once per walk-pair. Finish combines
// the visit counts into the landmark identity, as sums (PairContext) or as
// the per-walk-pair statistic whose sample variance gives a confidence
// half-width (PairWithCIContext).
type abWalkQuery struct {
	e      *AbWalkEstimator
	start  time.Time
	s, t   int
	o      AbWalkOptions
	rng    *randx.RNG
	fi     *faultinject.Hook
	withCI bool
	ds, dt float64
	begun  int // walks begun, two per walk-pair
	err    error

	walksDone, hits                    int
	steps                              int64
	visitSS, visitST, visitTT, visitTS float64 // sums over all walks
	vSS, vST                           int     // the current pair's walk from s
	sum, sumSq                         float64 // per-walk-pair statistic
	half                               float64 // set by Finish with CI
}

// StartPair validates the query and returns its walks as a job drawing
// from the estimator's current stream. The job keeps that stream: a later
// Reseed gives the next query a new one and leaves this job's alone.
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
	q := &abWalkQuery{
		e: e, start: start, s: s, t: t, o: e.opts.withDefaults(e.g.N()), rng: e.rng, withCI: withCI,
		ds: e.g.WeightedDegree(s), dt: e.g.WeightedDegree(t),
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

// Next implements walk.Job.
func (q *abWalkQuery) Next() (walk.Walk, bool) {
	if q.err != nil || q.begun == 2*q.o.Walks {
		return walk.Walk{}, false
	}
	w := walk.Walk{Src: q.s, V: q.e.landmark, A: q.s, B: q.t, MaxSteps: q.o.MaxSteps, RNG: q.rng}
	if q.begun%2 == 0 {
		if err := q.fi.Fire(); err != nil {
			q.err = err
			return walk.Walk{}, false
		}
	} else {
		w.Src, w.A, w.B = q.t, q.t, q.s
	}
	q.begun++
	return w, true
}

// Done implements walk.Job.
func (q *abWalkQuery) Done(na, nb, steps int, absorbed bool) {
	q.steps += int64(steps)
	if q.begun%2 == 1 { // the walk from s
		q.visitSS += float64(na)
		q.visitST += float64(nb)
		q.vSS, q.vST = na, nb
	} else {
		q.visitTT += float64(na)
		q.visitTS += float64(nb)
		x := float64(q.vSS)/q.ds + float64(na)/q.dt - float64(q.vST)/q.dt - float64(nb)/q.ds
		q.sum += x
		q.sumSq += x * x
	}
	q.walksDone++
	if absorbed {
		q.hits++
	}
}

// abort records the walks sampled before a failure.
func (q *abWalkQuery) abort(cause error) {
	ob := obs.QueryObservation{
		Duration:  time.Since(q.start),
		Walks:     int64(q.walksDone),
		WalkSteps: q.steps,
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
	if q.err == nil {
		q.err = runErr
	}
	if q.err != nil {
		q.abort(q.err)
		return Estimate{}, q.err
	}
	nr := float64(q.o.Walks)
	var val float64
	if q.withCI {
		val = q.sum / nr
		variance := math.Max(0, q.sumSq/nr-val*val)
		q.half = 1.96 * math.Sqrt(variance/nr)
	} else {
		val = q.visitSS/(nr*q.ds) + q.visitTT/(nr*q.dt) - q.visitST/(nr*q.dt) - q.visitTS/(nr*q.ds)
	}
	// Resistance is non-negative; sampling noise on near pairs can push
	// the raw combination slightly below zero, so clamp rather than hand
	// the caller an impossible value.
	if val < 0 {
		val = 0
	}
	est := Estimate{
		Value:        val,
		Walks:        2 * q.o.Walks,
		WalkSteps:    q.steps,
		LandmarkHits: q.hits,
		Duration:     time.Since(q.start),
		Converged:    q.hits == 2*q.o.Walks,
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
// With a non-cancellable ctx the RNG stream and the estimate are
// byte-identical to Pair.
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
// no armed faults the RNG stream and the estimate are byte-identical to
// PairWithCI. The batch engine's degraded tier uses the half-width to attach
// an error bound to fallback answers.
func (e *AbWalkEstimator) PairWithCIContext(ctx context.Context, s, t int) (Estimate, float64, error) {
	j, err := e.StartPairWithCI(ctx, s, t)
	if err != nil {
		return Estimate{}, 0, err
	}
	est, err := runPair(ctx, e.sampler, j)
	return est, j.HalfWidth(), err
}
