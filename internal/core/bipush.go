package core

import (
	"context"
	"errors"
	"sort"
	"time"

	"landmarkrd/internal/cancel"
	"landmarkrd/internal/faultinject"
	"landmarkrd/internal/graph"
	"landmarkrd/internal/obs"
	"landmarkrd/internal/randx"
	"landmarkrd/internal/walk"
)

// BiPushOptions controls the bidirectional estimator.
type BiPushOptions struct {
	// PushTheta is the degree-normalized residual threshold of the
	// deterministic phase (default 1e-2). Looser than a standalone Push:
	// Monte Carlo removes the remaining bias.
	PushTheta float64
	// Walks is the number of residual-correction walks per endpoint
	// (default DefaultBiPushWalks). A negative value disables the Monte
	// Carlo correction entirely, degenerating BiPush to plain Push (useful
	// for ablations).
	Walks int
	// MaxSteps truncates each correction walk (default as in AbWalk).
	MaxSteps int
	// MaxOps bounds the push phase.
	MaxOps int64
}

// DefaultBiPushWalks is the per-endpoint correction walk count a zero
// BiPushOptions.Walks resolves to.
const DefaultBiPushWalks = 500

func (o *BiPushOptions) withDefaults(n int) BiPushOptions {
	out := *o
	if out.PushTheta <= 0 {
		out.PushTheta = 1e-2
	}
	if out.Walks == 0 {
		out.Walks = DefaultBiPushWalks
	} else if out.Walks < 0 {
		out.Walks = 0
	}
	if out.MaxSteps <= 0 {
		out.MaxSteps = 100 * n
		if out.MaxSteps < 100000 {
			out.MaxSteps = 100000
		}
	}
	return out
}

// BiPushEstimator combines a cheap grounded push with absorbed walks
// started from the residual distribution. The push invariant
//
//	τ(s,x) = est(x) + Σ_u res(u)·τ(u,x)
//
// makes the correction term an expectation over u ~ res/‖res‖₁ of
// ‖res‖₁·τ(u,x), so sampling absorbed walks from the residuals yields an
// unbiased final estimate whose variance is damped by the (small) ‖res‖₁.
type BiPushEstimator struct {
	pusher  *Pusher
	sampler *walk.Sampler
	opts    BiPushOptions
	rng     *randx.RNG
	metrics *obs.Metrics
}

// NewBiPushEstimator builds a bidirectional estimator with landmark v.
func NewBiPushEstimator(g *graph.Graph, landmark int, opts BiPushOptions, rng *randx.RNG) (*BiPushEstimator, error) {
	p, err := NewPusher(g, landmark)
	if err != nil {
		return nil, err
	}
	return &BiPushEstimator{
		pusher:  p,
		sampler: walk.NewSampler(g),
		opts:    opts,
		rng:     rng,
		metrics: &obs.Metrics{},
	}, nil
}

// Landmark returns the landmark vertex.
func (e *BiPushEstimator) Landmark() int { return e.pusher.landmark }

// Metrics returns the estimator's metrics sink.
func (e *BiPushEstimator) Metrics() *obs.Metrics { return e.metrics }

// SetMetrics redirects recording to m (e.g. a sink shared across a pool of
// estimators). Call before issuing queries, not concurrently with them.
func (e *BiPushEstimator) SetMetrics(m *obs.Metrics) { e.metrics = m }

// Reseed resets the estimator's random stream, making subsequent queries a
// deterministic function of rng regardless of prior use.
func (e *BiPushEstimator) Reseed(rng *randx.RNG) { e.rng = rng }

// sideResult carries one endpoint's push + correction outcome.
type sideResult struct {
	tauToS, tauToT float64 // corrected τ(side, s) and τ(side, t)
	stats          PushStats
	walks          int
	steps          int64
	hits           int // correction walks absorbed at the landmark
	truncated      bool
}

// runSide pushes from src and corrects τ(src, s) and τ(src, t) by walks.
// ctx cancellation aborts either phase with a cancel.Error; the partial
// stats gathered so far are returned alongside the error so the caller can
// record them.
func (e *BiPushEstimator) runSide(ctx context.Context, src, s, t int, o BiPushOptions) (sideResult, error) {
	res := sideResult{}
	stats, err := e.pusher.RunContext(ctx, src, PushOptions{Theta: o.PushTheta, MaxOps: o.MaxOps})
	res.stats = stats
	if err != nil {
		return res, err
	}
	res.tauToS = e.pusher.Estimate(s)
	res.tauToT = e.pusher.Estimate(t)

	nodes, values := e.pusher.Residuals()
	if len(nodes) == 0 || o.Walks == 0 {
		return res, nil
	}
	// Build the cumulative residual distribution for sampling.
	cum := make([]float64, len(values))
	total := 0.0
	for i, v := range values {
		total += v
		cum[i] = total
	}
	if total <= 0 {
		return res, nil
	}
	var visS, visT float64
	v := e.pusher.landmark
	// Fault hook, fired once per residual-correction walk; nil unless armed.
	fi := faultinject.At(faultinject.SiteWalkLoop)
	for i := 0; i < o.Walks; i++ {
		if err := fi.Fire(); err != nil {
			res.walks = i
			return res, err
		}
		target := e.rng.Float64() * total
		idx := sort.SearchFloat64s(cum, target)
		if idx >= len(nodes) {
			idx = len(nodes) - 1
		}
		u := int(nodes[idx])
		nS, nT, st, abs, err := e.sampler.AbsorbedCounts(ctx, u, v, s, t, o.MaxSteps, e.rng)
		visS += float64(nS)
		visT += float64(nT)
		res.steps += int64(st)
		if err != nil {
			res.walks = i
			return res, err
		}
		if abs {
			res.hits++
		} else {
			res.truncated = true
		}
	}
	res.walks = o.Walks
	scale := total / float64(o.Walks)
	res.tauToS += visS * scale
	res.tauToT += visT * scale
	return res, nil
}

// Pair estimates r(s,t) bidirectionally.
func (e *BiPushEstimator) Pair(s, t int) (Estimate, error) {
	return e.PairContext(context.Background(), s, t)
}

// PairContext is Pair with cancellation: the push phases poll ctx every
// few thousand edge relaxations and the correction walks every few thousand
// steps, aborting with a cancel.Error once the context is done. The partial
// push/walk work is recorded in the metrics as a canceled observation. With
// a non-cancellable ctx the RNG stream and the estimate are byte-identical
// to Pair.
func (e *BiPushEstimator) PairContext(ctx context.Context, s, t int) (Estimate, error) {
	start := time.Now()
	g := e.pusher.g
	if err := validateQuery(g, e.pusher.landmark, s, t); err != nil {
		e.metrics.ObserveQuery(obs.QueryObservation{Err: true})
		return Estimate{}, err
	}
	if s == t {
		return Estimate{Converged: true}, nil
	}
	o := e.opts.withDefaults(g.N())

	if err := cancel.Check(ctx); err != nil {
		e.metrics.ObserveQuery(obs.QueryObservation{Duration: time.Since(start), Canceled: true})
		return Estimate{}, err
	}
	observeAbort := func(sides []sideResult, err error) {
		ob := obs.QueryObservation{Duration: time.Since(start)}
		for _, side := range sides {
			ob.PushOps += side.stats.Ops
			ob.Pushes += side.stats.Pushes
			ob.Walks += int64(side.walks)
			ob.WalkSteps += side.steps
		}
		if errors.Is(err, cancel.ErrCanceled) {
			ob.Canceled = true
		} else {
			ob.Err = true
		}
		e.metrics.ObserveQuery(ob)
	}
	fromS, err := e.runSide(ctx, s, s, t, o)
	if err != nil {
		observeAbort([]sideResult{fromS}, err)
		return Estimate{}, err
	}
	fromT, err := e.runSide(ctx, t, s, t, o)
	if err != nil {
		observeAbort([]sideResult{fromS, fromT}, err)
		return Estimate{}, err
	}
	ds, dt := g.WeightedDegree(s), g.WeightedDegree(t)
	val := fromS.tauToS/ds + fromT.tauToT/dt - fromS.tauToT/dt - fromT.tauToS/ds
	// As in AbWalk: the Monte Carlo residual correction can push a
	// near-zero resistance slightly negative; clamp to the feasible range.
	if val < 0 {
		val = 0
	}
	est := Estimate{
		Value:        val,
		Walks:        fromS.walks + fromT.walks,
		WalkSteps:    fromS.steps + fromT.steps,
		PushOps:      fromS.stats.Ops + fromT.stats.Ops,
		LandmarkHits: fromS.hits + fromT.hits,
		ResidualL1:   fromS.stats.ResidualL1 + fromT.stats.ResidualL1,
		Duration:     time.Since(start),
		Converged:    fromS.stats.Converged && fromT.stats.Converged && !fromS.truncated && !fromT.truncated,
	}
	ob := est.observation()
	ob.Pushes = fromS.stats.Pushes + fromT.stats.Pushes
	e.metrics.ObserveQuery(ob)
	return est, nil
}
