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

// biPushSide is one endpoint's push outcome with its residuals copied out,
// and the correction walks sampled from them so far.
type biPushSide struct {
	tauToS, tauToT float64 // τ(side, s) and τ(side, t); corrected by Finish
	stats          PushStats
	nodes          []int32   // residual vertices
	cum            []float64 // cumulative residual mass over nodes
	total          float64   // ‖res‖₁ as summed into cum; 0 if no walks
	walks          int       // correction walks reported
	visS, visT     float64
	steps          int64
	hits           int // correction walks absorbed at the landmark
	truncated      bool
}

// push runs the side's push from src and copies out what its correction
// walks need, so the pusher is free for the next push. ctx cancellation
// aborts with a cancel.Error; the partial stats are kept for the metrics.
func (sd *biPushSide) push(ctx context.Context, p *Pusher, src, s, t int, o BiPushOptions) error {
	stats, err := p.RunContext(ctx, src, PushOptions{Theta: o.PushTheta, MaxOps: o.MaxOps})
	sd.stats = stats
	if err != nil {
		return err
	}
	sd.tauToS = p.Estimate(s)
	sd.tauToT = p.Estimate(t)
	nodes, values := p.Residuals()
	if len(nodes) == 0 || o.Walks == 0 {
		return nil
	}
	sd.nodes = append([]int32(nil), nodes...)
	sd.cum = make([]float64, len(values))
	for i, v := range values {
		sd.total += v
		sd.cum[i] = sd.total
	}
	return nil
}

// biPushQuery is one BiPush query between its phases: StartPair ran both
// pushes, its correction walks run as a walk.Job (from s's residuals, then
// from t's, each start drawn from the query's stream right before its
// walk), and Finish combines the corrected τ terms.
type biPushQuery struct {
	e           *BiPushEstimator
	start       time.Time
	s, t        int
	o           BiPushOptions
	rng         *randx.RNG
	fi          *faultinject.Hook // fired once per correction walk
	sides       [2]biPushSide     // pushed from s, then from t
	side, begun int               // the side walking, and its walks begun
	err         error
}

// StartPair validates the query and runs both pushes, from s and then from
// t. The returned job draws from the estimator's current stream and keeps
// it: a later Reseed gives the next query a new one and leaves this job's
// alone.
func (e *BiPushEstimator) StartPair(ctx context.Context, s, t int) (PairJob, error) {
	start := time.Now()
	g := e.pusher.g
	if err := validateQuery(g, e.pusher.landmark, s, t); err != nil {
		e.metrics.ObserveQuery(obs.QueryObservation{Err: true})
		return nil, err
	}
	if s == t {
		return Answered(Estimate{Converged: true}), nil
	}
	q := &biPushQuery{e: e, start: start, s: s, t: t, o: e.opts.withDefaults(g.N()), rng: e.rng}
	if err := cancel.Check(ctx); err != nil {
		e.metrics.ObserveQuery(obs.QueryObservation{Duration: time.Since(start), Canceled: true})
		return nil, err
	}
	for i, src := range []int{s, t} {
		if err := q.sides[i].push(ctx, e.pusher, src, s, t, q.o); err != nil {
			q.observeAbort(q.sides[:i+1], err)
			return nil, err
		}
	}
	// Fault hook, fired once per residual-correction walk; nil unless armed.
	q.fi = faultinject.At(faultinject.SiteWalkLoop)
	return q, nil
}

// Next implements walk.Job: the next correction walk, its start drawn
// from the side's residual distribution.
func (q *biPushQuery) Next() (walk.Walk, bool) {
	for ; q.side < len(q.sides) && q.err == nil; q.side, q.begun = q.side+1, 0 {
		sd := &q.sides[q.side]
		if sd.total <= 0 || q.begun == q.o.Walks {
			continue
		}
		if err := q.fi.Fire(); err != nil {
			q.err = err
			break
		}
		q.begun++
		idx := sort.SearchFloat64s(sd.cum, q.rng.Float64()*sd.total)
		if idx >= len(sd.nodes) {
			idx = len(sd.nodes) - 1
		}
		return walk.Walk{Src: int(sd.nodes[idx]), V: q.e.pusher.landmark, A: q.s, B: q.t, MaxSteps: q.o.MaxSteps, RNG: q.rng}, true
	}
	return walk.Walk{}, false
}

// Done implements walk.Job.
func (q *biPushQuery) Done(nS, nT, steps int, absorbed bool) {
	sd := &q.sides[q.side]
	sd.visS += float64(nS)
	sd.visT += float64(nT)
	sd.steps += int64(steps)
	sd.walks++
	if absorbed {
		sd.hits++
	} else {
		sd.truncated = true
	}
}

// observeAbort records the partial push and walk work of a failed query.
func (q *biPushQuery) observeAbort(sides []biPushSide, err error) {
	ob := obs.QueryObservation{Duration: time.Since(q.start)}
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
	q.e.metrics.ObserveQuery(ob)
}

// Finish implements PairJob: each side's τ terms corrected by its mean
// walk visits times ‖res‖₁, combined by the landmark identity.
func (q *biPushQuery) Finish(runErr error) (Estimate, error) {
	if q.err == nil {
		q.err = runErr
	}
	if q.err != nil {
		q.observeAbort(q.sides[:], q.err)
		return Estimate{}, q.err
	}
	fromS, fromT := &q.sides[0], &q.sides[1]
	for _, sd := range []*biPushSide{fromS, fromT} {
		if sd.total > 0 {
			scale := sd.total / float64(q.o.Walks)
			sd.tauToS += sd.visS * scale
			sd.tauToT += sd.visT * scale
		}
	}
	g := q.e.pusher.g
	ds, dt := g.WeightedDegree(q.s), g.WeightedDegree(q.t)
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
		Duration:     time.Since(q.start),
		Converged:    fromS.stats.Converged && fromT.stats.Converged && !fromS.truncated && !fromT.truncated,
	}
	ob := est.observation()
	ob.Pushes = fromS.stats.Pushes + fromT.stats.Pushes
	q.e.metrics.ObserveQuery(ob)
	return est, nil
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
	q, err := e.StartPair(ctx, s, t)
	if err != nil {
		return Estimate{}, err
	}
	return runPair(ctx, e.sampler, q)
}
