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
	seed    uint64
	metrics *obs.Metrics
}

// NewBiPushEstimator builds a bidirectional estimator with landmark v.
// seed keys every correction walk's stream (see PairJob).
func NewBiPushEstimator(g *graph.Graph, landmark int, opts BiPushOptions, seed uint64) (*BiPushEstimator, error) {
	p, err := NewPusher(g, landmark)
	if err != nil {
		return nil, err
	}
	return &BiPushEstimator{
		pusher:  p,
		sampler: walk.NewSampler(g),
		opts:    opts,
		seed:    seed,
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

// Reseed sets the seed that keys the walks of subsequent queries: each
// answer is a function of the seed and the pair alone.
func (e *BiPushEstimator) Reseed(seed uint64) { e.seed = seed }

// biPushSide is one endpoint's push outcome with its residuals copied out.
type biPushSide struct {
	tauToS, tauToT float64 // τ(side, s) and τ(side, t); corrected by Finish
	stats          PushStats
	nodes          []int32   // residual vertices
	cum            []float64 // cumulative residual mass over nodes
	total          float64   // ‖res‖₁ as summed into cum; 0 if no walks
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
// pushes, its correction walks run as a PairJob (side 0 from s's
// residuals, side 1 from t's, each walk's start drawn from that walk's own
// stream), and Finish combines the corrected τ terms.
type biPushQuery struct {
	e     *BiPushEstimator
	start time.Time
	s, t  int // s < t
	o     BiPushOptions
	key   uint64            // the pair's stream key
	fi    *faultinject.Hook // fired once per correction walk
	sides [2]biPushSide     // pushed from s, then from t
	pairWalks
}

// StartPair validates the query and runs both pushes, from s and then from
// t, for s < t: (s, t) and (t, s) are one query. The returned job is keyed
// by the estimator's current seed and keeps it: a later Reseed gives the
// next query a new one and leaves this job's alone.
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
	s, t = canonical(s, t)
	q := &biPushQuery{e: e, start: start, s: s, t: t, o: e.opts.withDefaults(g.N()), key: pairKey(e.seed, s, t)}
	if err := cancel.Check(ctx); err != nil {
		e.metrics.ObserveQuery(obs.QueryObservation{Duration: time.Since(start), Canceled: true})
		return nil, err
	}
	for i, src := range []int{s, t} {
		if err := q.sides[i].push(ctx, e.pusher, src, s, t, q.o); err != nil {
			q.observeAbort(q.sides[:i+1], tally{}, err)
			return nil, err
		}
		if q.sides[i].total > 0 {
			q.n[i] = q.o.Walks
		}
	}
	// Fault hook, fired once per residual-correction walk; nil unless armed.
	q.fi = faultinject.At(faultinject.SiteWalkLoop)
	return q, nil
}

// Shards implements PairJob.
func (q *biPushQuery) Shards(n int) []walk.Job { return q.split(q, n) }

// walk implements walkSource: walk k of side, its start drawn from the
// side's residual distribution on the walk's own stream.
func (q *biPushQuery) walk(side, k int, rng *randx.RNG) (walk.Walk, error) {
	if err := q.fi.Fire(); err != nil {
		return walk.Walk{}, err
	}
	rng.Seed(walkKey(q.key, side, k))
	sd := &q.sides[side]
	idx := sort.SearchFloat64s(sd.cum, rng.Float64()*sd.total)
	if idx >= len(sd.nodes) {
		idx = len(sd.nodes) - 1
	}
	return walk.Walk{Src: int(sd.nodes[idx]), V: q.e.pusher.landmark, A: q.s, B: q.t, MaxSteps: q.o.MaxSteps}, nil
}

// observeAbort records the partial push and walk work of a failed query.
func (q *biPushQuery) observeAbort(sides []biPushSide, walked tally, err error) {
	ob := obs.QueryObservation{Duration: time.Since(q.start), Walks: int64(walked.walks), WalkSteps: walked.steps}
	for _, side := range sides {
		ob.PushOps += side.stats.Ops
		ob.Pushes += side.stats.Pushes
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
	t, err := q.totals()
	if err == nil {
		err = runErr
	}
	if err != nil {
		walked := t[0]
		walked.add(t[1])
		q.observeAbort(q.sides[:], walked, err)
		return Estimate{}, err
	}
	fromS, fromT := &q.sides[0], &q.sides[1]
	for i, sd := range []*biPushSide{fromS, fromT} {
		if sd.total > 0 {
			// Every correction walk watches A = s and B = t.
			scale := sd.total / float64(q.o.Walks)
			sd.tauToS += float64(t[i].na) * scale
			sd.tauToT += float64(t[i].nb) * scale
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
	walks, hits := t[0].walks+t[1].walks, t[0].hits+t[1].hits
	est := Estimate{
		Value:        val,
		Walks:        walks,
		WalkSteps:    t[0].steps + t[1].steps,
		PushOps:      fromS.stats.Ops + fromT.stats.Ops,
		LandmarkHits: hits,
		ResidualL1:   fromS.stats.ResidualL1 + fromT.stats.ResidualL1,
		Duration:     time.Since(q.start),
		Converged:    fromS.stats.Converged && fromT.stats.Converged && hits == walks,
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
// a non-cancellable ctx the estimate is byte-identical to Pair.
func (e *BiPushEstimator) PairContext(ctx context.Context, s, t int) (Estimate, error) {
	q, err := e.StartPair(ctx, s, t)
	if err != nil {
		return Estimate{}, err
	}
	return runPair(ctx, e.sampler, q)
}
