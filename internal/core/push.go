package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"landmarkrd/internal/cancel"
	"landmarkrd/internal/faultinject"
	"landmarkrd/internal/graph"
	"landmarkrd/internal/lap"
	"landmarkrd/internal/obs"
)

// PushOptions controls the grounded forward-push computation.
type PushOptions struct {
	// Theta is the degree-normalized residual threshold: the push stops
	// once res(u) ≤ Theta·d_u for every u. This is the algorithm's
	// accuracy knob, exactly like r_max in personalized-PageRank push.
	// The a-priori error bound is Theta·h(x,v) per τ(·,x)/d_x estimate
	// (h = hitting time to the landmark), and the a-posteriori bound is
	// ‖res‖₁·r(x,v). Default 1e-4.
	Theta float64
	// MaxOps bounds the number of edge relaxations (default 1<<32).
	// When exhausted the run reports Converged == false.
	MaxOps int64
}

func (o *PushOptions) withDefaults() PushOptions {
	out := *o
	if out.Theta <= 0 {
		out.Theta = 1e-4
	}
	if out.MaxOps <= 0 {
		out.MaxOps = 1 << 32
	}
	return out
}

// PushStats reports the outcome of one push run.
type PushStats struct {
	Ops        int64   // edge relaxations performed
	Pushes     int64   // vertex pushes performed
	ResidualL1 float64 // final ‖res‖₁
	Touched    int     // number of distinct vertices with nonzero state
	Converged  bool    // threshold met within MaxOps
}

// Pusher runs grounded forward pushes from arbitrary sources against a
// fixed (graph, landmark) pair, reusing O(n) workspaces across runs.
// It is not safe for concurrent use; the state produced by Run remains
// readable until the next Run call.
type Pusher struct {
	g        *graph.Graph
	landmark int

	est     []float64
	res     []float64
	touched []int32
	marked  []bool
	inQueue []bool
	queue   []int32
}

// NewPusher returns a Pusher for landmark v on g.
func NewPusher(g *graph.Graph, landmark int) (*Pusher, error) {
	if err := g.ValidateVertex(landmark); err != nil {
		return nil, fmt.Errorf("core: invalid landmark: %w", err)
	}
	if err := requireConnected(g); err != nil {
		return nil, err
	}
	n := g.N()
	return &Pusher{
		g:        g,
		landmark: landmark,
		est:      make([]float64, n),
		res:      make([]float64, n),
		marked:   make([]bool, n),
		inQueue:  make([]bool, n),
	}, nil
}

// Landmark returns the landmark vertex the pusher is grounded at.
func (p *Pusher) Landmark() int { return p.landmark }

// reset clears the sparse state left by the previous run.
func (p *Pusher) reset() {
	for _, u := range p.touched {
		p.est[u] = 0
		p.res[u] = 0
		p.marked[u] = false
		p.inQueue[u] = false
	}
	p.touched = p.touched[:0]
	p.queue = p.queue[:0]
}

func (p *Pusher) touch(u int32) {
	if !p.marked[u] {
		p.marked[u] = true
		p.touched = append(p.touched, u)
	}
}

// Run performs a grounded push from src, maintaining the invariant
//
//	τ_v(src, x) = est(x) + Σ_u res(u)·τ_v(u, x)   for every x,
//
// with res ≥ 0 throughout. A vertex is pushed while res(u) > Theta·d_u;
// on termination every residual is below its threshold, giving the
// a-priori error bound τ(src,x)/d_x − est(x)/d_x ≤ Theta·h(x, v).
func (p *Pusher) Run(src int, opts PushOptions) (PushStats, error) {
	return p.RunContext(context.Background(), src, opts)
}

// pushCheckOps is the cancellation poll period in edge relaxations. One
// relaxation is a handful of nanoseconds, so an 8192-op period keeps the
// poll far below 0.1% while bounding abort latency to tens of
// microseconds.
const pushCheckOps = 8192

// RunContext is Run with cancellation: the queue loop polls ctx every
// pushCheckOps edge relaxations and aborts with a cancel.Error once the
// context is done, returning the stats of the partial run. With a
// non-cancellable ctx the push is byte-identical to Run.
func (p *Pusher) RunContext(ctx context.Context, src int, opts PushOptions) (PushStats, error) {
	o := opts.withDefaults()
	g := p.g
	if err := g.ValidateVertex(src); err != nil {
		return PushStats{}, err
	}
	if src == p.landmark {
		return PushStats{}, ErrLandmarkConflict
	}
	done := cancel.Done(ctx)
	if done != nil {
		if err := cancel.Check(ctx); err != nil {
			return PushStats{}, err
		}
	}
	// Fault hook, polled at the cancellation cadence; nil unless armed.
	// One entry fire guarantees every run hits the site at least once even
	// when the queue drains in fewer than pushCheckOps relaxations.
	fi := faultinject.At(faultinject.SitePushQueue)
	if err := fi.Fire(); err != nil {
		return PushStats{}, err
	}
	p.reset()
	p.res[src] = 1
	p.touch(int32(src))
	theta := o.Theta

	stats := PushStats{}
	enqueue := func(u int32) {
		if !p.inQueue[u] {
			p.inQueue[u] = true
			p.queue = append(p.queue, u)
		}
	}
	enqueue(int32(src))

	head := 0
	nextCheck := int64(pushCheckOps)
	for head < len(p.queue) {
		if (done != nil || fi != nil) && stats.Ops >= nextCheck {
			nextCheck = stats.Ops + pushCheckOps
			if done != nil {
				select {
				case <-done:
					stats.ResidualL1 = p.residualL1()
					stats.Touched = len(p.touched)
					return stats, cancel.Wrap(ctx.Err())
				default:
				}
			}
			if err := fi.Fire(); err != nil {
				stats.ResidualL1 = p.residualL1()
				stats.Touched = len(p.touched)
				return stats, err
			}
		}
		u := p.queue[head]
		head++
		// Reclaim queue space occasionally so long runs stay O(touched).
		if head > 1<<16 && head*2 > len(p.queue) {
			p.queue = append(p.queue[:0], p.queue[head:]...)
			head = 0
		}
		p.inQueue[u] = false
		ru := p.res[u]
		du := g.WeightedDegree(int(u))
		if ru <= theta*du {
			continue // stale entry
		}
		stats.Pushes++
		p.est[u] += ru
		p.res[u] = 0
		inv := ru / du
		g.ForEachNeighbor(int(u), func(w int32, wt float64) {
			stats.Ops++
			if int(w) == p.landmark {
				return // mass absorbed
			}
			p.res[w] += inv * wt
			p.touch(w)
			if p.res[w] > theta*g.WeightedDegree(int(w)) {
				enqueue(w)
			}
		})
		if stats.Ops > o.MaxOps {
			stats.ResidualL1 = p.residualL1()
			stats.Touched = len(p.touched)
			return stats, nil
		}
	}
	stats.Converged = true
	stats.ResidualL1 = p.residualL1()
	stats.Touched = len(p.touched)
	return stats, nil
}

func (p *Pusher) residualL1() float64 {
	var s float64
	for _, u := range p.touched {
		s += p.res[u]
	}
	return s
}

// Estimate returns est(x) ≈ τ_v(src, x) from the most recent run
// (an underestimate: est(x) ≤ τ(src,x)).
func (p *Pusher) Estimate(x int) float64 { return p.est[x] }

// GroundedEntry returns est(x)/d_x ≈ L_v⁻¹[src, x] from the last run.
func (p *Pusher) GroundedEntry(x int) float64 {
	return p.est[x] / p.g.WeightedDegree(x)
}

// Residuals returns the vertices with positive residual and their values.
// The slices alias internal state and are valid until the next Run.
func (p *Pusher) Residuals() (nodes []int32, values []float64) {
	for _, u := range p.touched {
		if p.res[u] > 0 {
			nodes = append(nodes, u)
			values = append(values, p.res[u])
		}
	}
	return nodes, values
}

// TouchedVertices returns the vertices with any state from the last run.
// The slice aliases internal storage.
func (p *Pusher) TouchedVertices() []int32 { return p.touched }

// PushEstimator answers pairwise queries with two grounded pushes.
type PushEstimator struct {
	pusher  *Pusher
	opts    PushOptions
	hit     []float64 // cached exact hitting times h(·, landmark)
	metrics *obs.Metrics
}

// NewPushEstimator builds a push-based pair estimator with landmark v.
func NewPushEstimator(g *graph.Graph, landmark int, opts PushOptions) (*PushEstimator, error) {
	p, err := NewPusher(g, landmark)
	if err != nil {
		return nil, err
	}
	return &PushEstimator{pusher: p, opts: opts, metrics: &obs.Metrics{}}, nil
}

// Metrics returns the estimator's metrics sink.
func (e *PushEstimator) Metrics() *obs.Metrics { return e.metrics }

// SetMetrics redirects recording to m (e.g. a sink shared across a pool of
// estimators). Call before issuing queries, not concurrently with them.
func (e *PushEstimator) SetMetrics(m *obs.Metrics) { e.metrics = m }

// Pair estimates r(s,t). The deterministic error bound follows from the
// push invariant: each τ(x,·) estimate is off by at most ‖res‖₁·τ(x,x),
// i.e. ‖res‖₁·d_x·r(x,v).
func (e *PushEstimator) Pair(s, t int) (Estimate, error) {
	return e.PairContext(context.Background(), s, t)
}

// PairContext is Pair with cancellation: both grounded pushes poll ctx
// every few thousand edge relaxations and abort with a cancel.Error once
// the context is done. The push work done before the abort is recorded in
// the metrics as a canceled observation. With a non-cancellable ctx the
// estimate is byte-identical to Pair.
func (e *PushEstimator) PairContext(ctx context.Context, s, t int) (Estimate, error) {
	start := time.Now()
	g := e.pusher.g
	v := e.pusher.landmark
	if err := validateQuery(g, v, s, t); err != nil {
		e.metrics.ObserveQuery(obs.QueryObservation{Err: true})
		return Estimate{}, err
	}
	if s == t {
		return Estimate{Converged: true}, nil
	}
	s, t = canonical(s, t) // one answer per pair, whichever way it is asked
	ds, dt := g.WeightedDegree(s), g.WeightedDegree(t)

	canceled := func(ops, pushes int64, cause error) (Estimate, error) {
		e.metrics.ObserveQuery(obs.QueryObservation{
			Duration: time.Since(start),
			PushOps:  ops,
			Pushes:   pushes,
			Canceled: true,
		})
		return Estimate{}, cause
	}
	statsS, err := e.pusher.RunContext(ctx, s, e.opts)
	if err != nil {
		if errors.Is(err, cancel.ErrCanceled) {
			return canceled(statsS.Ops, statsS.Pushes, err)
		}
		return Estimate{}, err
	}
	tauSS := e.pusher.Estimate(s)
	tauST := e.pusher.Estimate(t)

	statsT, err := e.pusher.RunContext(ctx, t, e.opts)
	if err != nil {
		if errors.Is(err, cancel.ErrCanceled) {
			return canceled(statsS.Ops+statsT.Ops, statsS.Pushes+statsT.Pushes, err)
		}
		return Estimate{}, err
	}
	tauTT := e.pusher.Estimate(t)
	tauTS := e.pusher.Estimate(s)

	val := tauSS/ds + tauTT/dt - tauST/dt - tauTS/ds
	est := Estimate{
		Value:     val,
		PushOps:   statsS.Ops + statsT.Ops,
		Converged: statsS.Converged && statsT.Converged,
	}
	// A-posteriori bound. r(x,v) ≥ est_x(x)/d_x and, when ‖res‖₁ < 1,
	// r(x,v) ≤ (est_x(x)/d_x)/(1 − ‖res‖₁).
	resTotal := statsS.ResidualL1 + statsT.ResidualL1
	est.ResidualL1 = resTotal
	est.Duration = time.Since(start)
	o := est.observation()
	o.Pushes = statsS.Pushes + statsT.Pushes
	e.metrics.ObserveQuery(o)
	rsv := tauSS / ds
	rtv := tauTT / dt
	if statsS.ResidualL1 < 1 {
		rsv /= 1 - statsS.ResidualL1
	} else {
		rsv = math.Inf(1)
	}
	if statsT.ResidualL1 < 1 {
		rtv /= 1 - statsT.ResidualL1
	} else {
		rtv = math.Inf(1)
	}
	est.ErrBound = resTotal * math.Max(rsv, rtv)
	return est, nil
}

// targetCache lazily holds the exact hitting times h(·, v) used by
// PairWithTarget to convert an error target into a push threshold.
func (e *PushEstimator) hittingTimes() ([]float64, error) {
	if e.hit == nil {
		h, err := lap.HittingTimesTo(e.pusher.g, e.pusher.landmark, 1e-8)
		if err != nil {
			return nil, err
		}
		e.hit = h
	}
	return e.hit, nil
}

// PairWithTarget estimates r(s,t) with the push threshold chosen from the
// a-priori error bound so that the deterministic error is at most eps:
// each of the four τ terms is off by at most θ·h(x,v) in resistance units,
// so θ = eps / (2·(h(s,v) + h(t,v))) suffices. The first call pays one
// grounded solve to compute the exact hitting times h(·, v); subsequent
// calls reuse them.
func (e *PushEstimator) PairWithTarget(s, t int, eps float64) (Estimate, error) {
	if eps <= 0 {
		return Estimate{}, fmt.Errorf("core: PairWithTarget needs eps > 0, got %v", eps)
	}
	if err := validateQuery(e.pusher.g, e.pusher.landmark, s, t); err != nil {
		return Estimate{}, err
	}
	if s == t {
		return Estimate{Converged: true}, nil
	}
	h, err := e.hittingTimes()
	if err != nil {
		return Estimate{}, err
	}
	denom := 2 * (h[s] + h[t])
	if denom < 2 {
		denom = 2
	}
	saved := e.opts
	e.opts.Theta = eps / denom
	est, err := e.Pair(s, t)
	e.opts = saved
	return est, err
}
