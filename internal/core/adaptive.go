package core

import (
	"context"
	"math"
	"time"

	"landmarkrd/internal/faultinject"
	"landmarkrd/internal/graph"
	"landmarkrd/internal/obs"
	"landmarkrd/internal/randx"
	"landmarkrd/internal/walk"
)

// AdaptivePair is one (s, t) query in an adaptive Monte Carlo batch.
type AdaptivePair struct {
	S, T int
}

// AdaptiveOptions configures AdaptiveBatch.
type AdaptiveOptions struct {
	// TotalWalks is the batch-wide walk-pair budget (default
	// 2000·len(pairs), matching the fixed-budget estimator's per-pair
	// default). One walk-pair is one absorbed walk from s plus one from t.
	TotalWalks int
	// PilotWalks is the per-pair pilot round size (default 64, clamped so
	// the pilot never exceeds the total budget).
	PilotWalks int
	// MaxSteps truncates each walk (default 100·n, as in AbWalkOptions).
	MaxSteps int
	// Workers shards pairs across a worker pool (default GOMAXPROCS).
	// Results are byte-identical for a fixed seed at any worker count:
	// every pair samples from its own random stream and the budget
	// allocation depends only on the (deterministic) pilot statistics.
	Workers int
	// Metrics, when non-nil, receives one ObserveQuery per pair.
	Metrics *obs.Metrics
}

// AdaptiveResult is one pair's outcome: the estimate, the 95%
// normal-approximation half-width the allocation equalized, and a per-pair
// error (landmark conflict, invalid vertex, sampling fault).
type AdaptiveResult struct {
	Estimate Estimate
	ErrBound float64
	Err      error
}

// adaptivePairState is the accumulator a pair carries across the pilot and
// top-up rounds. Its walks are AbWalk's walk-pairs, keyed by the batch
// seed and the pair as AbWalkEstimator keys them, so which worker samples
// a walk, in which round, and beside which other walks in the lanes cannot
// change the estimate. Each round is a walk.Job of todo walk-pairs
// (adaptiveRound), with the fault hook fired once per walk-pair.
type adaptivePairState struct {
	s, t     int // s < t
	ds, dt   float64
	key      uint64 // the pair's stream key
	sum      float64
	sumSq    float64
	walks    int // walk-pairs sampled so far
	extra    int // top-up allocation
	steps    int64
	hits     int
	elapsed  time.Duration
	err      error
	inactive bool // validation failed or s == t; sampled by neither round

	// The current round: walk-pairs from, from+1, ….
	landmark, maxSteps, from int
	fi                       *faultinject.Hook
	t0                       time.Time
}

// walk implements walkSource: the walk of side in walk-pair from+k, as
// AbWalk deals walk-pair from+k.
func (st *adaptivePairState) walk(side, k int, rng *randx.RNG) (walk.Walk, error) {
	return pairWalk(st.s, st.t, st.landmark, st.maxSteps, st.key, st.fi, side, st.from+k, rng)
}

// round returns the pair's next todo walk-pairs as a walk.Job.
func (st *adaptivePairState) round(todo, landmark, maxSteps int, fi *faultinject.Hook) walk.Job {
	st.landmark, st.maxSteps, st.from, st.fi, st.t0 = landmark, maxSteps, st.walks, fi, time.Now()
	pw := &pairWalks{n: [2]int{todo, todo}}
	pw.withParts(st.ds, st.dt)
	return &adaptiveRound{shard: pw.split(st, 1)[0].(*shard), st: st}
}

// adaptiveRound is one round of a pair's walks, as one shard. Once they
// are over it folds their per-walk-pair statistic, in walk-pair order,
// into the pair's sums: exactly PairWithCIContext's fold, so a pilot and
// top-up totalling k walk-pairs reproduce a k-walk fixed-budget AbWalk
// estimate with the same seed bit for bit.
type adaptiveRound struct {
	*shard
	st *adaptivePairState
}

// Over adds the round to the pair, with its wall time.
func (r *adaptiveRound) Over() {
	st, pw := r.st, r.pw
	t, err := pw.totals()
	st.steps += t[0].steps + t[1].steps
	st.hits += t[0].hits + t[1].hits
	st.elapsed += time.Since(st.t0)
	if err != nil {
		st.err = err
		return
	}
	pw.fold(&st.sum, &st.sumSq)
	st.walks += pw.n[0]
}

// AdaptiveBatch estimates r(s,t) for a batch of pairs with a shared walk
// budget allocated GEER-style: a pilot round measures every pair's per-walk
// variance, then the remaining budget is split proportionally to those
// variances (Neyman allocation), concentrating samples on hard pairs so all
// pairs end at (approximately) equal a-priori 95% error bands — easy pairs
// stop at the pilot instead of burning the same budget as hard ones. Each
// pair is answered as (min, max), its walks keyed by seed and the pair.
//
// Per-pair failures (landmark conflict, invalid vertices) land in that
// pair's AdaptiveResult.Err; the batch error is reserved for cancellation.
// Every estimate is an unbiased sample mean of the same per-walk statistic
// the fixed-budget estimator uses, and for a fixed seed the results are
// byte-identical at any worker count.
func AdaptiveBatch(ctx context.Context, g *graph.Graph, landmark int, pairs []AdaptivePair, opts AdaptiveOptions, seed uint64) ([]AdaptiveResult, error) {
	results := make([]AdaptiveResult, len(pairs))
	if len(pairs) == 0 {
		return results, nil
	}
	if err := g.ValidateVertex(landmark); err != nil {
		return nil, err
	}
	if err := requireConnected(g); err != nil {
		return nil, err
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 100 * g.N()
		if maxSteps < 100000 {
			maxSteps = 100000
		}
	}
	total := opts.TotalWalks
	if total <= 0 {
		total = 2000 * len(pairs)
	}
	pilot := opts.PilotWalks
	if pilot <= 0 {
		pilot = 64
	}
	if pilot*len(pairs) > total {
		pilot = total / len(pairs)
		if pilot < 1 {
			pilot = 1
		}
	}

	states := make([]*adaptivePairState, len(pairs))
	for i, pr := range pairs {
		st := &adaptivePairState{}
		states[i] = st
		if err := validateQuery(g, landmark, pr.S, pr.T); err != nil {
			st.err = err
			st.inactive = true
			continue
		}
		if pr.S == pr.T {
			st.inactive = true // results[i] stays the zero estimate, Converged below
			continue
		}
		st.s, st.t = canonical(pr.S, pr.T)
		st.key = pairKey(seed, st.s, st.t)
		st.ds, st.dt = g.WeightedDegree(st.s), g.WeightedDegree(st.t)
	}

	workers := indexWorkers(IndexOptions{Workers: opts.Workers}, len(pairs))

	// samplePhase runs count(i) additional walk-pairs for every live pair,
	// sharded across workers, each worker running its pairs in the walk
	// lanes. A canceled pair poisons the whole batch; any other sampling
	// failure is recorded on the pair alone.
	samplePhase := func(count func(i int) int) error {
		return runIndexWorkers(workers, opts.Metrics, func(worker int, _ *obs.Metrics) error {
			fi := faultinject.At(faultinject.SiteWalkLoop)
			i := worker
			return walk.NewSampler(g).RunJobs(ctx, func() walk.Job {
				for ; i < len(states); i += workers {
					st := states[i]
					if st.inactive || st.err != nil {
						continue
					}
					if n := count(i); n > 0 {
						i += workers
						return st.round(n, landmark, maxSteps, fi)
					}
				}
				return nil
			})
		})
	}

	// Pilot round: equal footing, enough walks for a usable variance
	// estimate.
	if err := samplePhase(func(int) int { return pilot }); err != nil {
		return nil, err
	}

	// Neyman allocation of the remaining budget: extra_i ∝ σ̂_i², which
	// equalizes the a-priori half-widths 1.96·σ̂_i/√n_i across pairs.
	live := 0
	for _, st := range states {
		if !st.inactive && st.err == nil {
			live++
		}
	}
	if extra := total - pilot*live; extra > 0 && live > 0 {
		allocateByVariance(states, extra)
		if err := samplePhase(func(i int) int { return states[i].extra }); err != nil {
			return nil, err
		}
	}

	for i, st := range states {
		if st.err != nil {
			results[i].Err = st.err
			opts.Metrics.ObserveQuery(obs.QueryObservation{Err: true})
			continue
		}
		if st.inactive { // s == t
			results[i].Estimate = Estimate{Converged: true}
			continue
		}
		nr := float64(st.walks)
		mean := st.sum / nr
		variance := math.Max(0, st.sumSq/nr-mean*mean)
		half := 1.96 * math.Sqrt(variance/nr)
		if mean < 0 {
			mean = 0 // resistance cannot be negative; clamp sampling noise
		}
		est := Estimate{
			Value:        mean,
			ErrBound:     half,
			Walks:        2 * st.walks,
			WalkSteps:    st.steps,
			LandmarkHits: st.hits,
			Duration:     st.elapsed,
			Converged:    st.hits == 2*st.walks,
		}
		results[i].Estimate = est
		results[i].ErrBound = half
		opts.Metrics.ObserveQuery(est.observation())
	}
	return results, nil
}

// allocateByVariance splits extra walk-pairs across the live pairs
// proportionally to their pilot sample variances, using largest-remainder
// rounding (ties by index) so the allocation is integral, exhausts the
// budget exactly, and is deterministic. A degenerate all-zero-variance pilot
// falls back to an even split.
func allocateByVariance(states []*adaptivePairState, extra int) {
	type share struct {
		i    int
		frac float64
	}
	var sumVar float64
	live := make([]int, 0, len(states))
	for i, st := range states {
		st.extra = 0
		if st.inactive || st.err != nil {
			continue
		}
		live = append(live, i)
		nr := float64(st.walks)
		mean := st.sum / nr
		sumVar += math.Max(0, st.sumSq/nr-mean*mean)
	}
	if len(live) == 0 {
		return
	}
	shares := make([]share, 0, len(live))
	assigned := 0
	for _, i := range live {
		st := states[i]
		var want float64
		if sumVar > 0 {
			nr := float64(st.walks)
			mean := st.sum / nr
			want = float64(extra) * math.Max(0, st.sumSq/nr-mean*mean) / sumVar
		} else {
			want = float64(extra) / float64(len(live))
		}
		base := int(math.Floor(want))
		st.extra = base
		assigned += base
		shares = append(shares, share{i: i, frac: want - float64(base)})
	}
	// Hand the leftover walks to the largest fractional remainders,
	// breaking ties by index for determinism.
	for rem := extra - assigned; rem > 0; rem-- {
		best := -1
		for j := range shares {
			if best < 0 || shares[j].frac > shares[best].frac {
				best = j
			}
		}
		if best < 0 {
			break
		}
		states[shares[best].i].extra++
		shares[best].frac = -1
	}
}
