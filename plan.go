package landmarkrd

import (
	"fmt"

	"landmarkrd/internal/core"
	"landmarkrd/internal/lap"
	"landmarkrd/internal/randx"
)

// Plan is how a BatchEngine answers its pairs. An engine built with a
// pinned Method answers by that method. One built with Auto resolves its
// plan once, at construction, from a seeded work pilot, so every LiveIndex
// epoch plans afresh on its own graph (DESIGN.md §10). AdaptivePairs does
// not follow the plan. The degraded tier follows it only on an exact plan,
// where the exact path also answers the queries the tier would have
// (DegradeBelow, DegradedPairsContext).
type Plan struct {
	// Path names the path that answers pairs: the pinned method
	// ("abwalk", "push", "bipush"), or under Auto either "bipush" (routed
	// BiPush, landmark conflicts answered exactly) or "exact" (one exact
	// grounded solve per pair, bit-identical to Exact).
	Path string `json:"path"`
	// PilotPairs is how many pairs the pilot drew (0 for a pinned method).
	PilotPairs int `json:"pilot_pairs"`
	// WalkMS and ExactMS are the modelled work of one pair on each path,
	// in milliseconds, averaged over the pilot pairs that path ran. The
	// pilot stops a path once its total passes the other path's, so the
	// dearer path may have run fewer pairs.
	WalkMS  float64 `json:"walk_ms_per_pair"`
	ExactMS float64 `json:"exact_ms_per_pair"`
}

// String renders the plan for logs.
func (p Plan) String() string {
	if p.PilotPairs == 0 {
		return p.Path
	}
	return fmt.Sprintf("%s (pilot %d pairs: walk %.3g ms/pair, exact %.3g ms/pair)",
		p.Path, p.PilotPairs, p.WalkMS, p.ExactMS)
}

// pathExact is the Plan.Path of the exact path.
const pathExact = "exact"

// The planner's work model, in nanoseconds per unit of counted work
// (DESIGN.md §10 gives where each was measured). They are constants, not
// options: comparing modelled work rather than wall time keeps the plan a
// pure function of graph, portfolio, options and seed.
const (
	planStepNS = 13.5 // one walk step: an alias draw plus two reads
	planPushNS = 13.0 // one push edge relaxation
	planCGNS   = 2.7  // one CG iteration, per entry of the n+2m sweep
)

const (
	planPilotPairs = 8  // pairs the pilot draws
	planWalkDiv    = 10 // the walk side runs 1/planWalkDiv of the walks
	// planSalt separates the pilot's stream from every query's stream.
	planSalt = 0xbb67ae8584caa73b
)

// pilotSide accumulates one path's modelled work over the pilot.
type pilotSide struct {
	pairs int
	ns    float64
}

func (s pilotSide) msPerPair() float64 { return s.ns / float64(s.pairs) / 1e6 }

// planAuto runs the Auto pilot and sets the engine's plan. The two paths
// advance in lockstep, the one with less work so far going next, and a
// path stops once its total passes the finished other path's total: the
// pilot then costs about twice P answers of the cheaper path, never P
// exact solves on a graph where walks are cheap.
func (e *BatchEngine) planAuto() error {
	rng := randx.New(e.seed ^ planSalt)
	pairs := e.pilotPairs(rng)
	e.plan = Plan{Path: BiPush.String(), PilotPairs: len(pairs)}
	if len(pairs) == 0 {
		return nil // every pair touches a landmark and resolves exactly anyway
	}
	walkOpts := e.opts.Options
	walks := walkOpts.Walks
	if walks == 0 {
		walks = core.DefaultBiPushWalks
	}
	scale := 1.0 // walk steps per pilot step
	if walks > 0 {
		walkOpts.Walks = max(walks/planWalkDiv, 1)
		scale = float64(walks) / float64(walkOpts.Walks)
	}
	iterNS := float64(int64(e.g.N())+2*e.g.M()) * planCGNS
	ests := make([]*Estimator, len(e.idle))
	var walk, exact pilotSide
	p := len(pairs)
	for walk.pairs < p || exact.pairs < p {
		if (walk.pairs == p && exact.ns > walk.ns) || (exact.pairs == p && walk.ns > exact.ns) {
			break // the unfinished path already costs more than the finished one
		}
		if walk.pairs < p && (exact.pairs == p || walk.ns <= exact.ns) {
			q := pairs[walk.pairs]
			j := e.pilotPosition(q)
			if ests[j] == nil {
				est, err := NewEstimatorAt(e.g, BiPush, e.landmarkAt(j), walkOpts)
				if err != nil {
					return err
				}
				est.SetMetrics(nil) // pilot work is not serving work
				ests[j] = est
			}
			ests[j].Reseed(rng.Uint64())
			res, err := ests[j].Pair(q[0], q[1])
			if err != nil {
				return err
			}
			walk.ns += float64(res.WalkSteps)*scale*planStepNS + float64(res.PushOps)*planPushNS
			walk.pairs++
			continue
		}
		// The exact side: once the walk side is finished, cap the solve
		// one iteration past the walk total.
		maxIter := 0
		if walk.pairs == p {
			maxIter = int((walk.ns-exact.ns)/iterNS) + 1
		}
		iters, err := e.pilotExactIters(pairs[exact.pairs], maxIter)
		if err != nil {
			return err
		}
		exact.ns += float64(iters) * iterNS
		exact.pairs++
	}
	e.plan.WalkMS, e.plan.ExactMS = walk.msPerPair(), exact.msPerPair()
	if e.plan.ExactMS < e.plan.WalkMS {
		e.plan.Path = pathExact
	}
	return nil
}

// pilotPairs draws up to planPilotPairs distinct-endpoint pairs from rng,
// skipping pairs that touch a landmark (those resolve exactly on either
// path).
func (e *BatchEngine) pilotPairs(rng *randx.RNG) [][2]int {
	n := e.g.N()
	if n < 2 {
		return nil
	}
	landmark := map[int]bool{e.landmark: true}
	if e.portfolio != nil {
		for _, v := range e.portfolio.Landmarks {
			landmark[v] = true
		}
	}
	var pairs [][2]int
	for tries := 0; len(pairs) < planPilotPairs && tries < 64*planPilotPairs; tries++ {
		s, t := rng.Intn(n), rng.Intn(n)
		if s != t && !landmark[s] && !landmark[t] {
			pairs = append(pairs, [2]int{s, t})
		}
	}
	return pairs
}

// pilotPosition is the portfolio position a walk answer of q routes to:
// the cheapest landmark (pilot pairs never touch one).
func (e *BatchEngine) pilotPosition(q [2]int) int {
	if e.portfolio == nil {
		return 0
	}
	return e.portfolio.Route(q[0], q[1])[0]
}

// pilotExactIters runs the solve the exact path would run for q (ground
// lap.GroundVertex, tolerance lap.ExactTol) and returns its CG iteration
// count. maxIter > 0 caps the solve; hitting the cap is not an error.
func (e *BatchEngine) pilotExactIters(q [2]int, maxIter int) (int, error) {
	s, t := q[0], q[1]
	solver := lap.NewGroundedSolver(e.g, lap.GroundVertex(e.g, s, t))
	solver.Metrics = &Metrics{} // pilot work is not serving work
	solver.MaxIter = maxIter
	b := make([]float64, e.g.N())
	b[s], b[t] = 1, -1
	_, res, err := solver.Solve(b, lap.ExactTol)
	if err != nil && !(maxIter > 0 && res.Iterations >= maxIter) {
		return 0, err
	}
	return res.Iterations, nil
}
