package landmarkrd

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"landmarkrd/internal/core"
	"landmarkrd/internal/randx"
)

// PortfolioIndex is a K-landmark index with a cost-law router: one
// precomputed column r(·, ℓ_j) per landmark, and per-query routing to the
// landmark with the smallest r(s,ℓ)+r(t,ℓ) — the pair's estimated cost
// under the paper's hitting-time cost law (commute identity
// Vol·r = h(s,ℓ)+h(ℓ,s)). A single hub landmark loses on large-κ graphs
// (grids, roads) precisely because hitting times to it are large; K spread
// landmarks turn that into a memory/speed knob: K·n floats buy every query
// a nearby landmark.
type PortfolioIndex = core.Portfolio

// PortfolioStats snapshots per-landmark routed-query counts and conflict
// fallbacks (PortfolioIndex.Stats).
type PortfolioStats = core.PortfolioStats

// PortfolioBuildOptions configures BuildPortfolioIndex. The zero value
// builds a K=4 DiagExactCG portfolio with MaxDegree-seeded selection.
type PortfolioBuildOptions struct {
	// K is the portfolio size (default 4, clamped to the graph size).
	K int
	// Strategy picks the primary landmark; the remaining K−1 maximize a
	// cost-law score (degree + coreness + sampled-walk visits) times hop
	// distance to the already-chosen set, so hubs win on social graphs and
	// spatial spread wins on grids and paths.
	Strategy Strategy
	// Landmarks pins the landmark set explicitly, overriding K/Strategy.
	Landmarks []int
	// Mode selects the column builder (DiagExactCG, DiagMC, DiagSketch).
	// DiagSketch builds one sketch shared by all K columns.
	Mode DiagMode
	// Seed drives all randomness (default 1). For a fixed seed the
	// portfolio is byte-identical at any worker count.
	Seed uint64
	// Workers shards each column build (default GOMAXPROCS).
	Workers int
	// Precond selects the CG preconditioner per landmark column (default
	// PrecondJacobi; see PrecondMode). PrecondAuto resolves independently
	// per landmark; the resolved modes appear in the portfolio's
	// PrecondModes field and Stats.
	Precond PrecondMode
	// Metrics, when non-nil, receives one IndexBuilds increment, the total
	// build time (IndexBuildTime), and per-column ColumnBuildTime
	// observations.
	Metrics *Metrics
}

// BuildPortfolioIndex selects K landmarks by the cost-law score and builds
// one diagonal column per landmark. See PortfolioIndex for the routing
// model and SingleSource/NewPortfolioEstimator/BatchOptions.Portfolio for
// the query paths.
func BuildPortfolioIndex(g *Graph, opts PortfolioBuildOptions) (*PortfolioIndex, error) {
	if err := requireGraph(g); err != nil {
		return nil, err
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	return core.BuildPortfolio(g, core.PortfolioOptions{
		K:           opts.K,
		Strategy:    opts.Strategy,
		Landmarks:   opts.Landmarks,
		Mode:        opts.Mode,
		Workers:     opts.Workers,
		Metrics:     opts.Metrics,
		Precond:     opts.Precond,
		PrecondSeed: seed,
	}, randx.New(seed))
}

// ServingPortfolioK resolves the portfolio size of a serving
// configuration: 0 (or less) means 1, a single landmark column.
// LiveOptions.PortfolioK, rdserver -portfolio, rdquery -portfolio
// (single-source) and rdbench -snapshot-k all resolve through it, while
// BuildPortfolioIndex itself reads K=0 as 4.
func ServingPortfolioK(k int) int { return max(k, 1) }

// ParseLandmarkList parses a comma-separated vertex list ("3,17,42") into
// landmark indices for PortfolioBuildOptions.Landmarks — the flag syntax
// rdserver replicas use to serve a shard subset of a fleet-wide portfolio.
// Vertices must be non-negative and distinct; whitespace around entries is
// ignored and an empty string yields nil.
func ParseLandmarkList(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	seen := make(map[int]bool, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("landmarkrd: landmark list entry %q: %w", p, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("landmarkrd: landmark list entry %d is negative", v)
		}
		if seen[v] {
			return nil, fmt.Errorf("landmarkrd: landmark %d listed twice", v)
		}
		seen[v] = true
		out = append(out, v)
	}
	return out, nil
}

// SelectPortfolioLandmarks picks k landmarks by the portfolio cost-law
// score without building columns — the primary by strategy, the rest by
// score × hop-distance spread.
func SelectPortfolioLandmarks(g *Graph, k int, s Strategy, seed uint64) ([]int, error) {
	if err := requireGraph(g); err != nil {
		return nil, err
	}
	return core.SelectPortfolioLandmarks(g, k, s, randx.New(seed))
}

// PortfolioSingleSource computes r(s,·) through the portfolio's cheapest
// landmark for s, returning the answers and the landmark that served them.
func PortfolioSingleSource(p *PortfolioIndex, s int) ([]float64, int, error) {
	return p.SingleSource(s, core.SingleSourceOptions{})
}

// PortfolioSingleSourceContext is PortfolioSingleSource with cancellation.
func PortfolioSingleSourceContext(ctx context.Context, p *PortfolioIndex, s int) ([]float64, int, error) {
	return p.SingleSourceContext(ctx, s, core.SingleSourceOptions{})
}

// PortfolioEstimator answers pair queries through a portfolio: each query
// routes to the landmark with the smallest cost-law score for (s,t) and
// falls back across the remaining landmarks, in cost order, when the
// routed landmark collides with an endpoint (ErrLandmarkConflict). Any
// Method works per landmark. Like Estimator it is not safe for concurrent
// use; the batch engine pools them per worker.
type PortfolioEstimator struct {
	p       *PortfolioIndex
	method  Method
	ests    []*Estimator
	metrics *Metrics
}

// NewPortfolioEstimator builds one per-landmark estimator per portfolio
// member, all recording into a single shared metrics sink. Each landmark's
// estimator gets its own random stream derived from opts.Seed, so results
// do not depend on which other landmarks exist in the portfolio.
func NewPortfolioEstimator(p *PortfolioIndex, m Method, opts Options) (*PortfolioEstimator, error) {
	if p == nil {
		return nil, errors.New("landmarkrd: nil portfolio")
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	e := &PortfolioEstimator{p: p, method: m, metrics: &Metrics{}}
	for j, v := range p.Landmarks {
		lopts := opts
		lopts.Seed = seed + uint64(j)*0x9e3779b97f4a7c15
		if lopts.Seed == 0 {
			lopts.Seed = 1
		}
		est, err := NewEstimatorAt(p.G, m, v, lopts)
		if err != nil {
			return nil, err
		}
		est.SetMetrics(e.metrics)
		e.ests = append(e.ests, est)
	}
	return e, nil
}

// Method returns the per-landmark algorithm in use.
func (e *PortfolioEstimator) Method() Method { return e.method }

// Portfolio returns the underlying portfolio index.
func (e *PortfolioEstimator) Portfolio() *PortfolioIndex { return e.p }

// Landmarks returns the portfolio landmark vertices.
func (e *PortfolioEstimator) Landmarks() []int { return e.p.Landmarks }

// Metrics returns the shared metrics sink (always non-nil).
func (e *PortfolioEstimator) Metrics() *Metrics { return e.metrics }

// SetMetrics redirects all per-landmark estimators to record into m. Call
// before issuing queries, not concurrently with them.
func (e *PortfolioEstimator) SetMetrics(m *Metrics) {
	e.metrics = m
	for _, est := range e.ests {
		est.SetMetrics(m)
	}
}

// Stats snapshots the shared metrics sink.
func (e *PortfolioEstimator) Stats() Stats { return e.metrics.Snapshot() }

// Reseed resets every per-landmark estimator's random stream to a
// deterministic function of seed (each landmark keeps its own offset).
func (e *PortfolioEstimator) Reseed(seed uint64) {
	if seed == 0 {
		seed = 1
	}
	for j, est := range e.ests {
		s := seed + uint64(j)*0x9e3779b97f4a7c15
		if s == 0 {
			s = 1
		}
		est.Reseed(s)
	}
}

// Pair estimates r(s,t) through the cheapest non-conflicting landmark.
func (e *PortfolioEstimator) Pair(s, t int) (Estimate, error) {
	return e.PairContext(context.Background(), s, t)
}

// PairContext is Pair with cancellation. Routing: landmarks are tried in
// ascending cost-law order; one that equals s or t is skipped (counted as
// a RouterFallback). Only if every landmark conflicts does the query fail
// with ErrLandmarkConflict — with K ≥ 3 distinct landmarks that cannot
// happen.
func (e *PortfolioEstimator) PairContext(ctx context.Context, s, t int) (Estimate, error) {
	g := e.p.G
	if err := g.ValidateVertex(s); err != nil {
		return Estimate{}, err
	}
	if err := g.ValidateVertex(t); err != nil {
		return Estimate{}, err
	}
	for _, j := range e.p.Route(s, t) {
		v := e.p.Landmarks[j]
		if v == s || v == t {
			e.p.NoteFallback()
			e.metrics.RouterFallbacks.Inc()
			continue
		}
		res, err := e.ests[j].PairContext(ctx, s, t)
		if err != nil {
			if errors.Is(err, ErrLandmarkConflict) {
				e.p.NoteFallback()
				e.metrics.RouterFallbacks.Inc()
				continue
			}
			return res, err
		}
		e.p.NoteRouted(j)
		e.metrics.PortfolioQueries.Inc()
		return res, nil
	}
	return Estimate{}, fmt.Errorf("landmarkrd: every portfolio landmark conflicts with query (%d,%d): %w", s, t, ErrLandmarkConflict)
}
