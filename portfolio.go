package landmarkrd

import (
	"context"
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
	// DiagSketch solves one set of sketch rows and folds each row into all
	// K columns as it is solved, never holding the whole sketch.
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
	// build time (IndexBuildTime), per-column ColumnBuildTime
	// observations, and a Panics increment when a DiagSketch row-solve
	// worker panics.
	Metrics *Metrics
}

// BuildPortfolioIndex selects K landmarks by the cost-law score and builds
// one diagonal column per landmark. See PortfolioIndex for the routing
// model, and PortfolioSingleSource and BatchOptions.Portfolio for the
// query paths.
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
// score × hop-distance spread. Seed 0 means 1, as in BuildPortfolioIndex,
// so it names the landmarks a build with the same K, Strategy and Seed
// selects.
func SelectPortfolioLandmarks(g *Graph, k int, s Strategy, seed uint64) ([]int, error) {
	if err := requireGraph(g); err != nil {
		return nil, err
	}
	return core.SelectPortfolioLandmarks(g, k, s, randx.New(max(seed, 1)))
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
