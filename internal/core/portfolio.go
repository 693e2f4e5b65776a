package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"landmarkrd/internal/graph"
	"landmarkrd/internal/obs"
	"landmarkrd/internal/randx"
	"landmarkrd/internal/walk"
)

// Portfolio is a K-landmark index: one grounded diagonal column
// Cols[j][t] = r(t, ℓ_j) per landmark, plus a per-query router. The paper's
// cost law says every landmark algorithm's work is governed by the hitting
// times h(s,ℓ)+h(t,ℓ) to the landmark, and by the commute identity
// Vol·r(s,ℓ) = h(s,ℓ) + h(ℓ,s) the precomputed columns are exactly a
// per-pair estimate of that cost — so the router scores landmark j for a
// pair (s,t) as Cols[j][s] + Cols[j][t] and picks the argmin. A single hub
// that fails on road-like large-κ graphs becomes a tunable memory/speed
// knob: K columns of n floats buy queries routed to the nearest landmark.
//
// A Portfolio is safe for concurrent queries and must not be copied after
// first use (the per-landmark indices recycle solver scratch through
// pools).
type Portfolio struct {
	G    *graph.Graph
	Mode DiagMode
	// Landmarks are the portfolio members, in selection order (the primary
	// strategy pick first).
	Landmarks []int
	// Cols[j][t] = r(t, Landmarks[j]); Cols[j][Landmarks[j]] = 0.
	Cols [][]float64
	// BuildTime is the wall time BuildPortfolio took (not persisted).
	BuildTime time.Duration
	// ColBuildTimes[j] is the wall time spent on column j. For DiagSketch
	// every column is folded out of the one shared sketch solve, which
	// counts in BuildTime only; each entry covers just that column's
	// preconditioner setup.
	ColBuildTimes []time.Duration
	// PrecondModes[j] is the resolved preconditioner mode of landmark j
	// (PrecondAuto replaced by its pick). Loaded snapshots do not persist
	// it and report PrecondJacobi, the default they serve with.
	PrecondModes []PrecondMode

	indices   []*Index
	routed    []obs.Counter
	fallbacks obs.Counter
}

// PortfolioOptions configures BuildPortfolio.
type PortfolioOptions struct {
	// K is the portfolio size (default 4, clamped to the graph size).
	K int
	// Strategy picks the primary landmark; the remaining K−1 are chosen by
	// the cost-law spread score (default MaxDegree).
	Strategy Strategy
	// Landmarks pins the landmark set explicitly, overriding K/Strategy.
	Landmarks []int

	// Mode and the per-mode knobs mirror IndexOptions.
	Mode           DiagMode
	WalksPerVertex int
	MaxSteps       int
	SketchEpsilon  float64
	Tol            float64
	// Precond selects the CG preconditioner per landmark column (see
	// IndexOptions.Precond). PrecondAuto resolves independently for each
	// landmark from its BFS eccentricity; the resolved modes are recorded
	// in Portfolio.PrecondModes.
	Precond PrecondMode
	// PrecondSeed seeds the approximate-Cholesky factorizations; landmark
	// j's factor uses PrecondSeed + j·golden so factors stay distinct yet
	// reproducible.
	PrecondSeed uint64
	// Workers shards each column build (default GOMAXPROCS). Columns are
	// byte-identical for a fixed seed regardless of the worker count: every
	// column draws from its own random stream derived from the root seed.
	Workers int
	// Metrics, when non-nil, receives one IndexBuilds increment, the total
	// build wall time (IndexBuildTime), one ColumnBuildTime observation per
	// landmark column, for DiagMC the columns' walk work counters, and
	// Panics increments for recovered DiagMC or DiagSketch worker panics.
	Metrics *obs.Metrics
}

// SelectPortfolioLandmarks picks k landmarks by a cost-law score. The first
// is the plain Strategy pick; each subsequent landmark maximizes
// score(u)·(1 + hops(u, chosen)), where score combines normalized weighted
// degree, coreness, and sampled short-walk visit counts (a cheap proxy for
// small hitting times) and hops is the BFS distance to the already-chosen
// set. On hub-dominated graphs the score term dominates and the portfolio
// collects the hubs; on large-κ grids and paths the spread term dominates
// and the landmarks tile the graph — which is exactly where a single
// landmark loses. rng may be nil for deterministic strategies (the visit
// term is then skipped).
func SelectPortfolioLandmarks(g *graph.Graph, k int, strat Strategy, rng *randx.RNG) ([]int, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	if k <= 0 {
		k = 4
	}
	if k > n-2 {
		k = n - 2
	}
	if k < 1 {
		k = 1
	}
	primary, err := SelectLandmark(g, strat, rng)
	if err != nil {
		return nil, err
	}
	chosen := []int{primary}
	if k == 1 {
		return chosen, nil
	}
	score := portfolioScores(g, rng)
	inSet := make([]bool, n)
	inSet[primary] = true
	for len(chosen) < k {
		dist := hopsToSet(g, chosen)
		best, bestVal := -1, -1.0
		for u := 0; u < n; u++ {
			if inSet[u] {
				continue
			}
			val := score[u] * float64(1+dist[u])
			if val > bestVal {
				best, bestVal = u, val
			}
		}
		if best < 0 {
			break
		}
		chosen = append(chosen, best)
		inSet[best] = true
	}
	return chosen, nil
}

// portfolioScores returns the per-vertex cost-law score: normalized
// weighted degree + normalized core number + normalized sampled-walk visit
// counts. Each term is in [0,1]; a small uniform floor keeps the spread
// multiplier meaningful on regular graphs where all three terms tie.
func portfolioScores(g *graph.Graph, rng *randx.RNG) []float64 {
	n := g.N()
	score := make([]float64, n)
	maxDeg := 0.0
	for u := 0; u < n; u++ {
		if d := g.WeightedDegree(u); d > maxDeg {
			maxDeg = d
		}
	}
	cores := g.CoreNumbers()
	var maxCore int32
	for _, c := range cores {
		if c > maxCore {
			maxCore = c
		}
	}
	var visits []float64
	var maxVisits float64
	if rng != nil {
		visits = make([]float64, n)
		sampler := walk.NewSampler(g)
		steps := 4
		for x := n; x > 1; x /= 2 {
			steps++ // steps ≈ 4 + log2 n, as in the MinHitting strategy
		}
		const walks = 128
		for i := 0; i < walks; i++ {
			u := rng.Intn(n)
			for j := 0; j < steps; j++ {
				u = sampler.Step(u, rng)
				visits[u]++
			}
		}
		for _, v := range visits {
			if v > maxVisits {
				maxVisits = v
			}
		}
	}
	for u := 0; u < n; u++ {
		s := 0.1 // uniform floor so pure-spread selection works on regular graphs
		if maxDeg > 0 {
			s += g.WeightedDegree(u) / maxDeg
		}
		if maxCore > 0 {
			s += float64(cores[u]) / float64(maxCore)
		}
		if maxVisits > 0 {
			s += visits[u] / maxVisits
		}
		score[u] = s
	}
	return score
}

// hopsToSet is a multi-source BFS returning, for every vertex, the hop
// distance to the nearest source (0 at the sources themselves).
func hopsToSet(g *graph.Graph, sources []int) []int32 {
	n := g.N()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, n)
	for _, s := range sources {
		if dist[s] == -1 {
			dist[s] = 0
			queue = append(queue, int32(s))
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		g.ForEachNeighbor(int(u), func(v int32, _ float64) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		})
	}
	for i := range dist {
		if dist[i] == -1 {
			dist[i] = int32(n) // unreachable: treat as maximally far
		}
	}
	return dist
}

// BuildPortfolio constructs a K-landmark portfolio. Each landmark's column
// is one grounded-solver sweep (DiagExactCG), one absorbed-walk sweep
// (DiagMC), or its share of one streamed sketch solve (DiagSketch — the
// sketch rows are solved once and folded into all K columns, which is the
// point).
// Column j draws from its own random stream derived from the root seed, so
// the portfolio is byte-identical for a fixed seed at any worker count and
// column j of a K-portfolio equals column j of any larger portfolio with
// the same landmark prefix.
func BuildPortfolio(g *graph.Graph, opts PortfolioOptions, rng *randx.RNG) (*Portfolio, error) {
	if err := requireConnected(g); err != nil {
		return nil, err
	}
	landmarks := opts.Landmarks
	if len(landmarks) == 0 {
		var err error
		landmarks, err = SelectPortfolioLandmarks(g, opts.K, opts.Strategy, rng)
		if err != nil {
			return nil, err
		}
	}
	seen := make(map[int]bool, len(landmarks))
	for _, v := range landmarks {
		if err := g.ValidateVertex(v); err != nil {
			return nil, err
		}
		if seen[v] {
			return nil, fmt.Errorf("core: duplicate portfolio landmark %d", v)
		}
		seen[v] = true
	}
	start := time.Now()
	iopts := IndexOptions{
		Mode:           opts.Mode,
		WalksPerVertex: opts.WalksPerVertex,
		MaxSteps:       opts.MaxSteps,
		SketchEpsilon:  opts.SketchEpsilon,
		Tol:            opts.Tol,
		Precond:        opts.Precond,
		Workers:        opts.Workers,
		Metrics:        opts.Metrics,
	}
	workers := indexWorkers(iopts, g.N())
	// Root seed for the per-column streams; drawn once so the portfolio is
	// reproducible from (graph, landmarks, seed) alone.
	var root uint64
	if rng != nil {
		root = rng.Uint64()
	}
	sketchCols, err := sketchColumns(g, landmarks, iopts, workers, rng)
	if err != nil {
		return nil, err
	}
	k := len(landmarks)
	p := &Portfolio{
		G: g, Mode: opts.Mode, Landmarks: landmarks,
		Cols:          make([][]float64, k),
		ColBuildTimes: make([]time.Duration, k),
		PrecondModes:  make([]PrecondMode, k),
		indices:       make([]*Index, k),
		routed:        make([]obs.Counter, k),
	}
	for j, v := range landmarks {
		colStart := time.Now()
		iopts.PrecondSeed = opts.PrecondSeed + uint64(j)*0x9e3779b97f4a7c15
		idx, err := buildColumn(g, v, iopts, workers, sketchCols[j], randx.New(root+uint64(j+1)*0x9e3779b97f4a7c15))
		if err != nil {
			return nil, err
		}
		p.indices[j], p.Cols[j], p.PrecondModes[j] = idx, idx.Diag, idx.Precond
		p.ColBuildTimes[j] = time.Since(colStart)
		if opts.Metrics != nil {
			opts.Metrics.ColumnBuildTime.Observe(p.ColBuildTimes[j].Nanoseconds())
		}
	}
	p.BuildTime = time.Since(start)
	if opts.Metrics != nil {
		opts.Metrics.IndexBuilds.Inc()
		opts.Metrics.IndexBuildTime.Observe(p.BuildTime.Nanoseconds())
	}
	return p, nil
}

// NewPortfolio assembles a portfolio from already-built columns (the
// snapshot loader and the v2→portfolio upgrade path use it). The columns
// are aliased, not copied, and back the per-landmark indices directly.
// Snapshots do not persist preconditioner modes, so every column reports
// PrecondJacobi, the mode its query-time solves use.
func NewPortfolio(g *graph.Graph, mode DiagMode, landmarks []int, cols [][]float64) *Portfolio {
	p := &Portfolio{G: g, Mode: mode, Landmarks: landmarks, Cols: cols,
		PrecondModes: make([]PrecondMode, len(landmarks))} // zero value: PrecondJacobi
	p.indices = make([]*Index, len(landmarks))
	for j, v := range landmarks {
		p.indices[j] = &Index{G: g, Landmark: v, Diag: cols[j], Mode: mode}
	}
	p.routed = make([]obs.Counter, len(landmarks))
	return p
}

// K returns the portfolio size.
func (p *Portfolio) K() int { return len(p.Landmarks) }

// Index returns the single-landmark index view of portfolio position j,
// sharing column j as its diagonal.
func (p *Portfolio) Index(j int) *Index { return p.indices[j] }

// Primary returns the primary (first-selected) landmark vertex.
func (p *Portfolio) Primary() int { return p.Landmarks[0] }

// MemoryBytes reports the portfolio column footprint.
func (p *Portfolio) MemoryBytes() int64 {
	return int64(len(p.Landmarks)) * int64(p.G.N()) * 8
}

// RouteCost is the router's cost-law score of portfolio position j for the
// pair (s,t): r(s,ℓ_j) + r(t,ℓ_j), read off the precomputed columns in
// O(1). Lower is cheaper.
func (p *Portfolio) RouteCost(j, s, t int) float64 {
	return p.Cols[j][s] + p.Cols[j][t]
}

// Route returns the portfolio positions ordered by ascending RouteCost for
// (s,t), ties broken by position so the order is deterministic. Callers
// try positions in order, skipping any whose landmark collides with s or t
// (ErrLandmarkConflict) — NoteFallback records each skip.
func (p *Portfolio) Route(s, t int) []int {
	order := make([]int, len(p.Landmarks))
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool {
		return p.RouteCost(order[a], s, t) < p.RouteCost(order[b], s, t)
	})
	return order
}

// RouteSource returns the portfolio positions ordered by ascending
// r(s,ℓ_j) — the single-source router. A landmark equal to s has cost 0
// and sorts first, where the query is answered by copying its column.
func (p *Portfolio) RouteSource(s int) []int {
	order := make([]int, len(p.Landmarks))
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool {
		return p.Cols[order[a]][s] < p.Cols[order[b]][s]
	})
	return order
}

// NoteRouted records that portfolio position j served a query.
func (p *Portfolio) NoteRouted(j int) { p.routed[j].Inc() }

// NoteFallback records one conflict fallback (a routed landmark skipped
// because it collided with a query endpoint).
func (p *Portfolio) NoteFallback() { p.fallbacks.Inc() }

// PortfolioStats is a point-in-time view of build and routing activity.
type PortfolioStats struct {
	Landmarks     []int           `json:"landmarks"`
	Routed        []int64         `json:"routed"`
	Fallbacks     int64           `json:"fallbacks"`
	BuildTime     time.Duration   `json:"build_time_ns"`
	ColBuildTimes []time.Duration `json:"col_build_times_ns"`
	// PrecondModes are the resolved per-landmark preconditioner modes in
	// textual form (empty for loaded snapshots).
	PrecondModes []string `json:"precond_modes,omitempty"`
}

// Stats snapshots the per-landmark routed-query counters and the conflict
// fallback count.
func (p *Portfolio) Stats() PortfolioStats {
	s := PortfolioStats{
		Landmarks:     append([]int(nil), p.Landmarks...),
		Routed:        make([]int64, len(p.routed)),
		Fallbacks:     p.fallbacks.Load(),
		BuildTime:     p.BuildTime,
		ColBuildTimes: append([]time.Duration(nil), p.ColBuildTimes...),
	}
	for _, m := range p.PrecondModes {
		s.PrecondModes = append(s.PrecondModes, m.String())
	}
	for j := range p.routed {
		s.Routed[j] = p.routed[j].Load()
	}
	return s
}

// SingleSource computes r(s,·) through the cheapest landmark for s.
// It returns the answers and the landmark vertex that served the query.
func (p *Portfolio) SingleSource(s int, opts SingleSourceOptions) ([]float64, int, error) {
	return p.SingleSourceContext(context.Background(), s, opts)
}

// SingleSourceContext is SingleSource with cancellation. Routing is by
// ascending r(s,ℓ_j); a landmark equal to s is the free case (its column
// is the answer) and always routes first.
func (p *Portfolio) SingleSourceContext(ctx context.Context, s int, opts SingleSourceOptions) ([]float64, int, error) {
	if err := p.G.ValidateVertex(s); err != nil {
		return nil, -1, err
	}
	order := p.RouteSource(s)
	j := order[0]
	out, err := p.indices[j].SingleSourceContext(ctx, s, opts)
	if err != nil {
		return nil, -1, err
	}
	p.NoteRouted(j)
	return out, p.Landmarks[j], nil
}
