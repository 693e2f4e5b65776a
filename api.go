// Package landmarkrd is a library for fast resistance-distance computation
// on large graphs using landmark-based algorithms, reproducing "Efficient
// Resistance Distance Computation: The Power of Landmark-based Approaches"
// (SIGMOD 2023) — see DESIGN.md for the reproduction notes.
//
// The resistance distance r(s,t) = (e_s−e_t)ᵀL†(e_s−e_t) measures how well
// connected two vertices are: it is the effective resistance of the graph
// viewed as an electrical network with unit (or weighted) conductances.
//
// # Quick start
//
//	g, _ := landmarkrd.BarabasiAlbert(10000, 4, 42)
//	est, _ := landmarkrd.NewEstimator(g, landmarkrd.BiPush, landmarkrd.Options{Seed: 1})
//	r, _ := est.Pair(17, 4242)
//	fmt.Println(r.Value)
//
// Three landmark algorithms are available through NewEstimator:
//
//   - AbWalk  — pure Monte Carlo over landmark-absorbed random walks.
//   - Push    — deterministic local push on the grounded Laplacian, with an
//     a-posteriori error bound.
//   - BiPush  — push followed by an unbiased Monte Carlo residual
//     correction; the best default.
//
// Exact values come from Exact, which reads exact elimination labels on
// low-treewidth graphs and otherwise solves the grounded Laplacian system
// by conjugate gradients. Single-source workloads use BuildLandmarkIndex +
// SingleSource.
package landmarkrd

import (
	"context"
	"errors"
	"fmt"
	"io"

	"landmarkrd/internal/chol"
	"landmarkrd/internal/clustering"
	"landmarkrd/internal/core"
	"landmarkrd/internal/dynamic"
	"landmarkrd/internal/graph"
	"landmarkrd/internal/guard"
	"landmarkrd/internal/lap"
	"landmarkrd/internal/obs"
	"landmarkrd/internal/randx"
	"landmarkrd/internal/sketch"
)

// ErrNilGraph is returned by every public entry point handed a nil *Graph.
var ErrNilGraph = errors.New("landmarkrd: nil graph")

// ErrDisconnected is returned (possibly wrapped — test with errors.Is) by
// constructors and exact solvers when the graph is not connected. The
// resistance between vertices in different components is infinite, and no
// estimator in this module can answer it; the largest connected component
// of a raw dataset is the usual remedy (the generators already return it).
var ErrDisconnected = graph.ErrNotConnected

// requireGraph guards public entry points against a nil graph, which would
// otherwise panic deep inside a kernel.
func requireGraph(g *Graph) error {
	if g == nil {
		return ErrNilGraph
	}
	return nil
}

// ElectricFlow is the unit s→t current flow (potentials, per-edge currents,
// Kirchhoff divergence, energy = r(s,t)).
type ElectricFlow = lap.ElectricFlow

// ComputeElectricFlow solves for the unit-current electric flow from s to
// t. The flow's Energy() equals r(s, t) (Thomson's principle).
func ComputeElectricFlow(g *Graph, s, t int) (*ElectricFlow, error) {
	if err := requireGraph(g); err != nil {
		return nil, err
	}
	return lap.ComputeElectricFlow(g, s, t)
}

// Potential returns φ = L†(e_s − e_t), mean-centred; r(s,t) = φ(s) − φ(t).
func Potential(g *Graph, s, t int) ([]float64, error) {
	if err := requireGraph(g); err != nil {
		return nil, err
	}
	return lap.PotentialCG(g, s, t)
}

// Graph is an immutable undirected (optionally weighted) graph in CSR form.
type Graph = graph.Graph

// Builder accumulates edges and produces a Graph.
type Builder = graph.Builder

// NewBuilder returns a builder for a graph with n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// LoadEdgeList reads a graph from an edge-list file ("u v" or "u v w" per
// line, '#' comments). It returns the graph and the raw-id → dense-id map.
func LoadEdgeList(path string) (*Graph, map[int]int, error) { return graph.LoadEdgeList(path) }

// ReadEdgeList parses an edge list from r.
func ReadEdgeList(r io.Reader) (*Graph, map[int]int, error) { return graph.ReadEdgeList(r) }

// Generators for synthetic graphs. All return the largest connected
// component and are deterministic in seed.

// BarabasiAlbert generates a preferential-attachment graph (n vertices,
// k edges per newcomer) — hub-dominated like social networks.
func BarabasiAlbert(n, k int, seed uint64) (*Graph, error) {
	return graph.BarabasiAlbert(n, k, randx.New(seed))
}

// ErdosRenyi generates a uniform random graph with about m edges.
func ErdosRenyi(n int, m int64, seed uint64) (*Graph, error) {
	return graph.ErdosRenyiGNM(n, m, randx.New(seed))
}

// Grid generates a w x h grid with a fraction of edges removed — the
// road-network stand-in (bounded degree, poor expansion).
func Grid(w, h int, perturb float64, seed uint64) (*Graph, error) {
	return graph.Grid2D(w, h, perturb, randx.New(seed))
}

// WattsStrogatz generates a small-world ring lattice — the powergrid
// stand-in.
func WattsStrogatz(n, k int, beta float64, seed uint64) (*Graph, error) {
	return graph.WattsStrogatz(n, k, beta, randx.New(seed))
}

// Exact computes r(s,t) exactly, on one of two backends (DESIGN.md §10).
// A graph within the fill budget (low treewidth: grids, road networks,
// trees, cycles) is factored once, on first use, into elimination labels;
// each answer then walks two elimination-tree paths in O(depth), exact to
// rounding (~1e-14 relative). Any other graph gets a grounded
// conjugate-gradient solve per answer, O(m·√κ) and exact to solver
// precision (~1e-10). Either way Exact(g,s,t) and Exact(g,t,s) are
// bit-identical, and a batch engine's exact answers are bit-identical to
// Exact's.
func Exact(g *Graph, s, t int) (float64, error) {
	return ExactContext(context.Background(), g, s, t)
}

// CommuteTime returns the expected commute time Vol(G)·r(s,t).
func CommuteTime(g *Graph, s, t int) (float64, error) {
	if err := requireGraph(g); err != nil {
		return 0, err
	}
	return lap.CommuteTime(g, s, t)
}

// ConditionNumber estimates the condition number κ = 2/λ₂(ℒ) of the
// normalized Laplacian — the quantity that governs how hard a graph is for
// every resistance algorithm.
func ConditionNumber(g *Graph, seed uint64) (float64, error) {
	if err := requireGraph(g); err != nil {
		return 0, err
	}
	k := 120
	if g.N() < 2*k {
		k = g.N() / 2
	}
	res, err := lap.LanczosConditionNumber(g, k, randx.New(seed))
	if err != nil {
		return 0, err
	}
	return res.Kappa, nil
}

// Method selects the landmark query algorithm.
type Method int

const (
	// AbWalk is the absorbed-walk Monte Carlo estimator.
	AbWalk Method = iota
	// Push is the deterministic local push estimator.
	Push
	// BiPush is the bidirectional estimator (recommended default).
	BiPush
	// Auto lets a batch engine choose, once per engine, between routed
	// BiPush and one exact answer per pair (as Exact gives it: elimination
	// labels or a grounded solve), whichever a seeded work pilot models as
	// cheaper on the engine's graph (see Plan). Only NewBatchEngine (and
	// so Pairs and every LiveIndex epoch) resolves it; the
	// single-estimator constructors reject it.
	Auto
)

// methodNames is the one table of method names: String, ParseMethod and
// the cmd tools' -method flags all read it.
var methodNames = []string{AbWalk: "abwalk", Push: "push", BiPush: "bipush", Auto: "auto"}

// String implements fmt.Stringer.
func (m Method) String() string {
	if m >= 0 && int(m) < len(methodNames) {
		return methodNames[m]
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// ParseMethod parses "abwalk", "push", "bipush", or "auto" (the -method
// flag syntax of the cmd tools).
func ParseMethod(s string) (Method, error) {
	for m, name := range methodNames {
		if s == name {
			return Method(m), nil
		}
	}
	return 0, fmt.Errorf("landmarkrd: unknown method %q (want abwalk, push, bipush, or auto)", s)
}

// errAutoEstimator is returned by the single-estimator constructors for
// Auto, which only a batch engine can resolve.
var errAutoEstimator = errors.New("landmarkrd: method auto needs a batch engine to plan it; use NewBatchEngine or NewLiveIndex, or pick abwalk, push, or bipush")

// Strategy re-exports the landmark selection strategies.
type Strategy = core.Strategy

// Landmark selection strategies.
const (
	MaxDegree       = core.MaxDegree
	PageRank        = core.PageRank
	KCore           = core.KCore
	MinHitting      = core.MinHitting
	RandomVertex    = core.RandomVertex
	MinHittingExact = core.MinHittingExact
)

// Estimate is the result of a pair query.
type Estimate = core.Estimate

// Options configures NewEstimator. The zero value is usable.
type Options struct {
	// Strategy selects NewEstimator's landmark (MaxDegree by default).
	// NewEstimatorAt takes an explicit landmark instead.
	Strategy Strategy
	// Seed drives all randomness (default 1).
	Seed uint64
	// Walks is the Monte Carlo sample count per endpoint
	// (AbWalk default 2000, BiPush default 500).
	Walks int
	// Theta is the push degree-normalized residual threshold
	// (Push default 1e-4, BiPush default 1e-2).
	Theta float64
	// MaxOps bounds push work; MaxSteps bounds each walk.
	MaxOps   int64
	MaxSteps int
}

// Estimator answers pairwise resistance queries with a fixed algorithm and
// landmark. It is not safe for concurrent use; create one per goroutine.
type Estimator struct {
	method   Method
	landmark int
	ab       *core.AbWalkEstimator
	push     *core.PushEstimator
	bipush   *core.BiPushEstimator
}

// NewEstimator builds an estimator, selecting the landmark with
// opts.Strategy (MaxDegree by default).
func NewEstimator(g *Graph, m Method, opts Options) (*Estimator, error) {
	v, err := SelectLandmark(g, opts.Strategy, opts.Seed)
	if err != nil {
		return nil, err
	}
	return NewEstimatorAt(g, m, v, opts)
}

// NewEstimatorAt builds an estimator with an explicit landmark vertex.
func NewEstimatorAt(g *Graph, m Method, landmark int, opts Options) (*Estimator, error) {
	if err := requireGraph(g); err != nil {
		return nil, err
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	e := &Estimator{method: m, landmark: landmark}
	var err error
	switch m {
	case AbWalk:
		e.ab, err = core.NewAbWalkEstimator(g, landmark,
			core.AbWalkOptions{Walks: opts.Walks, MaxSteps: opts.MaxSteps}, seed)
	case Push:
		e.push, err = core.NewPushEstimator(g, landmark,
			core.PushOptions{Theta: opts.Theta, MaxOps: opts.MaxOps})
	case BiPush:
		e.bipush, err = core.NewBiPushEstimator(g, landmark, core.BiPushOptions{
			PushTheta: opts.Theta, Walks: opts.Walks,
			MaxSteps: opts.MaxSteps, MaxOps: opts.MaxOps,
		}, seed)
	case Auto:
		return nil, errAutoEstimator
	default:
		return nil, fmt.Errorf("landmarkrd: unknown method %v", m)
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Landmark returns the landmark vertex in use.
func (e *Estimator) Landmark() int { return e.landmark }

// Method returns the algorithm in use.
func (e *Estimator) Method() Method { return e.method }

// Pair estimates r(s,t). Neither endpoint may equal the landmark
// (ErrLandmarkConflict); pick another landmark or use Exact for that pair.
func (e *Estimator) Pair(s, t int) (Estimate, error) {
	switch e.method {
	case AbWalk:
		return e.ab.Pair(s, t)
	case Push:
		return e.push.Pair(s, t)
	default:
		return e.bipush.Pair(s, t)
	}
}

// ErrLandmarkConflict is returned when a query endpoint equals the landmark.
var ErrLandmarkConflict = core.ErrLandmarkConflict

// ErrInternal matches (via errors.Is) every error produced by recovering a
// worker panic — in the batch engine and in the parallel index build. The
// concrete error is a *guard.PanicError carrying the panic value and the
// goroutine stack; no panic inside a worker ever crashes the process.
var ErrInternal = guard.ErrInternal

// Metrics is the estimator observability sink: lock-free counters and
// log-scale histograms recording push operations, walk steps, residual L1
// mass, landmark hits, and per-query wall time. All recording is atomic, so
// one Metrics may be shared by many estimators across goroutines (the batch
// engine does exactly that).
type Metrics = obs.Metrics

// Stats is a point-in-time snapshot of a Metrics; it marshals to JSON and
// its String method renders it indented.
type Stats = obs.Snapshot

// Metrics returns the estimator's metrics sink (always non-nil).
func (e *Estimator) Metrics() *Metrics {
	switch e.method {
	case AbWalk:
		return e.ab.Metrics()
	case Push:
		return e.push.Metrics()
	default:
		return e.bipush.Metrics()
	}
}

// SetMetrics redirects the estimator's recording to m, e.g. one sink shared
// by a pool of estimators. Call before issuing queries, not concurrently
// with them.
func (e *Estimator) SetMetrics(m *Metrics) {
	switch e.method {
	case AbWalk:
		e.ab.SetMetrics(m)
	case Push:
		e.push.SetMetrics(m)
	default:
		e.bipush.SetMetrics(m)
	}
}

// Stats snapshots the estimator's counters: queries answered, push
// operations, walk steps, landmark hits, residual mass, and latency/work
// histograms. Safe to call while queries run on other estimators sharing
// the same sink.
func (e *Estimator) Stats() Stats { return e.Metrics().Snapshot() }

// Reseed sets the seed of subsequent queries, exactly as NewEstimatorAt
// would with Options.Seed = seed. Push has no randomness, so Reseed is a
// no-op there. Each walk of a query draws from a stream of its own, keyed
// by the seed, the pair (as min, max) and the walk, so an answer is a
// function of the seed and the pair alone: asking (s, t) or (t, s), first
// or after other queries, gives the same bits. The batch engine reseeds
// pooled estimators per attempt.
func (e *Estimator) Reseed(seed uint64) {
	if seed == 0 {
		seed = 1
	}
	switch e.method {
	case AbWalk:
		e.ab.Reseed(seed)
	case BiPush:
		e.bipush.Reseed(seed)
	}
}

// PublishMetrics exposes m's snapshots under name on the process expvar
// registry, served at /debug/vars by the cmd tools' -debug-addr endpoint.
// Re-publishing a name swaps the underlying Metrics.
func PublishMetrics(name string, m *Metrics) { obs.Publish(name, m) }

// SolverMetrics returns the process-wide metrics sink of the exact grounded
// CG solver (every Exact / index / hitting-time solve records here).
func SolverMetrics() *Metrics { return lap.SolverMetrics() }

// SolverStats snapshots the process-wide exact-solver counters (CGSolves,
// CGIterations, per-solve latency under QueryTime).
func SolverStats() Stats { return lap.SolverStats() }

// SelectLandmark picks a landmark vertex by strategy. Seed 0 means 1, as
// in NewEstimator and NewBatchEngine, so it names the landmark they select
// with the same Strategy and Seed.
func SelectLandmark(g *Graph, s Strategy, seed uint64) (int, error) {
	if err := requireGraph(g); err != nil {
		return 0, err
	}
	return core.SelectLandmark(g, s, randx.New(max(seed, 1)))
}

// LandmarkIndex is one landmark column r(·, v) plus its query solver: the
// column primitive a PortfolioIndex is made of (PortfolioIndex.Index(j)
// returns column j's). Serving, snapshots and live epochs all go through
// PortfolioIndex, where a single landmark is the K=1 case.
type LandmarkIndex = core.Index

// DiagMode selects how the index diagonal is built.
type DiagMode = core.DiagMode

// Index diagonal build modes.
const (
	DiagExactCG = core.DiagExactCG
	DiagMC      = core.DiagMC
	DiagSketch  = core.DiagSketch
)

// PrecondMode selects the preconditioner the grounded CG solves use — in
// exact index builds and in every SingleSource query solve.
type PrecondMode = core.PrecondMode

// Preconditioner modes. PrecondJacobi (the zero value) is the historical
// default; PrecondChol trades one approximate-Cholesky factorization and
// O(n + fill) memory per landmark for drastically fewer CG iterations on
// large-κ graphs; PrecondAuto picks between them from the landmark's BFS
// eccentricity (a cheap diameter/κ proxy).
const (
	PrecondJacobi = core.PrecondJacobi
	PrecondNone   = core.PrecondNone
	PrecondChol   = core.PrecondChol
	PrecondAuto   = core.PrecondAuto
)

// ParsePrecondMode parses "none", "jacobi", "chol", or "auto" (the -precond
// flag syntax of the cmd tools).
func ParsePrecondMode(s string) (PrecondMode, error) { return core.ParsePrecondMode(s) }

// BuildLandmarkIndex precomputes r(t, landmark) for all t so that
// single-source queries need only one grounded column computation. The
// build parallelizes across GOMAXPROCS workers; use BuildLandmarkIndexOpts
// to control the worker count or collect build metrics.
func BuildLandmarkIndex(g *Graph, landmark int, mode DiagMode, seed uint64) (*LandmarkIndex, error) {
	return BuildLandmarkIndexOpts(g, landmark, IndexBuildOptions{Mode: mode, Seed: seed})
}

// IndexBuildOptions configures BuildLandmarkIndexOpts. The zero value
// builds a DiagExactCG index with seed 1 and GOMAXPROCS workers.
type IndexBuildOptions struct {
	// Mode selects the diagonal builder (DiagExactCG, DiagMC, DiagSketch).
	Mode DiagMode
	// Seed drives all randomness (default 1).
	Seed uint64
	// Workers shards the per-vertex build work across a worker pool
	// (default GOMAXPROCS; 1 forces a sequential build). For a fixed seed
	// the resulting index is byte-identical regardless of worker count.
	Workers int
	// Precond selects the CG preconditioner for the exact build and all
	// subsequent SingleSource query solves (default PrecondJacobi; see
	// PrecondMode). The resolved choice is recorded in the index's Precond
	// field.
	Precond PrecondMode
	// Metrics, when non-nil, receives the build observability: an
	// IndexBuilds increment, the build wall time in the IndexBuildTime
	// histogram, (for DiagMC) walk-work counters merged from the worker
	// pool, and Panics increments for recovered DiagMC or DiagSketch
	// worker panics.
	Metrics *Metrics
}

// BuildLandmarkIndexOpts is BuildLandmarkIndex with explicit control over
// the parallel build.
func BuildLandmarkIndexOpts(g *Graph, landmark int, opts IndexBuildOptions) (*LandmarkIndex, error) {
	if err := requireGraph(g); err != nil {
		return nil, err
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	return core.BuildIndex(g, landmark, core.IndexOptions{
		Mode:        opts.Mode,
		Workers:     opts.Workers,
		Metrics:     opts.Metrics,
		Precond:     opts.Precond,
		PrecondSeed: seed,
	}, randx.New(seed))
}

// SingleSource returns r(s, t) for every t using the index.
func SingleSource(idx *LandmarkIndex, s int) ([]float64, error) {
	return idx.SingleSource(s, core.SingleSourceOptions{})
}

// LapSolver answers exact resistance queries with an amortized
// approximate-Cholesky-preconditioned CG solver: build once (nearly linear
// time), then each query is a fast preconditioned solve whose iteration
// count is (nearly) independent of the condition number.
type LapSolver = chol.Solver

// NewLapSolver builds the preconditioned solver grounded at a max-degree
// landmark.
func NewLapSolver(g *Graph, seed uint64) (*LapSolver, error) {
	if err := requireGraph(g); err != nil {
		return nil, err
	}
	v, err := core.SelectLandmark(g, core.MaxDegree, randx.New(seed))
	if err != nil {
		return nil, err
	}
	return chol.NewSolver(g, v, 0, chol.Options{Seed: seed})
}

// Sketch is the Spielman-Srivastava all-pairs resistance sketch.
type Sketch = sketch.Sketch

// BuildSketch constructs an ε-relative-error resistance sketch; any pair
// can then be queried in O(log n / ε²) time.
func BuildSketch(g *Graph, epsilon float64, seed uint64) (*Sketch, error) {
	if err := requireGraph(g); err != nil {
		return nil, err
	}
	return sketch.Build(g, sketch.Options{Epsilon: epsilon}, randx.New(seed))
}

// PairWithinEps answers a Push query whose deterministic error is at most
// eps, deriving the push threshold from the exact hitting times to the
// landmark (θ = eps / 2(h(s,v)+h(t,v))). Only available for Push
// estimators; the first call pays one grounded solve.
func (e *Estimator) PairWithinEps(s, t int, eps float64) (Estimate, error) {
	if e.method != Push {
		return Estimate{}, fmt.Errorf("landmarkrd: PairWithinEps requires the Push method, have %v", e.method)
	}
	return e.push.PairWithTarget(s, t, eps)
}

// Clustering is the result of resistance-embedding k-means clustering.
type Clustering = clustering.Result

// ClusterGraph partitions g into k clusters by embedding every vertex with
// its resistance distance to 2k pivot vertices and running k-means on the
// embedding. Cluster quality (conductance) is reported per cluster.
func ClusterGraph(g *Graph, k int, seed uint64) (*Clustering, error) {
	if err := requireGraph(g); err != nil {
		return nil, err
	}
	return clustering.Cluster(g, clustering.Options{K: k, Seed: seed}, randx.New(seed))
}

// DynamicUpdater answers resistance queries under edge insertions and
// deletions with no rebuild: it keeps a log of conductance deltas over the
// base graph and solves r(s, t) on base plus log with one exact CG solve.
// AddEdge and RemoveConductance run no solve; a removal of more
// conductance than the pair carries fails with ErrExceedsConductance, one
// that cuts a bridge with ErrDisconnecting. Intended for small update
// streams ("what if we add this link?").
type DynamicUpdater = dynamic.Updater

// NewDynamic creates an updater over the connected base graph g.
func NewDynamic(g *Graph) (*DynamicUpdater, error) {
	if err := requireGraph(g); err != nil {
		return nil, err
	}
	return dynamic.New(g)
}
