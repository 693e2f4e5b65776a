package landmarkrd

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"landmarkrd/internal/core"
	"landmarkrd/internal/dynamic"
	"landmarkrd/internal/epoch"
)

// ErrDisconnecting reports an edge removal that would disconnect the graph,
// detected by the Sherman-Morrison denominator guard 1 + w·r(a,b) ≤ 0.
// Both the offline DynamicUpdater and the live-update path return errors
// matching it through errors.Is.
var ErrDisconnecting = dynamic.ErrDisconnecting

// UpdateOp is the kind of a streamed graph mutation.
type UpdateOp int

const (
	// UpdateAddEdge inserts Weight units of conductance between S and T
	// (parallel to any existing edge; conductances add).
	UpdateAddEdge UpdateOp = iota
	// UpdateRemoveEdge removes Weight units of conductance from the pair
	// {S, T}. Removing a bridge is rejected with ErrDisconnecting.
	UpdateRemoveEdge
)

func (op UpdateOp) String() string {
	switch op {
	case UpdateAddEdge:
		return "add"
	case UpdateRemoveEdge:
		return "remove"
	default:
		return fmt.Sprintf("UpdateOp(%d)", int(op))
	}
}

// GraphUpdate is one streamed edge mutation. Weight must be positive and
// finite for both ops; the direction of the conductance change comes from
// Op.
type GraphUpdate struct {
	Op     UpdateOp
	S, T   int
	Weight float64
}

// LiveOptions configures NewLiveIndex. The zero value serves MethodAbsorbedWalk
// queries from a K=1 portfolio (one auto-selected landmark column) with
// default rebase thresholds.
type LiveOptions struct {
	// Method is the estimation method batch queries use (see Method).
	Method Method
	// Batch configures the per-epoch batch engine. Portfolio and
	// PinLandmark must be left unset — the live index manages the serving
	// portfolio itself (via PortfolioK / InitialPortfolio) and rejects
	// options that would fight it.
	Batch BatchOptions
	// PortfolioK is the size of the K-landmark portfolio each epoch serves
	// from, resolved by ServingPortfolioK (0 means 1: a single landmark
	// column). Every portfolio the live index adopts — InitialPortfolio or
	// a PublishPortfolio snapshot — must have exactly this K, so a re-base
	// never silently rebuilds at a different size.
	PortfolioK int
	// Landmarks pins the portfolio landmark set explicitly (requires
	// PortfolioK == len(Landmarks); overrides Strategy selection). Re-bases
	// rebuild on the same vertices, so a replica serving a shard subset
	// keeps its shard across epoch publications.
	Landmarks []int
	// NoIndex serves without a portfolio: no per-epoch column build, pair
	// queries run on the engine's strategy-selected landmark, fresh
	// (patch-aware) queries fall back to full Sherman-Morrison
	// pseudo-inverse solves, and single-source queries are unavailable.
	// PortfolioK, Landmarks and InitialPortfolio must be left unset.
	NoIndex bool
	// Mode selects the column builder of per-epoch portfolios (default
	// DiagExactCG).
	Mode DiagMode
	// Precond selects the CG preconditioner for column builds and patch
	// solves (default PrecondJacobi).
	Precond PrecondMode
	// IndexWorkers shards per-epoch column builds (default GOMAXPROCS).
	IndexWorkers int
	// MaxPatches triggers a background re-base once the patch stack
	// reaches this depth (default 64; negative disables the count
	// trigger).
	MaxPatches int
	// MaxPatchOverhead triggers a background re-base once the estimated
	// per-query patch overhead — patches·n/(4m+n), the patch-correction
	// work measured in grounded-operator sweeps — crosses this threshold
	// (default 32 sweeps; negative disables the overhead trigger).
	MaxPatchOverhead float64
	// Tol is the CG tolerance of per-update patch solves (default 1e-10).
	Tol float64
	// Metrics, when non-nil, receives all live-serving observability
	// (LiveUpdates, PatchedQueries, Rebases, EpochPublishes, EpochRetires,
	// RebaseTime) alongside the usual query counters. When nil the index
	// allocates its own, readable via Stats.
	Metrics *Metrics
	// OnRetire, when non-nil, runs exactly once per superseded epoch after
	// its last pinned query releases it — on the releasing goroutine, so
	// keep it fast.
	OnRetire func(seq uint64)
	// OnRebase, when non-nil, runs after every auto-triggered background
	// re-base with the then-current epoch and the re-base error, if any.
	OnRebase func(seq uint64, err error)
	// InitialPortfolio seeds the first epoch with a prebuilt (e.g.
	// snapshot-loaded) portfolio instead of building one. Must be built on
	// the same graph with PortfolioK landmarks.
	InitialPortfolio *PortfolioIndex
}

// liveState is the consistent serving state one epoch governs: the
// materialized graph, the batch engine and portfolio built on it, and the
// Sherman-Morrison patch stack of mutations streamed since.
type liveState struct {
	g       *Graph
	engine  *BatchEngine
	pf      *PortfolioIndex       // nil in NoIndex mode
	patched *dynamic.PatchedIndex // fresh-read path when a portfolio exists
	upd     *dynamic.Updater      // fresh-read path in NoIndex mode
}

func (st *liveState) applyPatch(ctx context.Context, a, b int, w float64) error {
	if st.patched != nil {
		return st.patched.ApplyUpdateContext(ctx, a, b, w)
	}
	if w >= 0 {
		return st.upd.AddEdge(a, b, w)
	}
	return st.upd.RemoveConductance(a, b, -w)
}

func (st *liveState) patches() []dynamic.Patch {
	if st.patched != nil {
		return st.patched.Patches()
	}
	return st.upd.Patches()
}

func (st *liveState) patchCount() int {
	if st.patched != nil {
		return st.patched.Len()
	}
	return st.upd.Updates()
}

// LiveIndex serves resistance queries over a graph that mutates while
// queries run. Queries pin a consistent epoch (Pin) — a materialized graph
// plus the portfolio built on it — and never block; streamed mutations
// (ApplyUpdate) append Sherman-Morrison patch vectors to the current
// epoch's stack; a background re-base folds the stack into a fresh build
// once it crosses the MaxPatches / MaxPatchOverhead thresholds, publishing
// a new epoch and retiring the old one only after its last pinned query
// releases it.
//
// Consistency model: a pinned epoch's batch and single-source answers are
// computed against that epoch's materialized graph — bit-identical to a
// cold build of the same graph, regardless of concurrent mutations. Fresh
// reads (FreshPairContext) additionally fold the patch stack in through
// the rank-one identity and see a consistent prefix of the update stream,
// never a torn stack.
type LiveIndex struct {
	opts    LiveOptions
	seed    uint64
	metrics *Metrics
	mgr     *epoch.Manager[*liveState]

	mu       sync.Mutex // serializes mutations and publication
	rebaseMu sync.Mutex // serializes re-bases; lock order: rebaseMu → mu
	rebasing atomic.Bool
	rebaseWG sync.WaitGroup
}

// NewLiveIndex builds the first epoch over g and starts serving.
func NewLiveIndex(g *Graph, opts LiveOptions) (*LiveIndex, error) {
	if err := requireGraph(g); err != nil {
		return nil, err
	}
	if opts.Batch.Portfolio != nil || opts.Batch.PinLandmark || opts.Batch.Landmark != 0 {
		return nil, fmt.Errorf("landmarkrd: LiveOptions.Batch must not set Portfolio or PinLandmark/Landmark; use PortfolioK or InitialPortfolio")
	}
	if opts.NoIndex && (opts.PortfolioK != 0 || len(opts.Landmarks) > 0 || opts.InitialPortfolio != nil) {
		return nil, fmt.Errorf("landmarkrd: LiveOptions.NoIndex serves without a portfolio; leave PortfolioK, Landmarks and InitialPortfolio unset")
	}
	if len(opts.Landmarks) > 0 && opts.PortfolioK != len(opts.Landmarks) {
		return nil, fmt.Errorf("landmarkrd: LiveOptions.Landmarks names %d vertices but PortfolioK is %d", len(opts.Landmarks), opts.PortfolioK)
	}
	opts.PortfolioK = ServingPortfolioK(opts.PortfolioK)
	if opts.InitialPortfolio != nil && opts.InitialPortfolio.G != g {
		return nil, fmt.Errorf("landmarkrd: LiveOptions.InitialPortfolio was built on a different graph")
	}
	if opts.MaxPatches == 0 {
		opts.MaxPatches = 64
	}
	if opts.MaxPatchOverhead == 0 {
		opts.MaxPatchOverhead = 32
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-10
	}
	seed := opts.Batch.Options.Seed
	if seed == 0 {
		seed = 1
	}
	metrics := opts.Metrics
	if metrics == nil {
		metrics = &Metrics{}
	}
	li := &LiveIndex{opts: opts, seed: seed, metrics: metrics}
	st, err := li.buildState(g, opts.InitialPortfolio)
	if err != nil {
		return nil, err
	}
	li.mgr = epoch.NewManager(st, func(seq uint64, _ *liveState) {
		metrics.EpochRetires.Inc()
		if opts.OnRetire != nil {
			opts.OnRetire(seq)
		}
	})
	return li, nil
}

// buildState constructs the serving state for graph g, adopting the
// prebuilt portfolio pf (built on g) when it is non-nil and building one
// otherwise. A prebuilt portfolio must have PortfolioK landmarks.
func (li *LiveIndex) buildState(g *Graph, pf *PortfolioIndex) (*liveState, error) {
	st := &liveState{g: g}
	bo := li.opts.Batch
	bo.Metrics = li.metrics
	if !li.opts.NoIndex {
		if pf != nil && pf.K() != li.opts.PortfolioK {
			return nil, fmt.Errorf("landmarkrd: portfolio has K=%d landmarks, live index serves K=%d", pf.K(), li.opts.PortfolioK)
		}
		if pf == nil {
			var err error
			pf, err = BuildPortfolioIndex(g, PortfolioBuildOptions{
				K:         li.opts.PortfolioK,
				Strategy:  li.opts.Batch.Options.Strategy,
				Landmarks: li.opts.Landmarks,
				Mode:      li.opts.Mode,
				Seed:      li.seed,
				Workers:   li.opts.IndexWorkers,
				Precond:   li.opts.Precond,
				Metrics:   li.metrics,
			})
			if err != nil {
				return nil, fmt.Errorf("landmarkrd: live portfolio build: %w", err)
			}
		}
		st.pf = pf
		bo.Portfolio = pf
	}
	engine, err := NewBatchEngine(g, li.opts.Method, bo)
	if err != nil {
		return nil, fmt.Errorf("landmarkrd: live engine build: %w", err)
	}
	st.engine = engine
	if st.pf != nil {
		st.patched = dynamic.NewPatchedIndex(st.pf.Index(0), li.opts.Tol, li.metrics)
		return st, nil
	}
	upd, err := dynamic.New(g, li.opts.Tol)
	if err != nil {
		return nil, fmt.Errorf("landmarkrd: live updater: %w", err)
	}
	st.upd = upd
	return st, nil
}

// Epoch returns the current epoch sequence number (the first epoch is 1;
// every publication — re-base or hot reload — increments it).
func (li *LiveIndex) Epoch() uint64 { return li.mgr.Seq() }

// PendingPatches returns the current epoch's patch-stack depth.
func (li *LiveIndex) PendingPatches() int { return li.mgr.Current().Value().patchCount() }

// Fingerprint returns the current epoch's graph fingerprint — the cache/
// routing key for answers computed against that epoch's materialized graph.
// Every publication that changes the graph (re-base, snapshot reload)
// changes it, so values cached under an old fingerprint can never be served
// for the new graph.
func (li *LiveIndex) Fingerprint() uint64 { return li.mgr.Current().Value().g.Fingerprint() }

// Metrics returns the live metrics sink.
func (li *LiveIndex) Metrics() *Metrics { return li.metrics }

// Stats snapshots the live metrics.
func (li *LiveIndex) Stats() Stats { return li.metrics.Snapshot() }

// LiveUpdateResult reports the outcome of one applied mutation.
type LiveUpdateResult struct {
	// Epoch is the epoch the mutation was applied to.
	Epoch uint64
	// Patches is the patch-stack depth after the mutation.
	Patches int
	// RebaseTriggered reports that this mutation pushed the stack over a
	// re-base threshold and a background re-base was started.
	RebaseTriggered bool
}

// ApplyUpdate applies one streamed mutation to the current epoch. Queries
// never block on it; concurrent ApplyUpdate calls serialize. A removal
// that would disconnect the graph returns an error matching
// ErrDisconnecting and changes nothing. When the patch stack crosses a
// re-base threshold a background re-base is kicked off (at most one at a
// time) and RebaseTriggered is set.
func (li *LiveIndex) ApplyUpdate(ctx context.Context, u GraphUpdate) (LiveUpdateResult, error) {
	w := u.Weight
	switch u.Op {
	case UpdateAddEdge:
	case UpdateRemoveEdge:
		w = -w
	default:
		return LiveUpdateResult{}, fmt.Errorf("landmarkrd: unknown update op %d", int(u.Op))
	}
	if !(u.Weight > 0) || math.IsInf(u.Weight, 0) {
		return LiveUpdateResult{}, fmt.Errorf("landmarkrd: update weight must be positive and finite, got %v", u.Weight)
	}
	li.mu.Lock()
	st := li.mgr.Current().Value()
	err := st.applyPatch(ctx, u.S, u.T, w)
	count := st.patchCount()
	seq := li.mgr.Seq()
	li.mu.Unlock()
	if err != nil {
		return LiveUpdateResult{}, err
	}
	if st.upd != nil {
		// The patched path counts its own updates; the NoIndex updater
		// doesn't carry a metrics sink.
		li.metrics.LiveUpdates.Inc()
	}
	res := LiveUpdateResult{Epoch: seq, Patches: count}
	if li.shouldRebase(st, count) && li.rebasing.CompareAndSwap(false, true) {
		res.RebaseTriggered = true
		li.rebaseWG.Add(1)
		go func() {
			defer li.rebaseWG.Done()
			defer li.rebasing.Store(false)
			_, err := li.Rebase(context.Background())
			if li.opts.OnRebase != nil {
				li.opts.OnRebase(li.mgr.Seq(), err)
			}
		}()
	}
	return res, nil
}

// shouldRebase applies the re-base cost law: trigger on raw stack depth or
// on estimated per-fresh-query patch overhead p·n/(4m+n), the correction
// work measured in grounded-operator sweeps (one sweep ≈ 4m+n flops).
func (li *LiveIndex) shouldRebase(st *liveState, patches int) bool {
	if li.opts.MaxPatches > 0 && patches >= li.opts.MaxPatches {
		return true
	}
	if li.opts.MaxPatchOverhead > 0 {
		n := float64(st.g.N())
		sweep := 4*float64(st.g.M()) + n
		if float64(patches)*n/sweep >= li.opts.MaxPatchOverhead {
			return true
		}
	}
	return false
}

// Rebase folds the current patch stack into a fresh materialized graph,
// rebuilds the portfolio and engine on it (the same parallel builds
// a cold start runs), and publishes the result as a new epoch. Mutations
// that race the rebuild are replayed onto the new epoch before
// publication, so no update is lost. The superseded epoch retires once
// its last pinned query releases it. Returns the new epoch sequence
// number; with an empty patch stack it returns the current one unchanged.
func (li *LiveIndex) Rebase(ctx context.Context) (uint64, error) {
	li.rebaseMu.Lock()
	defer li.rebaseMu.Unlock()
	start := time.Now()

	li.mu.Lock()
	st := li.mgr.Current().Value()
	base := st.patches()
	li.mu.Unlock()
	if len(base) == 0 {
		return li.mgr.Seq(), nil
	}

	g2, err := dynamic.MaterializeGraph(st.g, base)
	if err != nil {
		return li.mgr.Seq(), fmt.Errorf("landmarkrd: rebase materialize: %w", err)
	}
	next, err := li.buildState(g2, nil)
	if err != nil {
		return li.mgr.Seq(), err
	}

	li.mu.Lock()
	defer li.mu.Unlock()
	if li.mgr.Current().Value() != st {
		// A hot reload (PublishPortfolio) swapped the state under the
		// rebuild; its snapshot is authoritative.
		return li.mgr.Seq(), fmt.Errorf("landmarkrd: rebase aborted: epoch replaced during rebuild")
	}
	// Replay mutations that arrived while the rebuild ran. They were
	// accepted against base+suffix, so replaying the suffix on the
	// materialized base cannot disconnect; an error here is a solver
	// failure and aborts the re-base with the old epoch intact.
	for _, p := range st.patches()[len(base):] {
		if err := next.applyPatch(ctx, p.A, p.B, p.W); err != nil {
			return li.mgr.Seq(), fmt.Errorf("landmarkrd: rebase replay: %w", err)
		}
	}
	seq := li.publishLocked(next)
	li.metrics.ObserveRebase(time.Since(start))
	return seq, nil
}

// publishLocked publishes st as the new current epoch. Caller holds li.mu.
func (li *LiveIndex) publishLocked(st *liveState) uint64 {
	seq := li.mgr.Publish(st)
	li.metrics.EpochPublishes.Inc()
	return seq
}

// PublishPortfolio hot-swaps serving onto a prebuilt (e.g. snapshot-
// loaded) portfolio, publishing it as a new epoch: pf.G becomes the serving
// graph and any pending patches on the superseded epoch are dropped — the
// snapshot is authoritative. This is the SIGHUP reload path; it shares the
// epoch lifecycle with streamed updates. The portfolio must have
// PortfolioK landmarks; a mismatch is rejected and the current epoch keeps
// serving.
func (li *LiveIndex) PublishPortfolio(pf *PortfolioIndex) (uint64, error) {
	if pf == nil || pf.G == nil {
		return 0, fmt.Errorf("landmarkrd: PublishPortfolio: nil portfolio")
	}
	if li.opts.NoIndex {
		return 0, fmt.Errorf("landmarkrd: PublishPortfolio on a NoIndex live index")
	}
	st, err := li.buildState(pf.G, pf)
	if err != nil {
		return 0, err
	}
	li.mu.Lock()
	defer li.mu.Unlock()
	return li.publishLocked(st), nil
}

// Quiesce blocks until any in-flight background re-base finishes. Shutdown
// and tests use it; serving never needs to.
func (li *LiveIndex) Quiesce() { li.rebaseWG.Wait() }

// Pin returns the current epoch pinned for querying. The caller must
// Release it exactly once (extra Release calls are no-ops); the epoch's
// state cannot be retired or recycled while pinned.
func (li *LiveIndex) Pin() *LiveEpoch {
	return &LiveEpoch{e: li.mgr.Acquire(), metrics: li.metrics}
}

// LiveEpoch is a pinned, consistent serving snapshot: a materialized graph
// with the engine and portfolio built on it, plus the patch stack streamed
// onto it. All query methods are safe for concurrent use.
type LiveEpoch struct {
	e        *epoch.Epoch[*liveState]
	metrics  *Metrics
	released atomic.Bool
}

// Release unpins the epoch. Idempotent.
func (ep *LiveEpoch) Release() {
	if ep.released.CompareAndSwap(false, true) {
		ep.e.Release()
	}
}

// Seq returns the epoch sequence number.
func (ep *LiveEpoch) Seq() uint64 { return ep.e.Seq() }

// Graph returns the epoch's materialized graph (without pending patches).
func (ep *LiveEpoch) Graph() *Graph { return ep.e.Value().g }

// Fingerprint returns the fingerprint of the epoch's materialized graph.
// Batch and single-source answers are computed against exactly that graph
// (patches only affect FreshPairContext), so it is the correct cache key
// for this epoch's pair answers.
func (ep *LiveEpoch) Fingerprint() uint64 { return ep.e.Value().g.Fingerprint() }

// Engine returns the epoch's batch engine.
func (ep *LiveEpoch) Engine() *BatchEngine { return ep.e.Value().engine }

// Landmark returns the epoch's (primary) landmark vertex.
func (ep *LiveEpoch) Landmark() int { return ep.e.Value().engine.Landmark() }

// Portfolio returns the epoch's portfolio, or nil in NoIndex mode.
func (ep *LiveEpoch) Portfolio() *PortfolioIndex { return ep.e.Value().pf }

// Patches returns the number of mutations applied to this epoch so far.
func (ep *LiveEpoch) Patches() int { return ep.e.Value().patchCount() }

// PairsContext answers a batch against the epoch's materialized graph —
// bit-identical to the same batch on a cold build of that graph.
func (ep *LiveEpoch) PairsContext(ctx context.Context, queries []PairQuery) ([]PairResult, error) {
	return ep.e.Value().engine.PairsContext(ctx, queries)
}

// DegradedPairsContext answers a batch through the degraded Monte Carlo
// tier against the epoch's materialized graph.
func (ep *LiveEpoch) DegradedPairsContext(ctx context.Context, queries []PairQuery) ([]PairResult, error) {
	return ep.e.Value().engine.DegradedPairsContext(ctx, queries)
}

// SingleSourceContext returns r(s, t) for every t against the epoch's
// materialized graph, through the portfolio. Unavailable in NoIndex mode.
func (ep *LiveEpoch) SingleSourceContext(ctx context.Context, s int) ([]float64, error) {
	pf := ep.e.Value().pf
	if pf == nil {
		return nil, fmt.Errorf("landmarkrd: single-source queries need a portfolio (NoIndex live mode)")
	}
	out, _, err := pf.SingleSourceContext(ctx, s, core.SingleSourceOptions{})
	return out, err
}

// FreshPairContext returns r(s, t) with the epoch's pending patches folded
// in — the freshest consistent answer available without waiting for a
// re-base. One grounded solve plus O(1) per patch when a portfolio exists;
// full pseudo-inverse solves in NoIndex mode.
func (ep *LiveEpoch) FreshPairContext(ctx context.Context, s, t int) (float64, error) {
	st := ep.e.Value()
	if st.patched != nil {
		return st.patched.PairContext(ctx, s, t)
	}
	r, err := st.upd.Resistance(s, t)
	if err == nil {
		ep.metrics.PatchedQueries.Inc()
	}
	return r, err
}
