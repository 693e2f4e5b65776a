// Package obs provides the cheap, always-on observability layer the
// landmark estimators are instrumented with: lock-free atomic counters and
// log-scale work/latency histograms, aggregated in a Metrics struct whose
// Snapshot is safe to read while queries are in flight.
//
// Every estimator owns a *Metrics and records one QueryObservation per pair
// query (push operations, walk steps, residual L1 mass at termination,
// landmark hits, wall time). Several estimators may share one Metrics —
// all recording paths are plain atomic operations, which is what makes the
// pooled batch engine race-detector clean. Metrics snapshots are published
// to the process expvar registry with Publish, from which the cmd tools'
// -debug-addr HTTP endpoint serves them alongside net/http/pprof.
package obs

import (
	"encoding/json"
	"expvar"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// FloatCounter accumulates a float64 sum with compare-and-swap updates.
// The zero value is ready to use.
type FloatCounter struct{ bits atomic.Uint64 }

// Add accumulates x into the counter.
func (c *FloatCounter) Add(x float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Load returns the accumulated sum.
func (c *FloatCounter) Load() float64 { return math.Float64frombits(c.bits.Load()) }

// Histogram is a lock-free histogram with power-of-two buckets: an observed
// value v > 0 lands in bucket bits.Len64(v), i.e. bucket i covers
// [2^(i-1), 2^i). Quantiles read from a Snapshot are therefore exact to
// within a factor of two — plenty for latency and work-count distributions,
// and recording is two atomic adds. The zero value is ready to use.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [65]atomic.Int64
}

// Observe records one value (negative values are clamped to zero).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(uint64(v))].Add(1)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Merge adds src's observations into h, bucket by bucket, so worker-local
// histograms can be folded into a shared one when a worker pool joins.
// Quantiles of the merged histogram are exactly what they would have been
// had every value been observed on h directly.
func (h *Histogram) Merge(src *Histogram) {
	if h == nil || src == nil {
		return
	}
	h.count.Add(src.count.Load())
	h.sum.Add(src.sum.Load())
	for i := range h.buckets {
		if n := src.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	v := src.max.Load()
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// HistSnapshot is a point-in-time view of a Histogram.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	Max   int64   `json:"max"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
}

// Snapshot returns the current histogram state. Because the individual
// atomics are read independently the snapshot can be slightly torn under
// concurrent writes; counts never decrease, so it is always a valid recent
// state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	s.P50 = h.quantile(s.Count, 0.50)
	s.P90 = h.quantile(s.Count, 0.90)
	s.P99 = h.quantile(s.Count, 0.99)
	return s
}

// quantile returns the upper bound of the bucket containing the q-quantile.
func (h *Histogram) quantile(total int64, q float64) int64 {
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum > rank {
			if i == 0 {
				return 0
			}
			return 1 << uint(i) // upper edge of [2^(i-1), 2^i)
		}
	}
	return h.max.Load()
}

// Metrics aggregates every counter the instrumented query paths record.
// All fields are safe for concurrent use; the struct must not be copied
// after first use. A nil *Metrics is a valid no-op sink for every recording
// method, so instrumented code never needs nil checks of its own.
type Metrics struct {
	Queries        Counter // pair queries answered
	Errors         Counter // queries that returned an error
	Canceled       Counter // queries/solves aborted by context cancellation
	ExactFallbacks Counter // landmark-conflict queries answered by the exact solver
	FallbackErrors Counter // exact-fallback solves that themselves failed
	PlannedExact   Counter // queries the method planner sent to the exact solver
	Degraded       Counter // queries answered by the degraded fallback tier
	Retries        Counter // transient-failure retry attempts
	Panics         Counter // worker panics recovered into typed internal errors

	PushOps        Counter // push edge relaxations
	Pushes         Counter // vertex pushes
	Walks          Counter // absorbed walks sampled
	WalkSteps      Counter // random-walk steps taken
	LandmarkHits   Counter // walks absorbed at the landmark
	TruncatedWalks Counter // walks cut off by the MaxSteps budget

	ResidualL1 FloatCounter // accumulated final ‖res‖₁ at push termination

	EstimatorBuilds Counter // estimator constructions (pool misses)
	IndexBuilds     Counter // landmark index constructions
	PrecondBuilds   Counter // approximate-Cholesky preconditioner factorizations

	PortfolioQueries Counter // queries routed through a portfolio index
	RouterFallbacks  Counter // routed landmarks skipped on conflict with s or t

	LiveUpdates    Counter // edge mutations applied to a live index
	PatchedQueries Counter // fresh reads answered on base plus patch log
	Rebases        Counter // live-index re-bases (full rebuilds folding patches in)
	EpochPublishes Counter // serving epochs published (rebases + hot reloads)
	EpochRetires   Counter // superseded epochs retired after their readers drained

	CacheHits      Counter // result-cache lookups answered from a stored value
	CacheMisses    Counter // result-cache lookups that ran the engine
	CacheShared    Counter // lookups that piggybacked on a concurrent identical solve
	CacheEvictions Counter // cached results evicted by the LRU policy

	ShardRouted    Counter // proxy queries forwarded to their cheapest landmark owner
	ShardFailovers Counter // proxy queries failed over past a down/saturated shard

	BreakerOpens          Counter // circuit-breaker transitions into the open state
	BreakerHalfOpenProbes Counter // half-open probe attempts admitted by a breaker
	HedgedRequests        Counter // secondary (hedged) requests launched
	HedgeWins             Counter // queries answered first by a hedged request
	RetryBudgetExhausted  Counter // failover/hedge attempts denied by the retry budget

	CGSolves     Counter // grounded CG solves
	CGIterations Counter // total CG iterations across solves
	LabelBuilds  Counter // elimination-label builds run, over-budget attempts included
	LabelAnswers Counter // exact pair answers read from elimination labels

	QueryTime        Histogram // per-query wall time, nanoseconds
	PushWork         Histogram // per-query push edge relaxations
	WalkWork         Histogram // per-query walk steps
	IndexBuildTime   Histogram // per-BuildIndex wall time, nanoseconds
	ColumnBuildTime  Histogram // per-landmark portfolio column build time, ns
	PrecondBuildTime Histogram // per-factorization preconditioner build time, ns
	RebaseTime       Histogram // per-rebase wall time, nanoseconds
}

// Merge folds src's counters and histograms into m. The index builder uses
// it to combine worker-local sinks into the shared Metrics after a parallel
// build, keeping the hot recording paths contention-free. Safe on a nil
// receiver or source (no-op); src should be quiescent while merging.
func (m *Metrics) Merge(src *Metrics) {
	if m == nil || src == nil {
		return
	}
	m.Queries.Add(src.Queries.Load())
	m.Errors.Add(src.Errors.Load())
	m.Canceled.Add(src.Canceled.Load())
	m.ExactFallbacks.Add(src.ExactFallbacks.Load())
	m.FallbackErrors.Add(src.FallbackErrors.Load())
	m.PlannedExact.Add(src.PlannedExact.Load())
	m.Degraded.Add(src.Degraded.Load())
	m.Retries.Add(src.Retries.Load())
	m.Panics.Add(src.Panics.Load())

	m.PushOps.Add(src.PushOps.Load())
	m.Pushes.Add(src.Pushes.Load())
	m.Walks.Add(src.Walks.Load())
	m.WalkSteps.Add(src.WalkSteps.Load())
	m.LandmarkHits.Add(src.LandmarkHits.Load())
	m.TruncatedWalks.Add(src.TruncatedWalks.Load())

	m.ResidualL1.Add(src.ResidualL1.Load())

	m.EstimatorBuilds.Add(src.EstimatorBuilds.Load())
	m.IndexBuilds.Add(src.IndexBuilds.Load())
	m.PrecondBuilds.Add(src.PrecondBuilds.Load())

	m.PortfolioQueries.Add(src.PortfolioQueries.Load())
	m.RouterFallbacks.Add(src.RouterFallbacks.Load())

	m.LiveUpdates.Add(src.LiveUpdates.Load())
	m.PatchedQueries.Add(src.PatchedQueries.Load())
	m.Rebases.Add(src.Rebases.Load())
	m.EpochPublishes.Add(src.EpochPublishes.Load())
	m.EpochRetires.Add(src.EpochRetires.Load())

	m.CacheHits.Add(src.CacheHits.Load())
	m.CacheMisses.Add(src.CacheMisses.Load())
	m.CacheShared.Add(src.CacheShared.Load())
	m.CacheEvictions.Add(src.CacheEvictions.Load())

	m.ShardRouted.Add(src.ShardRouted.Load())
	m.ShardFailovers.Add(src.ShardFailovers.Load())

	m.BreakerOpens.Add(src.BreakerOpens.Load())
	m.BreakerHalfOpenProbes.Add(src.BreakerHalfOpenProbes.Load())
	m.HedgedRequests.Add(src.HedgedRequests.Load())
	m.HedgeWins.Add(src.HedgeWins.Load())
	m.RetryBudgetExhausted.Add(src.RetryBudgetExhausted.Load())

	m.CGSolves.Add(src.CGSolves.Load())
	m.CGIterations.Add(src.CGIterations.Load())
	m.LabelBuilds.Add(src.LabelBuilds.Load())
	m.LabelAnswers.Add(src.LabelAnswers.Load())

	m.QueryTime.Merge(&src.QueryTime)
	m.PushWork.Merge(&src.PushWork)
	m.WalkWork.Merge(&src.WalkWork)
	m.IndexBuildTime.Merge(&src.IndexBuildTime)
	m.ColumnBuildTime.Merge(&src.ColumnBuildTime)
	m.PrecondBuildTime.Merge(&src.PrecondBuildTime)
	m.RebaseTime.Merge(&src.RebaseTime)
}

// QueryObservation carries everything one pair query contributes to the
// metrics.
type QueryObservation struct {
	Duration       time.Duration
	PushOps        int64
	Pushes         int64
	Walks          int64
	WalkSteps      int64
	LandmarkHits   int64
	TruncatedWalks int64
	ResidualL1     float64
	Err            bool
	// Canceled marks a query aborted by context cancellation. The partial
	// work done before the abort (push ops, walk steps) is still recorded,
	// so the histograms account for wasted effort under deadline pressure.
	Canceled bool
}

// ObserveQuery records one pair query. Safe on a nil receiver.
func (m *Metrics) ObserveQuery(o QueryObservation) {
	if m == nil {
		return
	}
	m.Queries.Inc()
	if o.Err {
		m.Errors.Inc()
		return
	}
	if o.Canceled {
		m.Canceled.Inc()
	}
	m.PushOps.Add(o.PushOps)
	m.Pushes.Add(o.Pushes)
	m.Walks.Add(o.Walks)
	m.WalkSteps.Add(o.WalkSteps)
	m.LandmarkHits.Add(o.LandmarkHits)
	m.TruncatedWalks.Add(o.TruncatedWalks)
	m.ResidualL1.Add(o.ResidualL1)
	m.QueryTime.Observe(o.Duration.Nanoseconds())
	m.PushWork.Observe(o.PushOps)
	m.WalkWork.Observe(o.WalkSteps)
}

// ObserveSolve records one grounded CG solve. Safe on a nil receiver.
func (m *Metrics) ObserveSolve(iterations int, d time.Duration) {
	if m == nil {
		return
	}
	m.CGSolves.Inc()
	m.CGIterations.Add(int64(iterations))
	m.QueryTime.Observe(d.Nanoseconds())
}

// ObserveLabelAnswer records one exact pair answer read from elimination
// labels. Safe on a nil receiver.
func (m *Metrics) ObserveLabelAnswer(d time.Duration) {
	if m == nil {
		return
	}
	m.LabelAnswers.Inc()
	m.QueryTime.Observe(d.Nanoseconds())
}

// ObserveRebase records one live-index re-base (a full rebuild folding the
// patch log into a fresh epoch). Safe on a nil receiver.
func (m *Metrics) ObserveRebase(d time.Duration) {
	if m == nil {
		return
	}
	m.Rebases.Inc()
	m.RebaseTime.Observe(d.Nanoseconds())
}

// ObservePrecondBuild records one preconditioner factorization. Safe on a
// nil receiver.
func (m *Metrics) ObservePrecondBuild(d time.Duration) {
	if m == nil {
		return
	}
	m.PrecondBuilds.Inc()
	m.PrecondBuildTime.Observe(d.Nanoseconds())
}

// Snapshot is a point-in-time copy of a Metrics, with JSON tags so it can
// be served over expvar or printed directly.
type Snapshot struct {
	Queries        int64 `json:"queries"`
	Errors         int64 `json:"errors"`
	Canceled       int64 `json:"canceled"`
	ExactFallbacks int64 `json:"exact_fallbacks"`
	FallbackErrors int64 `json:"fallback_errors"`
	PlannedExact   int64 `json:"planned_exact"`
	Degraded       int64 `json:"degraded"`
	Retries        int64 `json:"retries"`
	Panics         int64 `json:"panics"`

	PushOps        int64 `json:"push_ops"`
	Pushes         int64 `json:"pushes"`
	Walks          int64 `json:"walks"`
	WalkSteps      int64 `json:"walk_steps"`
	LandmarkHits   int64 `json:"landmark_hits"`
	TruncatedWalks int64 `json:"truncated_walks"`

	ResidualL1 float64 `json:"residual_l1"`

	EstimatorBuilds int64 `json:"estimator_builds"`
	IndexBuilds     int64 `json:"index_builds"`
	PrecondBuilds   int64 `json:"precond_builds"`

	PortfolioQueries int64 `json:"portfolio_queries"`
	RouterFallbacks  int64 `json:"router_fallbacks"`

	LiveUpdates    int64 `json:"live_updates"`
	PatchedQueries int64 `json:"patched_queries"`
	Rebases        int64 `json:"rebases"`
	EpochPublishes int64 `json:"epoch_publishes"`
	EpochRetires   int64 `json:"epoch_retires"`

	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheShared    int64 `json:"cache_shared"`
	CacheEvictions int64 `json:"cache_evictions"`

	ShardRouted    int64 `json:"shard_routed"`
	ShardFailovers int64 `json:"shard_failovers"`

	BreakerOpens          int64 `json:"breaker_opens"`
	BreakerHalfOpenProbes int64 `json:"breaker_half_open_probes"`
	HedgedRequests        int64 `json:"hedged_requests"`
	HedgeWins             int64 `json:"hedge_wins"`
	RetryBudgetExhausted  int64 `json:"retry_budget_exhausted"`

	CGSolves     int64 `json:"cg_solves"`
	CGIterations int64 `json:"cg_iterations"`
	LabelBuilds  int64 `json:"label_builds"`
	LabelAnswers int64 `json:"label_answers"`

	QueryTime        HistSnapshot `json:"query_time_ns"`
	PushWork         HistSnapshot `json:"push_work"`
	WalkWork         HistSnapshot `json:"walk_work"`
	IndexBuildTime   HistSnapshot `json:"index_build_time_ns"`
	ColumnBuildTime  HistSnapshot `json:"column_build_time_ns"`
	PrecondBuildTime HistSnapshot `json:"precond_build_time_ns"`
	RebaseTime       HistSnapshot `json:"rebase_time_ns"`
}

// Snapshot returns the current state. Safe on a nil receiver (zero
// Snapshot) and safe to call while queries record concurrently.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	return Snapshot{
		Queries:        m.Queries.Load(),
		Errors:         m.Errors.Load(),
		Canceled:       m.Canceled.Load(),
		ExactFallbacks: m.ExactFallbacks.Load(),
		FallbackErrors: m.FallbackErrors.Load(),
		PlannedExact:   m.PlannedExact.Load(),
		Degraded:       m.Degraded.Load(),
		Retries:        m.Retries.Load(),
		Panics:         m.Panics.Load(),

		PushOps:        m.PushOps.Load(),
		Pushes:         m.Pushes.Load(),
		Walks:          m.Walks.Load(),
		WalkSteps:      m.WalkSteps.Load(),
		LandmarkHits:   m.LandmarkHits.Load(),
		TruncatedWalks: m.TruncatedWalks.Load(),

		ResidualL1: m.ResidualL1.Load(),

		EstimatorBuilds: m.EstimatorBuilds.Load(),
		IndexBuilds:     m.IndexBuilds.Load(),
		PrecondBuilds:   m.PrecondBuilds.Load(),

		PortfolioQueries: m.PortfolioQueries.Load(),
		RouterFallbacks:  m.RouterFallbacks.Load(),

		LiveUpdates:    m.LiveUpdates.Load(),
		PatchedQueries: m.PatchedQueries.Load(),
		Rebases:        m.Rebases.Load(),
		EpochPublishes: m.EpochPublishes.Load(),
		EpochRetires:   m.EpochRetires.Load(),

		CacheHits:      m.CacheHits.Load(),
		CacheMisses:    m.CacheMisses.Load(),
		CacheShared:    m.CacheShared.Load(),
		CacheEvictions: m.CacheEvictions.Load(),

		ShardRouted:    m.ShardRouted.Load(),
		ShardFailovers: m.ShardFailovers.Load(),

		BreakerOpens:          m.BreakerOpens.Load(),
		BreakerHalfOpenProbes: m.BreakerHalfOpenProbes.Load(),
		HedgedRequests:        m.HedgedRequests.Load(),
		HedgeWins:             m.HedgeWins.Load(),
		RetryBudgetExhausted:  m.RetryBudgetExhausted.Load(),

		CGSolves:     m.CGSolves.Load(),
		CGIterations: m.CGIterations.Load(),
		LabelBuilds:  m.LabelBuilds.Load(),
		LabelAnswers: m.LabelAnswers.Load(),

		QueryTime:        m.QueryTime.Snapshot(),
		PushWork:         m.PushWork.Snapshot(),
		WalkWork:         m.WalkWork.Snapshot(),
		IndexBuildTime:   m.IndexBuildTime.Snapshot(),
		ColumnBuildTime:  m.ColumnBuildTime.Snapshot(),
		PrecondBuildTime: m.PrecondBuildTime.Snapshot(),
		RebaseTime:       m.RebaseTime.Snapshot(),
	}
}

// String renders the snapshot as indented JSON.
func (s Snapshot) String() string {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return "{}"
	}
	return string(b)
}

var (
	publishMu sync.Mutex
	published = map[string]*Metrics{}
)

// Publish exposes m's snapshots under name on the process expvar registry
// (served at /debug/vars by the cmd tools' -debug-addr endpoint).
// Publishing an already-used name atomically swaps the underlying Metrics,
// so short-lived estimators can re-publish under a stable name.
func Publish(name string, m *Metrics) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if _, ok := published[name]; !ok {
		n := name
		expvar.Publish(n, expvar.Func(func() any {
			publishMu.Lock()
			cur := published[n]
			publishMu.Unlock()
			return cur.Snapshot()
		}))
	}
	published[name] = m
}
