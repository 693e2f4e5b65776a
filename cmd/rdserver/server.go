package main

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"math"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	landmarkrd "landmarkrd"
	"landmarkrd/internal/httpapi"
	"landmarkrd/internal/rcache"
)

// serverConfig is everything the HTTP layer needs beyond the graph itself.
// It is a plain struct (rather than flag globals) so tests can build servers
// with aggressive timeouts and tiny admission limits.
type serverConfig struct {
	method       landmarkrd.Method
	seed         uint64
	walks        int
	theta        float64
	timeout      time.Duration // per-request budget; 0 disables
	maxInflight  int           // concurrent query cap; 0 means 16
	workers      int           // batch engine workers (0 = GOMAXPROCS)
	indexMode    string        // "exact", "mc", "sketch", or "none"
	precond      string        // CG preconditioner: "none", "jacobi", "chol", or "auto"
	portfolioK   int           // portfolio size; 0 means 1 (a single landmark column)
	snapshot     string        // portfolio snapshot path; load if present, else build and save
	retries      int           // per-query attempt budget for transient failures (0 = 1)
	degradeBelow time.Duration // degrade queries with less deadline than this left
	maxBody      int64         // request body byte cap; 0 means httpapi.DefaultMaxBody
	maxPatches   int           // re-base after this many live updates (0 = 64, <0 disables)
	rebaseInt    time.Duration // periodic re-base interval; 0 disables the ticker
	landmarks    string        // explicit portfolio landmark vertices ("3,17,42"); a replica's shard subset
	cacheSize    int           // pair result cache entries; 0 disables
}

// validate rejects nonsensical configurations at startup rather than
// letting them surface as confusing runtime behavior.
func (c *serverConfig) validate() error {
	if c.timeout < 0 {
		return fmt.Errorf("rdserver: -timeout must be >= 0, got %v", c.timeout)
	}
	if c.maxInflight < 0 {
		return fmt.Errorf("rdserver: -max-inflight must be >= 0, got %d", c.maxInflight)
	}
	if c.portfolioK < 0 {
		return fmt.Errorf("rdserver: -portfolio must be >= 0, got %d", c.portfolioK)
	}
	if _, ok := diagModes[c.indexMode]; !ok && c.indexMode != "" && c.indexMode != "none" {
		return fmt.Errorf("rdserver: unknown -index-mode %q (want exact, mc, sketch, or none)", c.indexMode)
	}
	if (c.portfolioK > 0 || c.landmarks != "") && (c.indexMode == "" || c.indexMode == "none") && c.snapshot == "" {
		return fmt.Errorf("rdserver: -portfolio and -landmarks need -index-mode exact|mc|sketch (or a -snapshot to load)")
	}
	if c.retries < 0 {
		return fmt.Errorf("rdserver: -retries must be >= 0, got %d", c.retries)
	}
	if c.degradeBelow < 0 {
		return fmt.Errorf("rdserver: -degrade-below must be >= 0, got %v", c.degradeBelow)
	}
	if c.maxBody < 0 {
		return fmt.Errorf("rdserver: -max-body must be >= 0, got %d", c.maxBody)
	}
	if c.rebaseInt < 0 {
		return fmt.Errorf("rdserver: -rebase-interval must be >= 0, got %v", c.rebaseInt)
	}
	if _, err := landmarkrd.ParsePrecondMode(c.precond); err != nil {
		return fmt.Errorf("rdserver: -precond: %w", err)
	}
	if c.cacheSize < 0 {
		return fmt.Errorf("rdserver: -cache must be >= 0, got %d", c.cacheSize)
	}
	if c.landmarks != "" {
		lms, err := landmarkrd.ParseLandmarkList(c.landmarks)
		if err != nil {
			return fmt.Errorf("rdserver: -landmarks: %w", err)
		}
		if c.portfolioK > 0 && c.portfolioK != len(lms) {
			return fmt.Errorf("rdserver: -landmarks names %d vertices but -portfolio is %d", len(lms), c.portfolioK)
		}
	}
	if c.degradeBelow > 0 && c.timeout > 0 && c.degradeBelow >= c.timeout {
		return fmt.Errorf("rdserver: -degrade-below (%v) must be below -timeout (%v), or every query would degrade", c.degradeBelow, c.timeout)
	}
	return nil
}

// queryServer owns the query-serving state: one epoch-versioned LiveIndex
// answering every /v1/pair, /v1/batch, /v1/singlesource, and /v1/update
// request behind the shared protocol's admission gate. Each query pins the
// current epoch for its whole lifetime, so streamed updates, background
// re-bases, and SIGHUP reloads never swap state out from under a running
// query — the superseded epoch retires only after its last pinned query
// releases it (one lifecycle for hot reloads and live updates alike).
type queryServer struct {
	g       *landmarkrd.Graph
	metrics *landmarkrd.Metrics
	cfg     serverConfig

	// api is the serving protocol: error envelope, admission gate, probes,
	// and the process loop.
	api *httpapi.Server

	// landmarks is the parsed -landmarks shard subset (nil when unset).
	landmarks []int

	// cache is the fingerprint-keyed pair result cache (nil when -cache is
	// 0). Keys carry the pinned epoch's graph fingerprint, so a re-base or
	// reload invalidates every stale entry by construction.
	cache *rcache.Cache

	// live is the epoch-versioned serving state: graph + engine +
	// index/portfolio per epoch, a patch log of streamed edge updates,
	// and a background re-baser.
	live *landmarkrd.LiveIndex

	// ready gates /readyz and /v1/update: false until the first epoch is
	// built, and false again while a reload is in progress. Queries are
	// still answered during a reload — readiness is advisory, for load
	// balancers — but updates are rejected with 503 so the reload's
	// snapshot stays authoritative.
	ready atomic.Bool

	// reloadMu serializes reloads (rapid SIGHUPs must not race each other).
	reloadMu sync.Mutex

	// onAdmit, when non-nil, runs after a query request wins an admission
	// slot and before it executes. Tests use it to hold a request in flight
	// deterministically while asserting saturation and drain behavior.
	onAdmit func()

	// onReload, when non-nil, observes the outcome of every reload attempt.
	// Tests use it to synchronize with SIGHUP handling.
	onReload func(error)
}

func newQueryServer(g *landmarkrd.Graph, cfg serverConfig) (*queryServer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	inflight := cfg.maxInflight
	if inflight <= 0 {
		inflight = 16
	}
	s := &queryServer{g: g, metrics: &landmarkrd.Metrics{}, cfg: cfg}
	s.api = httpapi.New("rdserver", inflight, cfg.timeout, cfg.seed, s.metrics.Panics.Inc)
	if cfg.landmarks != "" {
		lms, err := landmarkrd.ParseLandmarkList(cfg.landmarks)
		if err != nil {
			return nil, err // validate() already vetted; belt and braces
		}
		for _, v := range lms {
			if v < 0 || v >= g.N() {
				return nil, fmt.Errorf("rdserver: -landmarks vertex %d not in [0, %d)", v, g.N())
			}
		}
		s.landmarks = lms
		s.cfg.portfolioK = len(lms)
		cfg = s.cfg
	}
	if cfg.cacheSize > 0 {
		s.cache = rcache.New(cfg.cacheSize, s.metrics)
	}
	lo := landmarkrd.LiveOptions{
		Method: cfg.method,
		Batch: landmarkrd.BatchOptions{
			Options:      landmarkrd.Options{Seed: cfg.seed, Walks: cfg.walks, Theta: cfg.theta},
			Workers:      cfg.workers,
			MaxAttempts:  cfg.retries,
			DegradeBelow: cfg.degradeBelow,
		},
		Metrics:    s.metrics,
		MaxPatches: cfg.maxPatches,
		Precond:    cfg.precondMode(),
		OnRebase: func(seq uint64, err error) {
			if err != nil {
				fmt.Fprintln(os.Stderr, "rdserver: background rebase failed:", err)
				return
			}
			s.logEpoch("rebased onto", seq)
		},
	}
	if s.hasIndex() {
		pf, err := s.loadOrBuildPortfolio()
		if err != nil {
			return nil, err
		}
		lo.PortfolioK = cfg.portfolioK
		lo.Landmarks = s.landmarks
		lo.InitialPortfolio = pf
		if mode, ok := diagModes[cfg.indexMode]; ok {
			lo.Mode = mode
		} else {
			lo.Mode = pf.Mode // snapshot-only start: re-bases reuse its mode
		}
	} else {
		// No index configured: fresh reads fall back to full pseudo-inverse
		// solves and /v1/singlesource answers 501.
		lo.NoIndex = true
	}
	live, err := landmarkrd.NewLiveIndex(g, lo)
	if err != nil {
		return nil, err
	}
	s.live = live
	liveServer.Store(live)
	s.publishPrecond()
	s.ready.Store(true)
	return s, nil
}

// eng returns the batch engine of the current epoch (a peek, for startup
// logs and tests; query handlers pin a full epoch instead).
func (s *queryServer) eng() *landmarkrd.BatchEngine {
	ep := s.live.Pin()
	defer ep.Release()
	return ep.Engine()
}

// logEpoch logs a newly published epoch with the plan its engine answers
// pairs by.
func (s *queryServer) logEpoch(what string, seq uint64) {
	fmt.Fprintf(os.Stderr, "rdserver: %s epoch %d, plan %v\n", what, seq, s.eng().Plan())
}

// currentPortfolio peeks at the current epoch's portfolio (nil without an
// index).
func (s *queryServer) currentPortfolio() *landmarkrd.PortfolioIndex {
	ep := s.live.Pin()
	defer ep.Release()
	return ep.Portfolio()
}

// publishPrecond records the serving portfolio's resolved preconditioner
// modes in /debug/vars (one per landmark; jacobi for a snapshot-loaded
// portfolio, which does not persist them and serves with the default), or
// the flag value without an index, so the variable always reflects what is
// actually serving.
func (s *queryServer) publishPrecond() {
	if p := s.currentPortfolio(); p != nil {
		precondVar.Set(fmt.Sprintf("%v", p.PrecondModes))
		return
	}
	precondVar.Set(s.cfg.precondMode().String())
}

// precondMode parses the validated -precond flag value.
func (c *serverConfig) precondMode() landmarkrd.PrecondMode {
	m, _ := landmarkrd.ParsePrecondMode(c.precond)
	return m
}

// precondVar snapshots the resolved preconditioner mode(s) of the serving
// index into /debug/vars; set at startup and on every successful reload.
var precondVar = expvar.NewString("landmarkrd.precond")

// liveServer points expvar at the newest live index in the process (tests
// build several servers; production has one). Registered once in init —
// expvar panics on duplicate names.
var liveServer atomic.Pointer[landmarkrd.LiveIndex]

func init() {
	expvar.Publish("landmarkrd.epoch", expvar.Func(func() any {
		if li := liveServer.Load(); li != nil {
			return li.Epoch()
		}
		return uint64(0)
	}))
	expvar.Publish("landmarkrd.patches", expvar.Func(func() any {
		if li := liveServer.Load(); li != nil {
			return li.PendingPatches()
		}
		return 0
	}))
	expvar.Publish("landmarkrd.plan", expvar.Func(func() any {
		if li := liveServer.Load(); li != nil {
			ep := li.Pin()
			defer ep.Release()
			return ep.Engine().Plan()
		}
		return landmarkrd.Plan{}
	}))
}

// diagModes maps the -index-mode flag values to build modes.
var diagModes = map[string]landmarkrd.DiagMode{
	"exact":  landmarkrd.DiagExactCG,
	"mc":     landmarkrd.DiagMC,
	"sketch": landmarkrd.DiagSketch,
}

// hasIndex reports whether the server serves from a portfolio: a snapshot
// or a column builder (-index-mode exact, mc, or sketch) is configured.
func (s *queryServer) hasIndex() bool {
	_, ok := diagModes[s.cfg.indexMode]
	return ok || s.cfg.snapshot != ""
}

// loadOrBuildPortfolio resolves the portfolio configuration: a configured
// snapshot is loaded if present (v3, or a v2 single-landmark file upgraded
// to K=1; corruption or graph mismatch is a hard error — silently
// rebuilding would mask operational problems — and the live index refuses
// a K other than -portfolio), otherwise a portfolio of -portfolio
// landmarks (0 means 1) is built by -index-mode and saved back to the
// snapshot path so the next start is fast.
func (s *queryServer) loadOrBuildPortfolio() (*landmarkrd.PortfolioIndex, error) {
	if s.cfg.snapshot != "" {
		p, err := landmarkrd.LoadPortfolioIndex(s.cfg.snapshot, s.g)
		switch {
		case err == nil:
			if err := s.checkShardLandmarks(p.Landmarks); err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "rdserver: loaded portfolio snapshot %s (k=%d, landmarks %v, mode %s)\n",
				s.cfg.snapshot, p.K(), p.Landmarks, p.Mode)
			return p, nil
		case errors.Is(err, os.ErrNotExist):
			// Fall through to a fresh build (and save below).
		default:
			return nil, fmt.Errorf("rdserver: portfolio snapshot %s: %w", s.cfg.snapshot, err)
		}
	}
	mode, ok := diagModes[s.cfg.indexMode]
	if !ok {
		return nil, fmt.Errorf("rdserver: -snapshot %s does not exist; set -index-mode exact, mc, or sketch to build it (got %q)", s.cfg.snapshot, s.cfg.indexMode)
	}
	p, err := landmarkrd.BuildPortfolioIndex(s.g, landmarkrd.PortfolioBuildOptions{
		K:         landmarkrd.ServingPortfolioK(s.cfg.portfolioK),
		Landmarks: s.landmarks, Mode: mode, Seed: s.cfg.seed,
		Metrics: s.metrics, Precond: s.cfg.precondMode(),
	})
	if err != nil {
		return nil, fmt.Errorf("rdserver: building %s portfolio: %w", s.cfg.indexMode, err)
	}
	fmt.Fprintf(os.Stderr, "rdserver: built k=%d portfolio (landmarks %v, precond %v) in %v\n",
		p.K(), p.Landmarks, p.PrecondModes, p.BuildTime)
	if s.cfg.snapshot != "" {
		if err := landmarkrd.SavePortfolioIndex(p, s.cfg.snapshot); err != nil {
			return nil, fmt.Errorf("rdserver: saving portfolio snapshot: %w", err)
		}
		fmt.Fprintf(os.Stderr, "rdserver: saved portfolio snapshot to %s\n", s.cfg.snapshot)
	}
	return p, nil
}

// checkShardLandmarks rejects a snapshot whose landmark set does not match
// the -landmarks shard subset this replica was told to serve — loading it
// would silently move the replica's shard and break the fleet's routing.
func (s *queryServer) checkShardLandmarks(got []int) error {
	if len(s.landmarks) == 0 {
		return nil
	}
	if len(got) == len(s.landmarks) {
		same := true
		for i := range got {
			if got[i] != s.landmarks[i] {
				same = false
				break
			}
		}
		if same {
			return nil
		}
	}
	return fmt.Errorf("rdserver: snapshot landmarks %v do not match -landmarks %v", got, s.landmarks)
}

// reload re-resolves the serving state and publishes it as a new epoch:
// with a snapshot or index mode configured the re-read/rebuilt portfolio
// (with a fresh engine routing through it) is published and any pending
// live patches are dropped — the snapshot is authoritative; without one,
// reload folds the pending patch log through a re-base rather than
// reverting to the base graph. In-flight queries keep the epoch they
// pinned at request start and drain on the old state. On failure the old
// epoch stays current and the server returns to ready.
func (s *queryServer) reload() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	s.ready.Store(false)
	var err error
	var seq uint64
	if s.hasIndex() {
		var pf *landmarkrd.PortfolioIndex
		if pf, err = s.loadOrBuildPortfolio(); err == nil {
			seq, err = s.live.PublishPortfolio(pf)
		}
	} else {
		seq, err = s.live.Rebase(context.Background())
	}
	if err == nil {
		s.publishPrecond()
		s.logEpoch("reloaded onto", seq)
	}
	s.ready.Store(true)
	if s.onReload != nil {
		s.onReload(err)
	}
	return err
}

// rebaseLoop periodically folds the pending patch log into a fresh epoch
// (the -rebase-interval ticker; threshold-triggered re-bases run
// regardless). Stops when ctx is done.
func (s *queryServer) rebaseLoop(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if s.live.PendingPatches() == 0 {
				continue
			}
			seq, err := s.live.Rebase(ctx)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rdserver: periodic rebase failed:", err)
				continue
			}
			s.logEpoch("rebased onto", seq)
		}
	}
}

// routes builds the server's handler on the shared protocol (method
// patterns with JSON 405s, probes, /debug/vars, panic recovery, admission).
func (s *queryServer) routes() http.Handler {
	return s.api.Routes(s.notReady, map[string]http.HandlerFunc{
		"GET /v1/pair":         s.pressure(s.handlePair),
		"POST /v1/batch":       s.pressure(s.handleBatch),
		"GET /v1/singlesource": s.pressure(s.handleSingleSource),
		"POST /v1/update":      s.pressure(s.handleUpdate),
	})
}

// notReady is the /readyz reason: not ready until the first epoch is
// built, and again while a reload is in progress.
func (s *queryServer) notReady() (code, msg string) {
	if !s.ready.Load() {
		return "not_ready", "index loading or reloading"
	}
	return "", ""
}

// degradeKey marks a request the admission layer wants answered by the
// degraded tier (load shedding under pressure).
type ctxKey int

const degradeKey ctxKey = 0

// forceDegrade reports whether admission flagged this request for the
// degraded tier.
func forceDegrade(ctx context.Context) bool {
	v, _ := ctx.Value(degradeKey).(bool)
	return v
}

// pressure runs inside the admission gate: an admitted request that finds
// three quarters of the slots taken (its own included) is flagged for the
// degraded tier instead of starting exact work that may miss its deadline.
func (s *queryServer) pressure(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.onAdmit != nil {
			s.onAdmit()
		}
		if taken, slots := s.api.Occupancy(); slots >= 4 && taken >= 3*slots/4 {
			r = r.WithContext(context.WithValue(r.Context(), degradeKey, true))
		}
		h(w, r)
	}
}

// batchPairs runs the batch through the pinned epoch's engine, honoring a
// load-shedding degrade flag set at admission.
func batchPairs(ctx context.Context, ep *landmarkrd.LiveEpoch, queries []landmarkrd.PairQuery) ([]landmarkrd.PairResult, error) {
	if forceDegrade(ctx) {
		return ep.DegradedPairsContext(ctx, queries)
	}
	return ep.PairsContext(ctx, queries)
}

// solvePair answers one pair query, through the result cache when one is
// configured. The cache key carries the pinned epoch's graph fingerprint,
// so an answer computed on a superseded epoch can never be served after a
// re-base or reload — the new epoch's queries simply look up a different
// key. Only clean answers (no error, not degraded, converged) are shareable:
// rcache stores them and hands them to concurrent identical requests. The
// returned string is the cache outcome ("hit", "miss", "shared"), or empty
// when the cache was disabled or bypassed.
func (s *queryServer) solvePair(ctx context.Context, ep *landmarkrd.LiveEpoch, q landmarkrd.PairQuery) (landmarkrd.PairResult, string, error) {
	if s.cache == nil || forceDegrade(ctx) {
		// Load-shed degraded answers bypass the cache entirely: they must
		// not displace exact entries, and their bounds are per-request.
		res, err := s.solvePairDirect(ctx, ep, q)
		return res, "", err
	}
	key := rcache.NewKey(ep.Fingerprint(), q.S, q.T)
	var full landmarkrd.PairResult
	var have bool
	v, out, err := s.cache.Do(ctx, key, func() (float64, bool, error) {
		res, err := s.solvePairDirect(ctx, ep, q)
		full, have = res, err == nil
		return res.Estimate.Value, res.Err == nil && !res.Degraded && res.Estimate.Converged, err
	})
	switch {
	case err != nil:
		return landmarkrd.PairResult{}, "", err
	case !have:
		// Hit or Shared: only clean converged values are ever stored or
		// shared, so the bare float reconstructs the full answer.
		full = landmarkrd.PairResult{PairQuery: q, Estimate: landmarkrd.Estimate{Value: v, Converged: true}}
	}
	return full, out.String(), nil
}

func (s *queryServer) solvePairDirect(ctx context.Context, ep *landmarkrd.LiveEpoch, q landmarkrd.PairQuery) (landmarkrd.PairResult, error) {
	results, err := batchPairs(ctx, ep, []landmarkrd.PairQuery{q})
	if err != nil {
		return landmarkrd.PairResult{}, err
	}
	return results[0], nil
}

type pairResponse struct {
	S         int     `json:"s"`
	T         int     `json:"t"`
	Value     float64 `json:"value"`
	Converged bool    `json:"converged"`
	// Degraded marks an answer from the fallback tier; ErrorBound is its
	// conservative absolute error bound. A pointer, not a bare float64 with
	// omitempty: a degraded answer whose bound rounds to exactly 0 must
	// still carry the field — dropping it told clients the bound was
	// unknown when it was actually the best possible one.
	Degraded   bool     `json:"degraded,omitempty"`
	ErrorBound *float64 `json:"error_bound,omitempty"`
	Err        string   `json:"error,omitempty"`
	// Cache reports how the result cache answered ("hit", "miss",
	// "shared"); empty when caching is disabled or bypassed.
	Cache string `json:"cache,omitempty"`
}

// degradedMethod is a /v1/pair reply's method for an answer from the
// degraded tier (which then also carries degraded and error_bound).
const degradedMethod = "degraded"

func (s *queryServer) handlePair(w http.ResponseWriter, r *http.Request) {
	// Pin the current epoch for the whole request: a concurrent update,
	// re-base, or reload publishes a new epoch for later requests while
	// this one drains on a consistent snapshot.
	ep := s.live.Pin()
	defer ep.Release()
	sv, tv, err := httpapi.PairParams(r, ep.Graph().N())
	if err != nil {
		s.api.RequestError(w, err)
		return
	}
	start := time.Now()
	res, cacheOutcome, err := s.solvePair(r.Context(), ep, landmarkrd.PairQuery{S: sv, T: tv})
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	if res.Err != nil {
		// A single-pair request with a failed query is an error response,
		// not a 200 carrying an error string (that shape is for batches).
		s.writeQueryError(w, res.Err)
		return
	}
	// method names the path that answered: the epoch plan's, or the
	// degraded tier's.
	method := ep.Engine().Plan().Path
	if res.Degraded {
		method = degradedMethod
	}
	resp := struct {
		pairResponse
		Method    string  `json:"method"`
		Landmark  int     `json:"landmark"`
		Epoch     uint64  `json:"epoch"`
		Portfolio []int   `json:"portfolio,omitempty"`
		ElapsedMS float64 `json:"elapsed_ms"`
	}{
		pairResponse: toPairResponse(res),
		Method:       method,
		Landmark:     ep.Landmark(),
		Epoch:        ep.Seq(),
		ElapsedMS:    float64(time.Since(start).Microseconds()) / 1e3,
	}
	resp.Cache = cacheOutcome
	if pf := ep.Portfolio(); pf != nil {
		resp.Portfolio = pf.Landmarks
	}
	httpapi.WriteJSON(w, resp)
}

func (s *queryServer) handleBatch(w http.ResponseWriter, r *http.Request) {
	ep := s.live.Pin()
	defer ep.Release()
	pairs, err := httpapi.DecodePairs(w, r, s.cfg.maxBody, ep.Graph().N())
	if err != nil {
		s.api.RequestError(w, err)
		return
	}
	queries := make([]landmarkrd.PairQuery, len(pairs))
	for i, p := range pairs {
		queries[i] = landmarkrd.PairQuery{S: p.S, T: p.T}
	}
	start := time.Now()
	results, err := batchPairs(r.Context(), ep, queries)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	out := struct {
		Landmark  int            `json:"landmark"`
		Epoch     uint64         `json:"epoch"`
		Portfolio []int          `json:"portfolio,omitempty"`
		ElapsedMS float64        `json:"elapsed_ms"`
		Results   []pairResponse `json:"results"`
	}{
		Landmark:  ep.Landmark(),
		Epoch:     ep.Seq(),
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1e3,
	}
	if pf := ep.Portfolio(); pf != nil {
		out.Portfolio = pf.Landmarks
	}
	for _, res := range results {
		out.Results = append(out.Results, toPairResponse(res))
	}
	httpapi.WriteJSON(w, out)
}

func (s *queryServer) handleSingleSource(w http.ResponseWriter, r *http.Request) {
	// Pin the epoch once: a concurrent reload publishes a new epoch for
	// later requests, while this one drains on the snapshot it started
	// with.
	ep := s.live.Pin()
	defer ep.Release()
	pf := ep.Portfolio()
	if pf == nil {
		s.api.Error(w, http.StatusNotImplemented, "no_index",
			"no landmark index configured (start with -index-mode exact|mc|sketch)")
		return
	}
	src, err := httpapi.IntParam(r, "s")
	if err == nil {
		err = httpapi.Vertex(src, ep.Graph().N())
	}
	if err != nil {
		s.api.RequestError(w, err)
		return
	}
	start := time.Now()
	// Route to the cheapest landmark for this source and report which one
	// served the query.
	values, landmark, err := landmarkrd.PortfolioSingleSourceContext(r.Context(), pf, src)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	httpapi.WriteJSON(w, struct {
		S         int       `json:"s"`
		Landmark  int       `json:"landmark"`
		Epoch     uint64    `json:"epoch"`
		ElapsedMS float64   `json:"elapsed_ms"`
		Values    []float64 `json:"values"`
	}{
		S:         src,
		Landmark:  landmark,
		Epoch:     ep.Seq(),
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1e3,
		Values:    values,
	})
}

// updateRequest is the /v1/update body.
type updateRequest struct {
	Op     string  `json:"op"` // "add" or "remove"
	S      int     `json:"s"`
	T      int     `json:"t"`
	Weight float64 `json:"weight"` // conductance delta; 0 means 1
}

// handleUpdate applies one streamed edge mutation: POST
// {"op":"add"|"remove","s":0,"t":1,"weight":1.5}. The mutation lands on
// the current epoch's patch log without blocking queries; crossing the
// -max-patches threshold triggers a background re-base. Removing more
// conductance than the pair carries is rejected with 422
// ("exceeds_conductance"), removing a bridge with 422 ("disconnecting");
// updates during a reload are rejected with 503 so the incoming snapshot
// stays authoritative.
func (s *queryServer) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		s.api.Error(w, http.StatusServiceUnavailable, "not_ready",
			"reload in progress; retry the update once the server is ready")
		return
	}
	var req updateRequest
	if err := httpapi.DecodeJSON(w, r, s.cfg.maxBody, &req); err != nil {
		s.api.RequestError(w, err)
		return
	}
	var op landmarkrd.UpdateOp
	switch req.Op {
	case "add":
		op = landmarkrd.UpdateAddEdge
	case "remove":
		op = landmarkrd.UpdateRemoveEdge
	default:
		s.api.Error(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("unknown op %q (want \"add\" or \"remove\")", req.Op))
		return
	}
	if req.Weight == 0 {
		req.Weight = 1
	}
	if !(req.Weight > 0) || math.IsInf(req.Weight, 0) {
		s.api.Error(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("weight must be positive and finite, got %v", req.Weight))
		return
	}
	// Vertex validation against the current epoch's graph: well-formed but
	// unanswerable input is 422, matching the query paths.
	ep := s.live.Pin()
	n := ep.Graph().N()
	ep.Release()
	if req.S < 0 || req.S >= n || req.T < 0 || req.T >= n {
		s.api.Error(w, http.StatusUnprocessableEntity, "vertex_out_of_range",
			fmt.Sprintf("vertices (%d,%d) not in [0, %d)", req.S, req.T, n))
		return
	}
	if req.S == req.T {
		s.api.Error(w, http.StatusUnprocessableEntity, "self_loop",
			fmt.Sprintf("self loop (%d,%d)", req.S, req.T))
		return
	}
	start := time.Now()
	res, err := s.live.ApplyUpdate(r.Context(), landmarkrd.GraphUpdate{
		Op: op, S: req.S, T: req.T, Weight: req.Weight,
	})
	if err != nil {
		if errors.Is(err, landmarkrd.ErrExceedsConductance) {
			s.api.Error(w, http.StatusUnprocessableEntity, "exceeds_conductance", err.Error())
			return
		}
		if errors.Is(err, landmarkrd.ErrDisconnecting) {
			s.api.Error(w, http.StatusUnprocessableEntity, "disconnecting", err.Error())
			return
		}
		s.writeQueryError(w, err)
		return
	}
	httpapi.WriteJSON(w, struct {
		Op              string  `json:"op"`
		S               int     `json:"s"`
		T               int     `json:"t"`
		Weight          float64 `json:"weight"`
		Epoch           uint64  `json:"epoch"`
		Patches         int     `json:"patches"`
		RebaseTriggered bool    `json:"rebase_triggered"`
		ElapsedMS       float64 `json:"elapsed_ms"`
	}{
		Op:              req.Op,
		S:               req.S,
		T:               req.T,
		Weight:          req.Weight,
		Epoch:           res.Epoch,
		Patches:         res.Patches,
		RebaseTriggered: res.RebaseTriggered,
		ElapsedMS:       float64(time.Since(start).Microseconds()) / 1e3,
	})
}

// writeQueryError maps a failed query to an HTTP status: a deadline that
// expired mid-solve is a 504 (the server gave up, not the client), a
// client-side cancellation gets the nginx-style 499, an unanswerable query
// (disconnected graph) is a 422, a recovered worker panic is a 500, and
// anything else is a 500.
func (s *queryServer) writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.api.Error(w, http.StatusGatewayTimeout, "deadline_exceeded",
			"query exceeded the server time budget: "+err.Error())
	case errors.Is(err, landmarkrd.ErrCanceled):
		s.api.Error(w, 499, "canceled", "query canceled: "+err.Error())
	case errors.Is(err, landmarkrd.ErrDisconnected):
		s.api.Error(w, http.StatusUnprocessableEntity, "disconnected", err.Error())
	case errors.Is(err, landmarkrd.ErrInternal):
		s.api.Error(w, http.StatusInternalServerError, "internal",
			"internal error (worker panic recovered): "+err.Error())
	default:
		s.api.Error(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

func toPairResponse(res landmarkrd.PairResult) pairResponse {
	out := pairResponse{S: res.S, T: res.T, Value: res.Estimate.Value, Converged: res.Estimate.Converged}
	if res.Degraded {
		out.Degraded = true
		bound := res.Estimate.ErrBound
		out.ErrorBound = &bound
	}
	if res.Err != nil {
		out.Err = res.Err.Error()
	}
	return out
}
