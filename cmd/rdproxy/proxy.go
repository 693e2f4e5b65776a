package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	landmarkrd "landmarkrd"
	"landmarkrd/internal/breaker"
	"landmarkrd/internal/cluster"
	"landmarkrd/internal/httpapi"
	"landmarkrd/internal/rcache"
	"landmarkrd/internal/retry"
)

// proxyConfig is the coordinator's configuration, mirroring rdserver's
// plain-struct style so tests can build proxies directly.
type proxyConfig struct {
	replicas    []string      // replica base URLs, e.g. http://host:8080
	portfolioK  int           // fleet portfolio size (ignored when a snapshot is loaded)
	indexMode   string        // portfolio column builder: exact, mc, or sketch
	snapshot    string        // portfolio snapshot path shared with the replicas
	seed        uint64        // portfolio build seed
	cacheSize   int           // result cache entries; 0 disables
	timeout     time.Duration // per-request budget; 0 disables
	maxInflight int           // concurrent query cap; 0 means 64
	healthInt   time.Duration // replica /readyz poll interval; 0 means 2s
	vnodes      int           // ring virtual nodes per replica (0 = default)

	// Resilience layer (DESIGN.md §14).
	hedgeAfter     time.Duration // fire a hedged request at the next owner after this delay (0 disables)
	attemptTimeout time.Duration // per-attempt downstream cap so slow/blackholed shards fail over (0 = none)
	retryBudget    int           // failover/hedge token-bucket capacity (0 = unlimited)
	retryRatio     float64       // budget tokens deposited per admitted query (0 = none)
	breakerWindow  time.Duration // per-replica breaker failure-rate window (0 disables breakers)
	healthHyst     int           // consecutive contrary probes before a replica flips up/down (0 = 1)
	minAttempt     time.Duration // remaining deadline required to start another attempt (0 = 2ms)
	now            func() time.Time
}

func (c *proxyConfig) validate() error {
	if len(c.replicas) == 0 {
		return fmt.Errorf("rdproxy: -replicas is required")
	}
	seen := make(map[string]bool, len(c.replicas))
	for _, r := range c.replicas {
		u, err := url.Parse(r)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return fmt.Errorf("rdproxy: replica %q is not an absolute URL", r)
		}
		if seen[r] {
			return fmt.Errorf("rdproxy: replica %q listed twice", r)
		}
		seen[r] = true
	}
	if c.timeout < 0 {
		return fmt.Errorf("rdproxy: -timeout must be >= 0, got %v", c.timeout)
	}
	if c.maxInflight < 0 {
		return fmt.Errorf("rdproxy: -max-inflight must be >= 0, got %d", c.maxInflight)
	}
	if c.cacheSize < 0 {
		return fmt.Errorf("rdproxy: -cache must be >= 0, got %d", c.cacheSize)
	}
	if c.healthInt < 0 {
		return fmt.Errorf("rdproxy: -health-interval must be >= 0, got %v", c.healthInt)
	}
	if c.hedgeAfter < 0 {
		return fmt.Errorf("rdproxy: -hedge-after must be >= 0, got %v", c.hedgeAfter)
	}
	if c.attemptTimeout < 0 {
		return fmt.Errorf("rdproxy: -attempt-timeout must be >= 0, got %v", c.attemptTimeout)
	}
	if c.retryBudget < 0 {
		return fmt.Errorf("rdproxy: -retry-budget must be >= 0, got %d", c.retryBudget)
	}
	if c.retryRatio < 0 || c.retryRatio > 1 {
		return fmt.Errorf("rdproxy: -retry-budget-ratio must be in [0, 1], got %v", c.retryRatio)
	}
	if c.breakerWindow < 0 {
		return fmt.Errorf("rdproxy: -breaker-window must be >= 0, got %v", c.breakerWindow)
	}
	if c.healthHyst < 0 {
		return fmt.Errorf("rdproxy: -health-hysteresis must be >= 0, got %d", c.healthHyst)
	}
	return nil
}

// proxyState is one immutable routing generation: the graph version, the
// fleet portfolio whose cost law scores pair affinity, and the ring router
// assigning its landmark positions to replicas. A SIGHUP rollout builds a
// fresh state and swaps the pointer — queries in flight keep the one they
// started with, and the new fingerprint retires every cached answer of the
// old generation by construction.
type proxyState struct {
	g      *landmarkrd.Graph
	pf     *landmarkrd.PortfolioIndex
	router *cluster.Router
	fp     uint64
}

// replica is one backend rdserver plus its health bit, flipped by the
// /readyz poll loop, and its circuit breaker, tripped by the owner-walk's
// own attempt outcomes. An unhealthy replica is skipped during routing (a
// skip counts as a failover) until enough consecutive polls see it ready
// again; a replica whose breaker is open is skipped the same way until
// the breaker's half-open probes close it.
type replica struct {
	name    string
	healthy atomic.Bool
	breaker *breaker.Breaker // nil when -breaker-window is 0
	// streak counts consecutive probe results contradicting the current
	// health bit; the bit flips only at the hysteresis threshold, so one
	// blip cannot evict a shard owner. Touched only by the (single
	// goroutine) health sweep.
	streak int
}

// proxyServer fans pair queries out over a fleet of rdserver replicas,
// each serving a shard (subset of landmark positions) of one fleet-wide
// portfolio. A query goes to the replica whose owned landmark minimizes
// the routed cost r(s,ℓ)+r(t,ℓ); a down or saturated shard fails over to
// the next-cheapest owner, then along the hash ring.
type proxyServer struct {
	cfg     proxyConfig
	metrics *landmarkrd.Metrics
	api     *httpapi.Server // the protocol rdserver speaks too
	client  *http.Client

	state    atomic.Pointer[proxyState]
	replicas []*replica

	cache  *rcache.Cache
	budget *retry.Budget // nil = unlimited failover/hedge budget

	// reloadMu serializes SIGHUP rollouts; graphPath is re-read under it.
	reloadMu  sync.Mutex
	graphPath string

	ready atomic.Bool
}

func newProxyServer(graphPath string, cfg proxyConfig) (*proxyServer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.seed == 0 {
		cfg.seed = 1
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	inflight := cfg.maxInflight
	if inflight <= 0 {
		inflight = 64
	}
	p := &proxyServer{cfg: cfg, metrics: &landmarkrd.Metrics{}, graphPath: graphPath}
	p.api = httpapi.New("rdproxy", inflight, cfg.timeout, cfg.seed, p.metrics.Panics.Inc)
	timeout := cfg.timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	p.client = &http.Client{Timeout: timeout}
	p.budget = retry.NewBudget(cfg.retryBudget, cfg.retryRatio)
	for _, name := range cfg.replicas {
		r := &replica{name: name}
		r.healthy.Store(true) // optimistic until the first poll says otherwise
		if cfg.breakerWindow > 0 {
			r.breaker = breaker.New(breaker.Options{
				Window:      cfg.breakerWindow,
				OpenTimeout: cfg.breakerWindow,
				Now:         cfg.now,
				OnOpen:      p.metrics.BreakerOpens.Inc,
				OnProbe:     p.metrics.BreakerHalfOpenProbes.Inc,
			})
		}
		p.replicas = append(p.replicas, r)
	}
	if cfg.cacheSize > 0 {
		p.cache = rcache.New(cfg.cacheSize, p.metrics)
	}
	st, err := p.buildState()
	if err != nil {
		return nil, err
	}
	p.state.Store(st)
	p.ready.Store(true)
	return p, nil
}

// buildState loads the graph and resolves the fleet portfolio (snapshot
// first, else a fresh build), then wires the consistent-hash router with
// the portfolio's cost law as the affinity score.
func (p *proxyServer) buildState() (*proxyState, error) {
	g, _, err := landmarkrd.LoadEdgeList(p.graphPath)
	if err != nil {
		return nil, fmt.Errorf("rdproxy: loading graph: %w", err)
	}
	var pf *landmarkrd.PortfolioIndex
	if p.cfg.snapshot != "" {
		pf, err = landmarkrd.LoadPortfolioIndex(p.cfg.snapshot, g)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("rdproxy: portfolio snapshot %s: %w", p.cfg.snapshot, err)
		}
	}
	if pf == nil {
		mode, ok := map[string]landmarkrd.DiagMode{
			"exact": landmarkrd.DiagExactCG, "mc": landmarkrd.DiagMC, "sketch": landmarkrd.DiagSketch,
		}[p.cfg.indexMode]
		if !ok {
			return nil, fmt.Errorf("rdproxy: need -snapshot or -index-mode exact|mc|sketch to resolve the fleet portfolio (got %q)", p.cfg.indexMode)
		}
		k := p.cfg.portfolioK
		if k <= 0 {
			k = len(p.cfg.replicas)
		}
		pf, err = landmarkrd.BuildPortfolioIndex(g, landmarkrd.PortfolioBuildOptions{
			K: k, Mode: mode, Seed: p.cfg.seed, Metrics: p.metrics,
		})
		if err != nil {
			return nil, fmt.Errorf("rdproxy: building fleet portfolio: %w", err)
		}
	}
	router, err := cluster.NewRouter(p.cfg.replicas, pf.K(), p.cfg.vnodes,
		func(j, s, t int) float64 { return pf.RouteCost(j, s, t) })
	if err != nil {
		return nil, err
	}
	return &proxyState{g: g, pf: pf, router: router, fp: g.Fingerprint()}, nil
}

// reload is the SIGHUP rollout: re-read the graph (and snapshot, if
// configured) and publish a fresh routing state. The graph fingerprint is
// the fleet-wide version — when it changes, every cached answer of the old
// version stops being looked up. On failure the old state stays current.
func (p *proxyServer) reload() error {
	p.reloadMu.Lock()
	defer p.reloadMu.Unlock()
	p.ready.Store(false)
	defer p.ready.Store(true)
	st, err := p.buildState()
	if err != nil {
		return err
	}
	old := p.state.Swap(st)
	if old != nil && old.fp != st.fp {
		p.api.Logger.Printf("rolled out graph version %#x (was %#x)", st.fp, old.fp)
	}
	return nil
}

// healthSweep polls every replica's /readyz once, synchronously. The
// health loop calls it on a ticker; tests call it directly after flipping
// a stub replica's readiness. Probe results pass through the hysteresis
// filter: a replica flips up/down only after -health-hysteresis
// consecutive contrary probes, so one dropped poll cannot evict a shard
// owner and one lucky poll cannot resurrect a flapping one.
func (p *proxyServer) healthSweep(ctx context.Context) {
	for _, r := range p.replicas {
		up := func() bool {
			reqCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, r.name+"/readyz", nil)
			if err != nil {
				return false
			}
			resp, err := p.client.Do(req)
			if err != nil {
				return false
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return resp.StatusCode == http.StatusOK
		}()
		p.observeHealth(r, up)
	}
}

// observeHealth applies one probe result to r with hysteresis: the health
// bit flips only after healthHyst consecutive observations contradicting
// it; a probe agreeing with the current state resets the streak.
func (p *proxyServer) observeHealth(r *replica, up bool) {
	if up == r.healthy.Load() {
		r.streak = 0
		return
	}
	r.streak++
	need := p.cfg.healthHyst
	if need <= 0 {
		need = 1
	}
	if r.streak >= need {
		r.healthy.Store(up)
		r.streak = 0
		dir := "down"
		if up {
			dir = "up"
		}
		p.api.Logger.Printf("replica %s marked %s after %d consecutive probes", r.name, dir, need)
	}
}

// healthLoop drives healthSweep until ctx is done.
func (p *proxyServer) healthLoop(ctx context.Context) {
	interval := p.cfg.healthInt
	if interval <= 0 {
		interval = 2 * time.Second
	}
	p.healthSweep(ctx)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.healthSweep(ctx)
		}
	}
}

func (p *proxyServer) replicaByName(name string) *replica {
	for _, r := range p.replicas {
		if r.name == name {
			return r
		}
	}
	return nil
}

// healthyCount returns how many replicas the last sweep saw ready.
func (p *proxyServer) healthyCount() int {
	n := 0
	for _, r := range p.replicas {
		if r.healthy.Load() {
			n++
		}
	}
	return n
}

// pairReply is the subset of a replica's /v1/pair response the proxy
// relays, plus the proxy's own routing fields.
type pairReply struct {
	S          int      `json:"s"`
	T          int      `json:"t"`
	Value      float64  `json:"value"`
	Converged  bool     `json:"converged"`
	Degraded   bool     `json:"degraded,omitempty"`
	ErrorBound *float64 `json:"error_bound,omitempty"`
	Landmark   int      `json:"landmark"`
	Replica    string   `json:"replica,omitempty"`
	Cache      string   `json:"cache,omitempty"`
	Failovers  int      `json:"failovers,omitempty"`
}

// errAllShardsDown reports that every routed replica was down, saturated,
// or failing.
var errAllShardsDown = errors.New("rdproxy: no replica could answer")

// errRetryBudgetExhausted reports that the global retry budget denied
// further failover/hedge attempts: the query fails fast rather than
// multiplying offered load.
var errRetryBudgetExhausted = errors.New("rdproxy: retry budget exhausted")

// errDeadlineBudget reports that the remaining request deadline was too
// small for another downstream attempt, so the owner-walk stopped early.
var errDeadlineBudget = errors.New("rdproxy: remaining deadline too small for another attempt")

// errHedgeLost is the cancellation cause attached to attempts abandoned
// because another replica answered first; their breakers see Drop, never
// a failure.
var errHedgeLost = errors.New("rdproxy: hedged attempt lost the race")

// errAttemptTimeout is the cancellation cause of the per-attempt timeout,
// distinguishing a slow/blackholed replica (breaker failure, failover)
// from the client's own deadline (no verdict, stop walking).
var errAttemptTimeout = errors.New("rdproxy: per-attempt timeout")

// forward sends one pair query to a single replica and parses the reply.
// A 429 or 5xx (or a transport error) is a failover signal, not a final
// answer; 4xx request errors are relayed to the client as-is.
type replicaError struct {
	status     int
	body       string
	retryAfter int // parsed Retry-After seconds, 0 if absent
}

func (e *replicaError) Error() string {
	return fmt.Sprintf("replica answered %d: %s", e.status, e.body)
}

// unavailableError decorates a terminal routing failure with the largest
// Retry-After any downstream replica suggested, so the client's backoff
// hint survives the fan-out.
type unavailableError struct {
	cause      error
	retryAfter int
}

func (e *unavailableError) Error() string { return e.cause.Error() }
func (e *unavailableError) Unwrap() error { return e.cause }

func (p *proxyServer) forward(ctx context.Context, base string, s, t int) (pairReply, error) {
	u := fmt.Sprintf("%s/v1/pair?s=%d&t=%d", base, s, t)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return pairReply{}, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return pairReply{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		ra, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		return pairReply{}, &replicaError{status: resp.StatusCode, body: string(body), retryAfter: ra}
	}
	var out pairReply
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return pairReply{}, fmt.Errorf("replica %s: bad response body: %w", base, err)
	}
	return out, nil
}

// failoverWorthy reports whether a forward failure should be retried on
// the next-cheapest owner (down/saturated/broken shard) rather than
// relayed to the client (the client's own request was bad). cause is the
// attempt context's cancellation cause: a per-attempt timeout is a shard
// failure even though Go 1.22's net/http surfaces it as a bare
// DeadlineExceeded rather than propagating the cause.
func failoverWorthy(err, cause error) bool {
	var re *replicaError
	if errors.As(err, &re) {
		return re.status == http.StatusTooManyRequests || re.status >= 500
	}
	if errors.Is(cause, errAttemptTimeout) {
		return true
	}
	// Transport errors (refused, reset, timeout, torn body) are shard
	// failures — unless the client's own context expired.
	return !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled)
}

// attemptOutcome is one downstream attempt's result, delivered to the
// routePair select loop by the attempt goroutine.
type attemptOutcome struct {
	reply  pairReply
	err    error
	cause  error // attempt context's cancellation cause at completion
	target cluster.Target
	hedged bool // launched by the hedge timer, not a failover
}

// routePair walks the cost-ordered owner list for (s,t) with the full
// resilience stack:
//
//   - unready replicas and replicas whose circuit breaker is open are
//     skipped up front (one ShardFailovers each, no downstream load);
//   - each launched attempt gets its own per-attempt timeout (when
//     configured), so a blackholed shard turns into a breaker failure
//     and a failover instead of burning the whole request deadline;
//   - after hedgeAfter with no answer, the same query is fired at the
//     next-cheapest healthy owner; first success wins. Losers without a
//     per-attempt cap are context-cancelled with cause errHedgeLost
//     (breakers see Drop, never a failure); losers WITH a cap run on to
//     their own deadline and record a genuine verdict, so a blackholed
//     cheapest owner still trips its breaker instead of hiding behind
//     every lost race;
//   - every attempt beyond the query's first withdraws one token from
//     the global retry budget — an empty bucket stops the walk so
//     failover and hedging can never multiply offered load beyond
//     queries + deposited tokens;
//   - before each launch the remaining context deadline must cover
//     minAttempt, otherwise the walk stops (504) instead of starting a
//     doomed attempt;
//   - the largest downstream Retry-After rides the terminal error.
func (p *proxyServer) routePair(ctx context.Context, st *proxyState, s, t int) (pairReply, int, error) {
	targets := st.router.Route(st.fp, s, t)
	p.budget.Deposit()

	minAttempt := p.cfg.minAttempt
	if minAttempt <= 0 {
		minAttempt = 2 * time.Millisecond
	}

	// cancels reaps only uncapped losers when the walk returns; capped
	// attempts self-reap at their own deadline (see start) so breakers
	// still get real verdicts on attempts abandoned by a won race.
	results := make(chan attemptOutcome, len(targets))
	cancels := make([]context.CancelCauseFunc, 0, len(targets))
	defer func() {
		for _, cancel := range cancels {
			cancel(errHedgeLost)
		}
	}()

	var (
		failovers      int
		launched       int
		pending        int
		next           int // next candidate index in targets
		lastErr        error
		maxRetryAfter  int
		budgetDenied   bool
		deadlineDenied bool
	)

	// start launches the next launchable candidate, charging the retry
	// budget for every launch after the first. It reports whether an
	// attempt went downstream; on false the walk is over for its reason
	// (budgetDenied / deadlineDenied / exhausted list).
	start := func(hedged bool) bool {
		for next < len(targets) {
			tg := targets[next]
			next++
			r := p.replicaByName(tg.Member)
			if r == nil || !r.healthy.Load() {
				failovers++
				p.metrics.ShardFailovers.Inc()
				continue
			}
			if dl, ok := ctx.Deadline(); ok && dl.Sub(p.cfg.now()) < minAttempt {
				deadlineDenied = true
				next--
				return false
			}
			if r.breaker != nil && !r.breaker.Allow() {
				failovers++
				p.metrics.ShardFailovers.Inc()
				continue
			}
			if launched > 0 && !p.budget.Withdraw() {
				p.metrics.RetryBudgetExhausted.Inc()
				if r.breaker != nil {
					r.breaker.Drop()
				}
				budgetDenied = true
				next--
				return false
			}
			launched++
			pending++
			// A concurrent query's Deposit may have refilled the bucket
			// since a hedge was denied; this walk is no longer
			// budget-limited, so don't let finish() blame the budget.
			budgetDenied = false
			var actx context.Context
			var cancel context.CancelCauseFunc
			if p.cfg.attemptTimeout > 0 {
				// Capped attempts are detached from the walk's context and
				// bounded solely by their own deadline: an attempt
				// abandoned because the race was decided (or the client
				// left) runs on for at most attemptTimeout and records a
				// genuine breaker verdict — success if the replica was
				// merely slower than the winner, failure if it never
				// answered by the cap. Reaping losers instantly would
				// leave a blackholed cheapest owner with no verdicts at
				// all, since every race against it is over long before
				// its timeout. The timeout is relative (WithTimeoutCause)
				// because context deadlines live on the wall clock — an
				// injected test clock cannot drive them.
				actx, cancel = context.WithCancelCause(context.WithoutCancel(ctx))
				var tcancel context.CancelFunc
				actx, tcancel = context.WithTimeoutCause(actx,
					p.cfg.attemptTimeout, errAttemptTimeout)
				// Cancel the cause-carrying parent first: if tcancel ran
				// first the attempt context's cause would be the deadline
				// context's own context.Canceled, not the caller's cause.
				inner := cancel
				cancel = func(cause error) { inner(cause); tcancel() }
			} else {
				actx, cancel = context.WithCancelCause(ctx)
				cancels = append(cancels, cancel)
			}
			go func(tg cluster.Target, r *replica, hedged bool, actx context.Context, release context.CancelCauseFunc) {
				defer release(nil)
				reply, err := p.forward(actx, tg.Member, s, t)
				cause := context.Cause(actx)
				if r.breaker != nil {
					var re *replicaError
					switch {
					case err == nil:
						r.breaker.Record(true)
					case errors.Is(cause, errHedgeLost):
						// Abandoned race: no verdict on the replica.
						r.breaker.Drop()
					case errors.Is(cause, errAttemptTimeout):
						r.breaker.Record(false)
					case ctx.Err() != nil:
						// The client's own deadline/cancel killed the
						// attempt mid-flight: no verdict.
						r.breaker.Drop()
					case errors.As(err, &re) && re.status < 500 && re.status != http.StatusTooManyRequests:
						// The replica answered, just not with a result
						// we relay as success: the shard itself is fine.
						r.breaker.Record(true)
					default:
						r.breaker.Record(false)
					}
				}
				results <- attemptOutcome{reply: reply, err: err, cause: cause, target: tg, hedged: hedged}
			}(tg, r, hedged, actx, cancel)
			return true
		}
		return false
	}

	finish := func() (pairReply, int, error) {
		switch {
		case ctx.Err() != nil:
			return pairReply{}, failovers, ctx.Err()
		case budgetDenied:
			err := error(errRetryBudgetExhausted)
			if lastErr != nil {
				err = fmt.Errorf("%w (last: %v)", errRetryBudgetExhausted, lastErr)
			}
			return pairReply{}, failovers, &unavailableError{cause: err, retryAfter: maxRetryAfter}
		case deadlineDenied:
			remaining := time.Duration(0)
			if dl, ok := ctx.Deadline(); ok {
				remaining = dl.Sub(p.cfg.now())
			}
			p.api.Logger.Printf("pair (%d,%d): stopping failover after %d/%d attempts, %v of deadline left (last: %v)",
				s, t, launched, len(targets), remaining.Round(time.Millisecond), lastErr)
			return pairReply{}, failovers, errDeadlineBudget
		case lastErr != nil:
			return pairReply{}, failovers,
				&unavailableError{cause: fmt.Errorf("%w (last: %v)", errAllShardsDown, lastErr), retryAfter: maxRetryAfter}
		default:
			return pairReply{}, failovers, errAllShardsDown
		}
	}

	if !start(false) {
		return finish()
	}

	// The hedge timer arms whenever an attempt is outstanding and another
	// candidate remains; each firing launches one hedged request at the
	// next-cheapest healthy owner (budget permitting) and re-arms, so a
	// chain of slow owners is raced pairwise down the cost order.
	var hedgeC <-chan time.Time
	var hedgeTimer *time.Timer
	defer func() {
		if hedgeTimer != nil {
			hedgeTimer.Stop()
		}
	}()
	armHedge := func() {
		if p.cfg.hedgeAfter <= 0 || hedgeC != nil || next >= len(targets) || budgetDenied || deadlineDenied {
			return
		}
		if hedgeTimer == nil {
			hedgeTimer = time.NewTimer(p.cfg.hedgeAfter)
		} else {
			hedgeTimer.Reset(p.cfg.hedgeAfter)
		}
		hedgeC = hedgeTimer.C
	}
	armHedge()

	for pending > 0 {
		select {
		case out := <-results:
			pending--
			if out.err == nil {
				p.metrics.ShardRouted.Inc()
				if out.hedged {
					p.metrics.HedgeWins.Inc()
				}
				out.reply.Replica = out.target.Member
				out.reply.Failovers = failovers
				return out.reply, failovers, nil
			}
			if ctx.Err() != nil {
				// The client is gone; drain nothing further.
				if pending == 0 {
					return finish()
				}
				continue
			}
			if !failoverWorthy(out.err, out.cause) {
				return pairReply{}, failovers, out.err
			}
			failovers++
			p.metrics.ShardFailovers.Inc()
			lastErr = out.err
			var re *replicaError
			if errors.As(out.err, &re) && re.retryAfter > maxRetryAfter {
				maxRetryAfter = re.retryAfter
			}
			start(false)
			armHedge()
		case <-hedgeC:
			hedgeC = nil
			if start(true) {
				p.metrics.HedgedRequests.Inc()
				armHedge()
			}
		case <-ctx.Done():
			return finish()
		}
	}
	return finish()
}

// solvePair answers one pair through the cache (when configured) and the
// routed fan-out. Keys carry the current state's graph fingerprint, so a
// rollout retires stale entries wholesale. Only converged, non-degraded
// replies are shareable: rcache stores them and hands them to concurrent
// identical requests.
func (p *proxyServer) solvePair(ctx context.Context, st *proxyState, s, t int) (pairReply, error) {
	if p.cache == nil {
		reply, _, err := p.routePair(ctx, st, s, t)
		return reply, err
	}
	var full pairReply
	var have bool
	v, out, err := p.cache.Do(ctx, rcache.NewKey(st.fp, s, t), func() (float64, bool, error) {
		reply, _, err := p.routePair(ctx, st, s, t)
		full, have = reply, err == nil
		return reply.Value, reply.Converged && !reply.Degraded, err
	})
	switch {
	case err != nil:
		return pairReply{}, err
	case !have:
		full = pairReply{S: s, T: t, Value: v, Converged: true}
	}
	full.Cache = out.String()
	return full, nil
}

// routes builds the coordinator's handler on the protocol the replicas
// speak.
func (p *proxyServer) routes() http.Handler {
	return p.api.Routes(p.notReady, map[string]http.HandlerFunc{
		"GET /v1/pair":   p.handlePair,
		"POST /v1/batch": p.handleBatch,
	})
}

// notReady is the /readyz reason: not ready while a rollout is mid-flight
// or no replica is healthy — a fully dark fleet should be pulled from the
// load balancer.
func (p *proxyServer) notReady() (code, msg string) {
	switch {
	case !p.ready.Load():
		return "not_ready", "rollout in progress"
	case p.healthyCount() == 0:
		return "no_replicas", "no healthy replica"
	}
	return "", ""
}

func (p *proxyServer) handlePair(w http.ResponseWriter, r *http.Request) {
	st := p.state.Load()
	s, t, err := httpapi.PairParams(r, st.g.N())
	if err != nil {
		p.api.RequestError(w, err)
		return
	}
	reply, err := p.solvePair(r.Context(), st, s, t)
	if err != nil {
		p.writeProxyError(w, err)
		return
	}
	reply.S, reply.T = s, t
	httpapi.WriteJSON(w, struct {
		pairReply
		Epoch uint64 `json:"graph_version"`
	}{pairReply: reply, Epoch: st.fp})
}

func (p *proxyServer) handleBatch(w http.ResponseWriter, r *http.Request) {
	st := p.state.Load()
	pairs, err := httpapi.DecodePairs(w, r, httpapi.DefaultMaxBody, st.g.N())
	if err != nil {
		p.api.RequestError(w, err)
		return
	}
	// Fan the batch out with bounded concurrency; each pair routes (and
	// caches) independently, so one saturated shard only slows its own
	// pairs.
	results := make([]pairReply, len(pairs))
	errs := make([]error, len(pairs))
	var wg sync.WaitGroup
	lanes := make(chan struct{}, 8)
	for i, q := range pairs {
		wg.Add(1)
		go func(i, s, t int) {
			defer wg.Done()
			lanes <- struct{}{}
			defer func() { <-lanes }()
			reply, err := p.solvePair(r.Context(), st, s, t)
			reply.S, reply.T = s, t
			results[i], errs[i] = reply, err
		}(i, q.S, q.T)
	}
	wg.Wait()
	// Partial failure stays partial: a pair whose owners were all down (or
	// whose failover budget ran out) becomes its own error envelope in
	// place, and the pairs with healthy owners still get answers. The batch
	// as a whole fails only on request-level problems (bad JSON, bad
	// vertices), checked above.
	entries := make([]any, len(pairs))
	failed := 0
	for i := range pairs {
		if errs[i] == nil {
			entries[i] = results[i]
			continue
		}
		failed++
		_, code := proxyErrorStatus(errs[i])
		var e batchEntryError
		e.S, e.T = pairs[i].S, pairs[i].T
		e.Error.Code = code
		e.Error.Message = errs[i].Error()
		entries[i] = e
	}
	if failed > 0 {
		p.api.Logger.Printf("batch: %d/%d pairs failed, returning per-pair envelopes", failed, len(pairs))
	}
	httpapi.WriteJSON(w, struct {
		GraphVersion uint64 `json:"graph_version"`
		Results      []any  `json:"results"`
	}{GraphVersion: st.fp, Results: entries})
}

// batchEntryError is the per-pair error envelope inside a batch reply:
// the pair's coordinates plus the same {code, message} error object the
// top-level JSON errors use.
type batchEntryError struct {
	S int `json:"s"`
	T int `json:"t"`
	httpapi.ErrorBody
}

// proxyErrorStatus maps a fan-out failure to its HTTP status and error
// code: an exhausted retry budget or owner list is a 503 (the fleet, not
// the request, is the problem), deadline expiry — the client's or the
// failover loop's own attempt budget — a 504, a relayed replica 4xx keeps
// its status, anything else a 502. Shared by the single-pair error path
// and the per-pair batch envelopes.
func proxyErrorStatus(err error) (int, string) {
	var re *replicaError
	switch {
	case errors.Is(err, errRetryBudgetExhausted):
		return http.StatusServiceUnavailable, "retry_budget_exhausted"
	case errors.Is(err, errDeadlineBudget):
		return http.StatusGatewayTimeout, "deadline_budget_exhausted"
	case errors.Is(err, errAllShardsDown):
		return http.StatusServiceUnavailable, "no_replicas"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		return 499, "canceled"
	case errors.As(err, &re):
		return re.status, "replica_error"
	default:
		return http.StatusBadGateway, "upstream"
	}
}

// retryAfterHint picks the Retry-After seconds for a terminal routing
// failure: the largest value any downstream replica suggested, else (for
// the fail-fast budget 503, which must always carry a hint) the same
// jittered band the admission gate uses.
func (p *proxyServer) retryAfterHint(err error) int {
	var ue *unavailableError
	if errors.As(err, &ue) && ue.retryAfter > 0 {
		return ue.retryAfter
	}
	if errors.Is(err, errRetryBudgetExhausted) {
		return p.api.RetryAfter()
	}
	return 0
}

func (p *proxyServer) writeProxyError(w http.ResponseWriter, err error) {
	status, code := proxyErrorStatus(err)
	if ra := p.retryAfterHint(err); ra > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ra))
	}
	p.api.Error(w, status, code, err.Error())
}
