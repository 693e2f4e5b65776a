package main

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	landmarkrd "landmarkrd"
	"landmarkrd/internal/breaker"
)

// fakeClock drives the circuit breakers' sliding windows and open
// cooldowns without wall-clock sleeps.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestHealthHysteresisFlap: the health bit flips only after healthHyst
// consecutive contrary probes, so a flapping replica (alternating probe
// results) never flips at all, and an agreeing probe resets the streak.
func TestHealthHysteresisFlap(t *testing.T) {
	p, _ := newTestProxy(t, 1, func(c *proxyConfig) { c.healthHyst = 3 })
	r := p.replicas[0]
	if !r.healthy.Load() {
		t.Fatal("replica should start healthy")
	}

	// Two bad probes: not enough to flip.
	p.observeHealth(r, false)
	p.observeHealth(r, false)
	if !r.healthy.Load() {
		t.Fatal("replica flipped down after 2 contrary probes, hysteresis is 3")
	}
	// A good probe resets the streak; two more bad ones still don't flip.
	p.observeHealth(r, true)
	p.observeHealth(r, false)
	p.observeHealth(r, false)
	if !r.healthy.Load() {
		t.Fatal("streak survived an agreeing probe")
	}
	// A pure flap sequence never flips.
	for i := 0; i < 10; i++ {
		p.observeHealth(r, i%2 == 0)
	}
	if !r.healthy.Load() {
		t.Fatal("flapping probes flipped the health bit")
	}
	// Three consecutive bad probes flip it down...
	p.observeHealth(r, false)
	p.observeHealth(r, false)
	p.observeHealth(r, false)
	if r.healthy.Load() {
		t.Fatal("replica still healthy after 3 consecutive failed probes")
	}
	// ...and three consecutive good ones bring it back.
	p.observeHealth(r, true)
	p.observeHealth(r, true)
	if r.healthy.Load() {
		t.Fatal("replica recovered after only 2 consecutive good probes")
	}
	p.observeHealth(r, true)
	if !r.healthy.Load() {
		t.Fatal("replica did not recover after 3 consecutive good probes")
	}
}

// TestHealthSweepHysteresis: the same filter through the real /readyz
// sweep — one bad poll does not evict a shard owner.
func TestHealthSweepHysteresis(t *testing.T) {
	p, stubs := newTestProxy(t, 1, func(c *proxyConfig) { c.healthHyst = 2 })
	stubs[0].ready.Store(false)
	p.healthSweep(t.Context())
	if !p.replicas[0].healthy.Load() {
		t.Fatal("one failed poll flipped the replica, hysteresis is 2")
	}
	p.healthSweep(t.Context())
	if p.replicas[0].healthy.Load() {
		t.Fatal("two consecutive failed polls did not flip the replica")
	}
}

// TestBreakerOpensAndRecovers: a shard returning 503s trips its breaker
// after enough failures in the window; while open it is skipped without
// being contacted; after the cooldown a half-open probe closes it and
// routing returns to it.
func TestBreakerOpensAndRecovers(t *testing.T) {
	clock := newFakeClock()
	p, stubs := newTestProxy(t, 2, func(c *proxyConfig) {
		c.breakerWindow = 10 * time.Second
		c.now = clock.Now
	})
	h := p.routes()
	st := p.state.Load()

	s, tt := 3, 170
	targets := st.router.Route(st.fp, s, tt)
	bad := stubByURL(stubs, targets[0].Member)
	bad.fail.Store(true)

	// Default breaker options trip at 5 failures (MinRequests) with a
	// failure rate >= 0.5; every attempt here fails.
	for i := 0; i < 5; i++ {
		body, code := pairViaProxy(t, h, s, tt)
		if code != http.StatusOK {
			t.Fatalf("query %d during failures: status %d body %v", i, code, body)
		}
		if body["replica"] != targets[1].Member {
			t.Fatalf("query %d served by %v, want failover target %s", i, body["replica"], targets[1].Member)
		}
	}
	if got := p.metrics.BreakerOpens.Load(); got != 1 {
		t.Fatalf("BreakerOpens = %d after 5 straight failures, want 1", got)
	}
	br := p.replicaByName(targets[0].Member).breaker
	if got := br.State(); got != breaker.Open {
		t.Fatalf("faulted replica breaker state %v, want open", got)
	}

	// While open, the faulted shard gets zero downstream traffic.
	before := bad.hits.Load()
	if _, code := pairViaProxy(t, h, s, tt); code != http.StatusOK {
		t.Fatalf("query with open breaker failed: %d", code)
	}
	if got := bad.hits.Load(); got != before {
		t.Fatalf("open breaker let %d requests through", got-before)
	}

	// Fault clears, cooldown elapses: the next query is the half-open
	// probe, succeeds, and closes the breaker.
	bad.fail.Store(false)
	clock.Advance(11 * time.Second)
	body, code := pairViaProxy(t, h, s, tt)
	if code != http.StatusOK {
		t.Fatalf("probe query: status %d", code)
	}
	if body["replica"] != targets[0].Member {
		t.Fatalf("probe served by %v, want recovered owner %s", body["replica"], targets[0].Member)
	}
	if got := p.metrics.BreakerHalfOpenProbes.Load(); got != 1 {
		t.Fatalf("BreakerHalfOpenProbes = %d, want 1", got)
	}
	if got := br.State(); got != breaker.Closed {
		t.Fatalf("breaker state after successful probe %v, want closed", got)
	}
}

// TestRetryBudgetFailFast: once the failover budget is spent, a query
// whose first attempt fails gets an immediate 503 retry_budget_exhausted
// with a Retry-After hint instead of walking the rest of the fleet, and
// total downstream attempts stay <= queries + budget capacity.
func TestRetryBudgetFailFast(t *testing.T) {
	p, stubs := newTestProxy(t, 3, func(c *proxyConfig) {
		c.retryBudget = 2
		c.retryRatio = 0
	})
	h := p.routes()
	for _, sr := range stubs {
		sr.fail.Store(true)
	}

	// Each failing query's first attempt is free; every further failover
	// spends a token. After at most capacity+1 queries the bucket is dry
	// and the next failing query must fail fast.
	const capacity = 2
	queries := 0
	var rec *httptest.ResponseRecorder
	for ; queries < capacity+3; queries++ {
		req := httptest.NewRequest(http.MethodGet, "/v1/pair?s=3&t=170", nil)
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("query %d: status %d, want 503", queries, rec.Code)
		}
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		code := body["error"].(map[string]any)["code"]
		if code == "retry_budget_exhausted" {
			queries++
			break
		}
		if code != "no_replicas" {
			t.Fatalf("query %d error code %v, want no_replicas while tokens remain", queries, code)
		}
	}
	if got := p.metrics.RetryBudgetExhausted.Load(); got < 1 {
		t.Fatalf("no query hit the exhausted budget within %d queries", queries)
	}
	if after, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || after < 1 {
		t.Fatalf("budget-exhausted 503 Retry-After %q, want a positive integer", rec.Header().Get("Retry-After"))
	}

	var attempts int64
	for _, sr := range stubs {
		attempts += sr.hits.Load()
	}
	if attempts > int64(queries+capacity) {
		t.Fatalf("%d downstream attempts for %d queries, budget caps the total at %d",
			attempts, queries, queries+capacity)
	}
}

// TestDeadlineAwareFailover: when the remaining request deadline cannot
// cover another attempt, the walk stops with a 504 and a partial-attempt
// log line instead of starting a doomed downstream request.
func TestDeadlineAwareFailover(t *testing.T) {
	p, stubs := newTestProxy(t, 2, func(c *proxyConfig) {
		c.timeout = 500 * time.Millisecond
		c.minAttempt = 250 * time.Millisecond
	})
	var logBuf bytes.Buffer
	p.api.Logger = log.New(&logBuf, "", 0)
	h := p.routes()
	st := p.state.Load()

	s, tt := 3, 170
	targets := st.router.Route(st.fp, s, tt)
	slow := stubByURL(stubs, targets[0].Member)
	slow.delay.Store(int64(300 * time.Millisecond))
	slow.fail.Store(true)

	body, code := pairViaProxy(t, h, s, tt)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d body %v, want 504", code, body)
	}
	if got := body["error"].(map[string]any)["code"]; got != "deadline_budget_exhausted" {
		t.Fatalf("error code %v, want deadline_budget_exhausted", got)
	}
	if n := stubByURL(stubs, targets[1].Member).hits.Load(); n != 0 {
		t.Fatalf("second owner was contacted %d times with <%v of deadline left", n, p.cfg.minAttempt)
	}
	if !strings.Contains(logBuf.String(), "stopping failover") {
		t.Fatalf("no partial-attempt log line, got %q", logBuf.String())
	}
}

// TestRetryAfterPropagation: the largest downstream Retry-After survives
// to the client when every owner is saturated.
func TestRetryAfterPropagation(t *testing.T) {
	p, stubs := newTestProxy(t, 2, nil)
	h := p.routes()
	for _, sr := range stubs {
		sr.limit.Store(true) // stub 429s carry Retry-After: 1
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/pair?s=3&t=170", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 after exhausting saturated owners", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want the downstream hint 1", got)
	}
}

// TestHedgedRequestWins: a slow cheapest owner is raced against the
// next-cheapest after the hedge delay; the fast replica's answer wins and
// both hedge counters tick.
func TestHedgedRequestWins(t *testing.T) {
	p, stubs := newTestProxy(t, 2, func(c *proxyConfig) {
		c.hedgeAfter = 50 * time.Millisecond
	})
	h := p.routes()
	st := p.state.Load()

	s, tt := 3, 170
	targets := st.router.Route(st.fp, s, tt)
	stubByURL(stubs, targets[0].Member).delay.Store(int64(5 * time.Second))

	start := time.Now()
	body, code := pairViaProxy(t, h, s, tt)
	if code != http.StatusOK {
		t.Fatalf("hedged query: status %d body %v", code, body)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("hedged query took %v, the hedge should have answered long before the slow owner", elapsed)
	}
	if body["replica"] != targets[1].Member {
		t.Fatalf("served by %v, want hedge target %s", body["replica"], targets[1].Member)
	}
	want, err := landmarkrd.Exact(st.g, s, tt)
	if err != nil {
		t.Fatal(err)
	}
	if got := body["value"].(float64); got != want {
		t.Fatalf("hedged value %v, want exact %v", got, want)
	}
	if got := p.metrics.HedgedRequests.Load(); got != 1 {
		t.Fatalf("HedgedRequests = %d, want 1", got)
	}
	if got := p.metrics.HedgeWins.Load(); got != 1 {
		t.Fatalf("HedgeWins = %d, want 1", got)
	}
}

// TestAttemptTimeoutTripsBreaker: a silent (very slow) shard cannot burn
// whole request deadlines — each attempt is cut at attempt-timeout,
// counted as a breaker failure, and after enough of them the shard is
// skipped entirely.
func TestAttemptTimeoutTripsBreaker(t *testing.T) {
	clock := newFakeClock()
	p, stubs := newTestProxy(t, 2, func(c *proxyConfig) {
		c.attemptTimeout = 100 * time.Millisecond
		c.breakerWindow = 10 * time.Second
		c.now = clock.Now
	})
	h := p.routes()
	st := p.state.Load()

	s, tt := 3, 170
	targets := st.router.Route(st.fp, s, tt)
	slow := stubByURL(stubs, targets[0].Member)
	slow.delay.Store(int64(10 * time.Second))

	for i := 0; i < 5; i++ {
		body, code := pairViaProxy(t, h, s, tt)
		if code != http.StatusOK {
			t.Fatalf("query %d: status %d body %v", i, code, body)
		}
		if body["replica"] != targets[1].Member {
			t.Fatalf("query %d served by %v, want %s", i, body["replica"], targets[1].Member)
		}
		if body["failovers"].(float64) != 1 {
			t.Fatalf("query %d failovers %v, want 1", i, body["failovers"])
		}
	}
	if got := p.metrics.BreakerOpens.Load(); got != 1 {
		t.Fatalf("BreakerOpens = %d after 5 attempt timeouts, want 1", got)
	}
	before := slow.hits.Load()
	if _, code := pairViaProxy(t, h, s, tt); code != http.StatusOK {
		t.Fatalf("query with open breaker: status %d", code)
	}
	if got := slow.hits.Load(); got != before {
		t.Fatal("open breaker still sent traffic to the silent shard")
	}
}

// TestBatchPartialFailure pins the per-pair error envelope: a pair whose
// owners are all failing becomes {"s","t","error":{code,message}} in
// place, the healthy pairs still answer, and the batch stays HTTP 200.
func TestBatchPartialFailure(t *testing.T) {
	p, stubs := newTestProxy(t, 1, nil)
	h := p.routes()
	st := p.state.Load()

	// Fail only pairs with s=9 — the other pair keeps working.
	stubs[0].failS.Store(9)

	req := httptest.NewRequest(http.MethodPost, "/v1/batch",
		strings.NewReader(`{"pairs":[{"s":3,"t":170},{"s":9,"t":44}]}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("partial batch: status %d, want 200 (failures stay per-pair)", rec.Code)
	}
	var resp struct {
		GraphVersion uint64           `json:"graph_version"`
		Results      []map[string]any `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(resp.Results))
	}

	ok := resp.Results[0]
	if _, has := ok["error"]; has {
		t.Fatalf("healthy pair carries an error: %v", ok)
	}
	want, err := landmarkrd.Exact(st.g, 3, 170)
	if err != nil {
		t.Fatal(err)
	}
	if got := ok["value"].(float64); got != want {
		t.Fatalf("healthy pair value %v, want %v", got, want)
	}

	bad := resp.Results[1]
	if bad["s"].(float64) != 9 || bad["t"].(float64) != 44 {
		t.Fatalf("error entry coordinates %v/%v, want 9/44", bad["s"], bad["t"])
	}
	if _, has := bad["value"]; has {
		t.Fatalf("failed pair carries a value: %v", bad)
	}
	errObj, okCast := bad["error"].(map[string]any)
	if !okCast {
		t.Fatalf("failed pair has no error object: %v", bad)
	}
	if errObj["code"] != "no_replicas" {
		t.Fatalf("per-pair error code %v, want no_replicas", errObj["code"])
	}
	if msg, _ := errObj["message"].(string); msg == "" {
		t.Fatal("per-pair error has no message")
	}
}

// BenchmarkProxyPairHedged measures the hedged-query path end to end: the
// cheapest owner is slow, the hedge fires after 2ms, and the
// next-cheapest replica's answer wins. Per-op time is dominated by the
// hedge delay plus one loopback round trip, so regressions here mean
// added overhead in the resilient owner-walk itself.
func BenchmarkProxyPairHedged(b *testing.B) {
	p, stubs := newTestProxy(b, 2, func(c *proxyConfig) {
		c.hedgeAfter = 2 * time.Millisecond
	})
	h := p.routes()
	st := p.state.Load()
	s, tt := 3, 170
	targets := st.router.Route(st.fp, s, tt)
	stubByURL(stubs, targets[0].Member).delay.Store(int64(50 * time.Millisecond))

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, "/v1/pair?s=3&t=170", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("hedged query: status %d body %s", rec.Code, rec.Body.String())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(p.metrics.HedgeWins.Load())/float64(b.N), "hedge-wins/op")
}

// TestResilienceConfigValidation covers the new flag-level rejections.
func TestResilienceConfigValidation(t *testing.T) {
	base := func() proxyConfig { return proxyConfig{replicas: []string{"http://a:1"}} }
	cases := []func(*proxyConfig){
		func(c *proxyConfig) { c.hedgeAfter = -time.Second },
		func(c *proxyConfig) { c.attemptTimeout = -time.Second },
		func(c *proxyConfig) { c.retryBudget = -1 },
		func(c *proxyConfig) { c.retryRatio = -0.1 },
		func(c *proxyConfig) { c.retryRatio = 1.5 },
		func(c *proxyConfig) { c.breakerWindow = -time.Second },
		func(c *proxyConfig) { c.healthHyst = -2 },
	}
	for i, mutate := range cases {
		cfg := base()
		mutate(&cfg)
		if err := cfg.validate(); err == nil {
			t.Fatalf("case %d: config %+v validated, want error", i, cfg)
		}
	}
	ok := base()
	ok.hedgeAfter = time.Millisecond
	ok.retryBudget = 10
	ok.retryRatio = 0.5
	ok.breakerWindow = time.Second
	ok.healthHyst = 3
	if err := ok.validate(); err != nil {
		t.Fatalf("valid resilience config rejected: %v", err)
	}
}
