package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	landmarkrd "landmarkrd"
	"landmarkrd/internal/httpapi"
)

const corpusGraph = "../../testdata/corpus/grid_14x14.edges"

func loadTestGraph(t testing.TB) *landmarkrd.Graph {
	t.Helper()
	g, _, err := landmarkrd.LoadEdgeList(corpusGraph)
	if err != nil {
		t.Fatalf("loading corpus graph: %v", err)
	}
	return g
}

// stubReplica fakes one rdserver shard behind httptest: /v1/pair answers
// with the exact resistance distance (so value checks are meaningful),
// /readyz follows the ready flag, and hits counts pair requests — the
// probe for singleflight and failover behavior.
type stubReplica struct {
	srv   *httptest.Server
	g     *landmarkrd.Graph
	ready atomic.Bool
	fail  atomic.Bool  // force 503 on /v1/pair while true
	limit atomic.Bool  // force 429 on /v1/pair while true
	delay atomic.Int64 // sleep this many ns before answering /v1/pair
	failS atomic.Int64 // force 503 only for pairs with this s (-1 = off)
	hits  atomic.Int64
}

func newStubReplica(t testing.TB, g *landmarkrd.Graph) *stubReplica {
	t.Helper()
	r := &stubReplica{g: g}
	r.ready.Store(true)
	r.failS.Store(-1)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, req *http.Request) {
		if !r.ready.Load() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /v1/pair", func(w http.ResponseWriter, req *http.Request) {
		r.hits.Add(1)
		if d := r.delay.Load(); d > 0 {
			select {
			case <-time.After(time.Duration(d)):
			case <-req.Context().Done():
				return
			}
		}
		if fs := r.failS.Load(); fs >= 0 {
			if s, _ := strconv.Atoi(req.URL.Query().Get("s")); int64(s) == fs {
				http.Error(w, `{"error":{"code":"boom","message":"stub"}}`, http.StatusServiceUnavailable)
				return
			}
		}
		if r.limit.Load() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":{"code":"saturated","message":"stub"}}`, http.StatusTooManyRequests)
			return
		}
		if r.fail.Load() {
			http.Error(w, `{"error":{"code":"boom","message":"stub"}}`, http.StatusServiceUnavailable)
			return
		}
		s, _ := strconv.Atoi(req.URL.Query().Get("s"))
		tt, _ := strconv.Atoi(req.URL.Query().Get("t"))
		v, err := landmarkrd.Exact(r.g, s, tt)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"s": s, "t": tt, "value": v, "converged": true, "landmark": 0,
		})
	})
	r.srv = httptest.NewServer(mux)
	t.Cleanup(r.srv.Close)
	return r
}

// newTestProxy spins up n stub replicas over the corpus graph and a proxy
// coordinating them. Overrides tweak the config before construction.
func newTestProxy(t testing.TB, n int, mutate func(*proxyConfig)) (*proxyServer, []*stubReplica) {
	t.Helper()
	g := loadTestGraph(t)
	stubs := make([]*stubReplica, n)
	urls := make([]string, n)
	for i := range stubs {
		stubs[i] = newStubReplica(t, g)
		urls[i] = stubs[i].srv.URL
	}
	cfg := proxyConfig{
		replicas:    urls,
		portfolioK:  4,
		indexMode:   "exact",
		seed:        7,
		maxInflight: 256,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := newProxyServer(corpusGraph, cfg)
	if err != nil {
		t.Fatalf("newProxyServer: %v", err)
	}
	return p, stubs
}

func stubByURL(stubs []*stubReplica, url string) *stubReplica {
	for _, s := range stubs {
		if s.srv.URL == url {
			return s
		}
	}
	return nil
}

func pairViaProxy(t *testing.T, h http.Handler, s, tt int) (map[string]any, int) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/pair?s=%d&t=%d", s, tt), nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad response body %q: %v", rec.Body.String(), err)
	}
	return body, rec.Code
}

// TestRoutesToCheapestOwner: with every replica healthy, a pair query goes
// to the replica owning the landmark that minimizes the cost law, and
// nothing else is contacted.
func TestRoutesToCheapestOwner(t *testing.T) {
	p, stubs := newTestProxy(t, 3, nil)
	h := p.routes()
	st := p.state.Load()

	s, tt := 3, 170
	targets := st.router.Route(st.fp, s, tt)
	if len(targets) == 0 {
		t.Fatal("router returned no targets")
	}
	body, code := pairViaProxy(t, h, s, tt)
	if code != http.StatusOK {
		t.Fatalf("pair: status %d body %v", code, body)
	}
	if got := body["replica"]; got != targets[0].Member {
		t.Fatalf("served by %v, want cheapest owner %s", got, targets[0].Member)
	}
	want, err := landmarkrd.Exact(st.g, s, tt)
	if err != nil {
		t.Fatal(err)
	}
	if got := body["value"].(float64); got != want {
		t.Fatalf("value %v, want exact %v", got, want)
	}
	cheapest := stubByURL(stubs, targets[0].Member)
	if n := cheapest.hits.Load(); n != 1 {
		t.Fatalf("cheapest owner saw %d requests, want 1", n)
	}
	for _, sr := range stubs {
		if sr != cheapest && sr.hits.Load() != 0 {
			t.Fatalf("non-cheapest replica %s was contacted", sr.srv.URL)
		}
	}
	if got := p.metrics.ShardRouted.Load(); got != 1 {
		t.Fatalf("ShardRouted = %d, want 1", got)
	}
	if got := p.metrics.ShardFailovers.Load(); got != 0 {
		t.Fatalf("ShardFailovers = %d, want 0", got)
	}
}

// TestFailoverUnreadyReplica is the acceptance criterion: with the
// cheapest landmark owner unready, the query fails over to the
// next-cheapest owner and still answers correctly.
func TestFailoverUnreadyReplica(t *testing.T) {
	p, stubs := newTestProxy(t, 3, nil)
	h := p.routes()
	st := p.state.Load()

	s, tt := 3, 170
	targets := st.router.Route(st.fp, s, tt)
	if len(targets) < 2 {
		t.Fatal("need at least two owners for a failover test")
	}
	down := stubByURL(stubs, targets[0].Member)
	down.ready.Store(false)
	p.healthSweep(t.Context())
	if p.replicaByName(targets[0].Member).healthy.Load() {
		t.Fatal("health sweep did not mark the stub unready")
	}

	body, code := pairViaProxy(t, h, s, tt)
	if code != http.StatusOK {
		t.Fatalf("pair during failover: status %d body %v", code, body)
	}
	if got := body["replica"]; got != targets[1].Member {
		t.Fatalf("served by %v, want next-cheapest owner %s", got, targets[1].Member)
	}
	if n := down.hits.Load(); n != 0 {
		t.Fatalf("unready replica was contacted %d times", n)
	}
	if got := body["failovers"].(float64); got != 1 {
		t.Fatalf("failovers = %v, want 1", got)
	}
	if got := p.metrics.ShardFailovers.Load(); got != 1 {
		t.Fatalf("ShardFailovers = %d, want 1", got)
	}

	// Recovery: the replica comes back, a fresh poll sees it, and routing
	// returns to the cheapest owner.
	down.ready.Store(true)
	p.healthSweep(t.Context())
	body, code = pairViaProxy(t, h, s, tt)
	if code != http.StatusOK {
		t.Fatalf("pair after recovery: status %d", code)
	}
	if got := body["replica"]; got != targets[0].Member {
		t.Fatalf("served by %v after recovery, want %s", got, targets[0].Member)
	}
}

// TestFailoverOnSaturatedShard: a 429 from the cheapest owner is a
// failover signal, not a client-visible error.
func TestFailoverOnSaturatedShard(t *testing.T) {
	p, stubs := newTestProxy(t, 3, nil)
	h := p.routes()
	st := p.state.Load()

	s, tt := 10, 150
	targets := st.router.Route(st.fp, s, tt)
	stubByURL(stubs, targets[0].Member).limit.Store(true)

	body, code := pairViaProxy(t, h, s, tt)
	if code != http.StatusOK {
		t.Fatalf("pair with saturated shard: status %d body %v", code, body)
	}
	if got := body["replica"]; got != targets[1].Member {
		t.Fatalf("served by %v, want next-cheapest %s", got, targets[1].Member)
	}
	if got := p.metrics.ShardFailovers.Load(); got != 1 {
		t.Fatalf("ShardFailovers = %d, want 1", got)
	}
}

// TestAllReplicasDown: exhausting the owner list yields a 503 envelope,
// and the proxy's own /readyz goes dark.
func TestAllReplicasDown(t *testing.T) {
	p, stubs := newTestProxy(t, 2, nil)
	h := p.routes()
	for _, sr := range stubs {
		sr.ready.Store(false)
	}
	p.healthSweep(t.Context())

	body, code := pairViaProxy(t, h, 0, 1)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("pair with dark fleet: status %d, want 503", code)
	}
	errObj := body["error"].(map[string]any)
	if errObj["code"] != "no_replicas" {
		t.Fatalf("error code %v, want no_replicas", errObj["code"])
	}

	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with dark fleet: status %d, want 503", rec.Code)
	}
}

// TestStormSingleBackendRequest: a storm of identical concurrent pairs
// collapses to exactly one backend request via the singleflight cache.
func TestStormSingleBackendRequest(t *testing.T) {
	p, stubs := newTestProxy(t, 3, func(c *proxyConfig) { c.cacheSize = 1024 })
	h := p.routes()

	const workers = 64
	var wg sync.WaitGroup
	codes := make([]int, workers)
	values := make([]float64, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet, "/v1/pair?s=3&t=170", nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			codes[i] = rec.Code
			var body map[string]any
			if json.Unmarshal(rec.Body.Bytes(), &body) == nil {
				if v, ok := body["value"].(float64); ok {
					values[i] = v
				}
			}
		}(i)
	}
	wg.Wait()

	var total int64
	for _, sr := range stubs {
		total += sr.hits.Load()
	}
	if total != 1 {
		t.Fatalf("storm of %d identical pairs made %d backend requests, want 1", workers, total)
	}
	for i := range codes {
		if codes[i] != http.StatusOK {
			t.Fatalf("worker %d: status %d", i, codes[i])
		}
		if values[i] != values[0] {
			t.Fatalf("worker %d saw value %v, worker 0 saw %v", i, values[i], values[0])
		}
	}
	if miss := p.metrics.CacheMisses.Load(); miss != 1 {
		t.Fatalf("CacheMisses = %d, want 1", miss)
	}
	if hs := p.metrics.CacheHits.Load() + p.metrics.CacheShared.Load(); hs != workers-1 {
		t.Fatalf("hits+shared = %d, want %d", hs, workers-1)
	}
}

// TestReloadBumpsFingerprint: a SIGHUP-style reload of a changed graph
// publishes a new fingerprint, so previously cached answers stop being
// served and the next query goes back to a replica.
func TestReloadBumpsFingerprint(t *testing.T) {
	g := loadTestGraph(t)
	// The proxy re-reads its graph path on reload, so serve it from a
	// mutable copy.
	dir := t.TempDir()
	path := filepath.Join(dir, "graph.edges")
	raw, err := os.ReadFile(corpusGraph)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	stub := newStubReplica(t, g)
	cfg := proxyConfig{
		replicas:   []string{stub.srv.URL},
		portfolioK: 2,
		indexMode:  "exact",
		seed:       7,
	}
	cfg.cacheSize = 64
	p, err := newProxyServer(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := p.routes()
	fpBefore := p.state.Load().fp

	if _, code := pairViaProxy(t, h, 3, 170); code != http.StatusOK {
		t.Fatalf("warm query: status %d", code)
	}
	if _, code := pairViaProxy(t, h, 3, 170); code != http.StatusOK {
		t.Fatalf("cached query: status %d", code)
	}
	if n := stub.hits.Load(); n != 1 {
		t.Fatalf("repeat query hit the backend (%d requests), cache should have answered", n)
	}

	// Roll out a changed graph: append one edge and reload.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("3 170 50\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := p.reload(); err != nil {
		t.Fatalf("reload: %v", err)
	}
	if fpAfter := p.state.Load().fp; fpAfter == fpBefore {
		t.Fatal("reload did not change the graph fingerprint")
	}

	if _, code := pairViaProxy(t, h, 3, 170); code != http.StatusOK {
		t.Fatalf("post-rollout query: status %d", code)
	}
	if n := stub.hits.Load(); n != 2 {
		t.Fatalf("post-rollout query made %d total backend requests, want 2 (stale cache must not answer)", n)
	}
}

// TestBatchFanout: a batch spreads across owners and returns results in
// order.
func TestBatchFanout(t *testing.T) {
	p, _ := newTestProxy(t, 3, nil)
	h := p.routes()
	st := p.state.Load()

	pairs := [][2]int{{0, 195}, {3, 170}, {14, 42}, {7, 7}}
	var sb strings.Builder
	sb.WriteString(`{"pairs":[`)
	for i, q := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"s":%d,"t":%d}`, q[0], q[1])
	}
	sb.WriteString(`]}`)

	req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(sb.String()))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d body %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		GraphVersion uint64 `json:"graph_version"`
		Results      []struct {
			S     int     `json:"s"`
			T     int     `json:"t"`
			Value float64 `json:"value"`
		} `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.GraphVersion != st.fp {
		t.Fatalf("graph_version %#x, want %#x", resp.GraphVersion, st.fp)
	}
	if len(resp.Results) != len(pairs) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(pairs))
	}
	for i, q := range pairs {
		r := resp.Results[i]
		if r.S != q[0] || r.T != q[1] {
			t.Fatalf("results[%d] is pair (%d,%d), want (%d,%d)", i, r.S, r.T, q[0], q[1])
		}
		want, err := landmarkrd.Exact(st.g, q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		if r.Value != want {
			t.Fatalf("results[%d] value %v, want %v", i, r.Value, want)
		}
	}
}

// TestProxyMethodNotAllowed: the coordinator speaks the same JSON 405 +
// Allow taxonomy as the replicas.
func TestProxyMethodNotAllowed(t *testing.T) {
	p, _ := newTestProxy(t, 1, nil)
	h := p.routes()
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodPost, "/healthz", "GET, HEAD"},
		{http.MethodDelete, "/readyz", "GET, HEAD"},
		{http.MethodPost, "/v1/pair", "GET, HEAD"},
		{http.MethodGet, "/v1/batch", "POST"},
		{http.MethodPut, "/debug/vars", "GET, HEAD"},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader("{}"))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", tc.method, tc.path, rec.Code)
		}
		if got := rec.Header().Get("Allow"); got != tc.allow {
			t.Fatalf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.allow)
		}
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s %s: 405 body is not JSON: %v", tc.method, tc.path, err)
		}
		if code := body["error"].(map[string]any)["code"]; code != "method_not_allowed" {
			t.Fatalf("%s %s: error code %v", tc.method, tc.path, code)
		}
	}
}

// TestProxySaturation429: beyond max-inflight the coordinator answers the
// same jittered-Retry-After 429 envelope as the replicas.
func TestProxySaturation429(t *testing.T) {
	p, stubs := newTestProxy(t, 1, func(c *proxyConfig) { c.maxInflight = 1 })
	h := p.routes()

	// Occupy the single admission slot by hand.
	if !p.api.TryAcquire() {
		t.Fatal("admission slot not free")
	}
	defer p.api.Release()

	req := httptest.NewRequest(http.MethodGet, "/v1/pair?s=0&t=1", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated proxy: status %d, want 429", rec.Code)
	}
	after, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || after < httpapi.RetryAfterMin || after > httpapi.RetryAfterMax {
		t.Fatalf("Retry-After %q, want int in [%d, %d]", rec.Header().Get("Retry-After"), httpapi.RetryAfterMin, httpapi.RetryAfterMax)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("429 body is not JSON: %v", err)
	}
	if code := body["error"].(map[string]any)["code"]; code != "saturated" {
		t.Fatalf("error code %v, want saturated", code)
	}
	if stubs[0].hits.Load() != 0 {
		t.Fatal("saturated request reached a replica")
	}
}

// TestProxyBadRequests: parameter validation happens at the coordinator,
// before any replica is contacted.
func TestProxyBadRequests(t *testing.T) {
	p, stubs := newTestProxy(t, 1, nil)
	h := p.routes()
	cases := []struct {
		path string
		code int
	}{
		{"/v1/pair?t=5", http.StatusBadRequest},
		{"/v1/pair?s=a&t=5", http.StatusBadRequest},
		{"/v1/pair?s=0&t=100000", http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodGet, tc.path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.code {
			t.Fatalf("GET %s: status %d, want %d", tc.path, rec.Code, tc.code)
		}
	}
	if stubs[0].hits.Load() != 0 {
		t.Fatal("invalid request reached a replica")
	}
}

// TestProxyBatchBodyTooLarge: a batch over the 1 MiB body cap gets the
// replicas' 413 body_too_large, not a 400 parse error, and reaches no
// replica.
func TestProxyBatchBodyTooLarge(t *testing.T) {
	p, stubs := newTestProxy(t, 1, nil)
	body := `{"pairs":[` + strings.Repeat(`{"s":0,"t":1},`, 100_000) + `{"s":0,"t":1}]}`
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body))
	rec := httptest.NewRecorder()
	p.routes().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte batch: status %d, want 413 (body %.200s)", len(body), rec.Code, rec.Body.String())
	}
	var env httpapi.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != "body_too_large" {
		t.Fatalf("413 envelope %q (%v), want code body_too_large", rec.Body.String(), err)
	}
	if stubs[0].hits.Load() != 0 {
		t.Fatal("oversized batch reached a replica")
	}
}

// TestProxyPanicRecovered: a panic in a coordinator handler (here from the
// injected clock the owner-walk reads under a deadline) is answered with a
// structured 500 instead of a dropped connection, and ticks panics.
func TestProxyPanicRecovered(t *testing.T) {
	p, _ := newTestProxy(t, 1, func(c *proxyConfig) {
		c.timeout = time.Second
		c.now = func() time.Time { panic("clock broke") }
	})
	ts := httptest.NewServer(p.routes())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/pair?s=3&t=170")
	if err != nil {
		t.Fatalf("panicking handler dropped the connection: %v", err)
	}
	defer resp.Body.Close()
	var env httpapi.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("500 body not structured: %v", err)
	}
	if resp.StatusCode != http.StatusInternalServerError || env.Error.Code != "internal" {
		t.Fatalf("status %d code %q, want 500 internal", resp.StatusCode, env.Error.Code)
	}
	if got := p.metrics.Panics.Load(); got != 1 {
		t.Fatalf("panics = %d, want 1", got)
	}
}

// TestConfigValidation covers the flag-level rejections.
func TestConfigValidation(t *testing.T) {
	cases := []proxyConfig{
		{},                                // no replicas
		{replicas: []string{"not a url"}}, // relative/bad URL
		{replicas: []string{"http://a", "http://a"}}, // duplicate
		{replicas: []string{"http://a"}, maxInflight: -1},
		{replicas: []string{"http://a"}, cacheSize: -2},
	}
	for i, cfg := range cases {
		if err := cfg.validate(); err == nil {
			t.Fatalf("case %d: config %+v validated, want error", i, cfg)
		}
	}
	ok := proxyConfig{replicas: []string{"http://a:1", "http://b:2"}}
	if err := ok.validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}
