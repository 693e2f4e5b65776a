package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	landmarkrd "landmarkrd"
	"landmarkrd/internal/httpapi"
)

// errorEnvelope mirrors the structured error body every non-2xx response
// carries.
type errorEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// TestMethodNotAllowedMatrix: every endpoint rejects wrong methods with the
// structured 405 + Allow header — including /healthz and /readyz, which
// previously answered 200 to any verb.
func TestMethodNotAllowedMatrix(t *testing.T) {
	srv := newTestServer(t, serverConfig{})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	client := ts.Client()

	cases := []struct {
		method, path, allow string
	}{
		{http.MethodPost, "/healthz", "GET, HEAD"},
		{http.MethodDelete, "/healthz", "GET, HEAD"},
		{http.MethodPost, "/readyz", "GET, HEAD"},
		{http.MethodPost, "/v1/pair", "GET, HEAD"},
		{http.MethodDelete, "/v1/pair", "GET, HEAD"},
		{http.MethodGet, "/v1/batch", "POST"},
		{http.MethodPut, "/v1/batch", "POST"},
		{http.MethodDelete, "/v1/singlesource", "GET, HEAD"},
		{http.MethodGet, "/v1/update", "POST"},
		{http.MethodDelete, "/v1/update", "POST"},
		{http.MethodPost, "/debug/vars", "GET, HEAD"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env errorEnvelope
		decodeErr := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
			continue
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.allow)
		}
		if decodeErr != nil {
			t.Errorf("%s %s: unstructured 405 body: %v", tc.method, tc.path, decodeErr)
		} else if env.Error.Code != "method_not_allowed" {
			t.Errorf("%s %s: error code %q, want method_not_allowed", tc.method, tc.path, env.Error.Code)
		}
	}

	// The probes still answer GET and HEAD with 200.
	for _, method := range []string{http.MethodGet, http.MethodHead} {
		for _, path := range []string{"/healthz", "/readyz"} {
			req, _ := http.NewRequest(method, ts.URL+path, nil)
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s %s: status %d, want 200", method, path, resp.StatusCode)
			}
		}
	}
}

// TestSaturation429Envelope saturates the server and asserts the 429 is a
// complete, well-formed response: parseable JSON envelope with code and
// message, JSON content type, and a Retry-After inside the jitter band.
func TestSaturation429Envelope(t *testing.T) {
	srv := newTestServer(t, serverConfig{maxInflight: 1, timeout: 30 * time.Second})
	admitted := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.onAdmit = func() {
		once.Do(func() {
			close(admitted)
			<-release
		})
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		resp, err := http.Get(ts.URL + "/v1/pair?s=0&t=100")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-admitted

	resp, err := http.Get(ts.URL + "/v1/pair?s=1&t=2")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("429 Content-Type %q, want application/json", ct)
	}
	after, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || after < httpapi.RetryAfterMin || after > httpapi.RetryAfterMax {
		t.Errorf("Retry-After %q, want an int in [%d, %d]", resp.Header.Get("Retry-After"), httpapi.RetryAfterMin, httpapi.RetryAfterMax)
	}
	var env errorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("429 body is not well-formed JSON: %v (body %s)", err, raw)
	}
	if env.Error.Code != "saturated" || env.Error.Message == "" {
		t.Errorf("429 envelope = %+v, want code \"saturated\" with a message", env.Error)
	}

	close(release)
	<-firstDone
}

// failingWriter is a ResponseWriter whose body writes always fail, forcing
// json.Encoder.Encode inside the envelope writer to error.
type failingWriter struct {
	header http.Header
	status int
}

func (f *failingWriter) Header() http.Header { return f.header }
func (f *failingWriter) WriteHeader(s int)   { f.status = s }
func (f *failingWriter) Write([]byte) (int, error) {
	return 0, errors.New("wire torn")
}

// TestWriteErrorLogsEncodeFailure: a failed envelope write must reach the
// server's logger instead of being discarded.
func TestWriteErrorLogsEncodeFailure(t *testing.T) {
	srv := newTestServer(t, serverConfig{})
	var buf bytes.Buffer
	srv.api.Logger = log.New(&buf, "", 0)
	w := &failingWriter{header: make(http.Header)}
	srv.api.Error(w, http.StatusTooManyRequests, "saturated", "server at capacity")
	if w.status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.status)
	}
	logged := buf.String()
	if !strings.Contains(logged, "429") || !strings.Contains(logged, "wire torn") {
		t.Errorf("encode failure not logged; log output: %q", logged)
	}
}

// TestDegradedErrorBoundAlwaysEmitted is the regression test for the
// omitempty bug: a degraded answer whose bound is exactly 0 must still
// carry the error_bound field, and non-degraded answers must omit it.
func TestDegradedErrorBoundAlwaysEmitted(t *testing.T) {
	degraded := toPairResponse(landmarkrd.PairResult{
		PairQuery: landmarkrd.PairQuery{S: 1, T: 2},
		Estimate:  landmarkrd.Estimate{Value: 0.5, ErrBound: 0},
		Degraded:  true,
	})
	raw, err := json.Marshal(degraded)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"error_bound":0`) {
		t.Errorf("degraded answer with zero bound dropped error_bound: %s", raw)
	}

	clean := toPairResponse(landmarkrd.PairResult{
		PairQuery: landmarkrd.PairQuery{S: 1, T: 2},
		Estimate:  landmarkrd.Estimate{Value: 0.5, Converged: true},
	})
	raw, err = json.Marshal(clean)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "error_bound") {
		t.Errorf("non-degraded answer emitted error_bound: %s", raw)
	}
}

// pairViaHTTP fetches /v1/pair and returns the decoded response.
func pairViaHTTP(t *testing.T, ts *httptest.Server, s, tt int) struct {
	Value float64 `json:"value"`
	Cache string  `json:"cache"`
	Epoch uint64  `json:"epoch"`
} {
	t.Helper()
	var out struct {
		Value float64 `json:"value"`
		Cache string  `json:"cache"`
		Epoch uint64  `json:"epoch"`
	}
	resp, err := http.Get(ts.URL + "/v1/pair?s=" + strconv.Itoa(s) + "&t=" + strconv.Itoa(tt))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("pair (%d,%d): status %d: %s", s, tt, resp.StatusCode, raw)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCacheStormSingleSolve fires a storm of concurrent identical pair
// requests at a cache-enabled server and proves the engine solved exactly
// once: one cache miss, everyone else a hit or a singleflight share, all
// with the identical value.
func TestCacheStormSingleSolve(t *testing.T) {
	srv := newTestServer(t, serverConfig{
		cacheSize:   1024,
		maxInflight: 256,
		timeout:     30 * time.Second,
	})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	const workers = 64
	values := make([]float64, workers)
	outcomes := make([]string, workers)
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			out := pairViaHTTP(t, ts, 3, 170)
			values[i], outcomes[i] = out.Value, out.Cache
		}(i)
	}
	close(gate)
	wg.Wait()

	if got := srv.metrics.CacheMisses.Load(); got != 1 {
		t.Errorf("storm of %d identical pairs: %d engine solves (cache misses), want exactly 1", workers, got)
	}
	if got := srv.metrics.CacheHits.Load() + srv.metrics.CacheShared.Load(); got != workers-1 {
		t.Errorf("hits+shared = %d, want %d", got, workers-1)
	}
	for i := 1; i < workers; i++ {
		if values[i] != values[0] {
			t.Fatalf("worker %d value %g != worker 0 value %g", i, values[i], values[0])
		}
	}
	var missCount int
	for _, o := range outcomes {
		switch o {
		case "miss":
			missCount++
		case "hit", "shared":
		default:
			t.Fatalf("unexpected cache outcome %q", o)
		}
	}
	if missCount != 1 {
		t.Errorf("%d responses reported cache=miss, want 1", missCount)
	}
}

// TestCacheInvalidatedByUpdate publishes a new epoch through /v1/update
// (maxPatches 1 forces an immediate re-base) and proves the stale cached
// value is never served: the fingerprint changes, the next lookup is a
// miss, and the fresh value differs from the cached one.
func TestCacheInvalidatedByUpdate(t *testing.T) {
	srv := newTestServer(t, serverConfig{
		cacheSize:   1024,
		maxInflight: 16,
		timeout:     30 * time.Second,
		maxPatches:  1,
	})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	first := pairViaHTTP(t, ts, 3, 170)
	if first.Cache != "miss" {
		t.Fatalf("first query cache = %q, want miss", first.Cache)
	}
	again := pairViaHTTP(t, ts, 3, 170)
	if again.Cache != "hit" || again.Value != first.Value {
		t.Fatalf("repeat query = (%g, %q), want cached (%g, hit)", again.Value, again.Cache, first.Value)
	}
	fpBefore := srv.live.Fingerprint()

	// Add a heavy parallel edge near the pair: resistance must drop.
	resp, err := http.Post(ts.URL+"/v1/update", "application/json",
		strings.NewReader(`{"op":"add","s":3,"t":170,"weight":50}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d: %s", resp.StatusCode, raw)
	}
	srv.live.Quiesce() // wait out the triggered background re-base
	if srv.live.PendingPatches() != 0 {
		t.Fatal("re-base did not fold the patch stack")
	}
	if fp := srv.live.Fingerprint(); fp == fpBefore {
		t.Fatalf("fingerprint unchanged (%#x) after epoch publish; stale entries would hit", fp)
	}

	fresh := pairViaHTTP(t, ts, 3, 170)
	if fresh.Cache != "miss" {
		t.Errorf("post-update query cache = %q, want miss (new fingerprint)", fresh.Cache)
	}
	if fresh.Value >= first.Value {
		t.Errorf("post-update r(3,170) = %g, want below pre-update %g (heavy edge added); stale cache value served?", fresh.Value, first.Value)
	}
	cached := pairViaHTTP(t, ts, 3, 170)
	if cached.Cache != "hit" || cached.Value != fresh.Value {
		t.Errorf("post-update repeat = (%g, %q), want (%g, hit)", cached.Value, cached.Cache, fresh.Value)
	}
	if got := srv.metrics.CacheMisses.Load(); got != 2 {
		t.Errorf("total cache misses %d, want 2 (one per graph version)", got)
	}
}

// TestLandmarksShardSubset pins a replica to an explicit landmark subset
// and checks the served portfolio is exactly that subset, in order.
func TestLandmarksShardSubset(t *testing.T) {
	srv := newTestServer(t, serverConfig{
		landmarks: "5,60,120",
		indexMode: "exact",
		timeout:   30 * time.Second,
	})
	pf := srv.currentPortfolio()
	if pf == nil {
		t.Fatal("-landmarks did not produce a portfolio")
	}
	want := []int{5, 60, 120}
	if len(pf.Landmarks) != len(want) {
		t.Fatalf("portfolio landmarks %v, want %v", pf.Landmarks, want)
	}
	for i, v := range want {
		if pf.Landmarks[i] != v {
			t.Fatalf("portfolio landmarks %v, want %v", pf.Landmarks, want)
		}
	}

	// Mismatched -portfolio/-landmarks is a startup error.
	if _, err := newQueryServer(loadTestGraph(t), serverConfig{
		method: landmarkrd.BiPush, seed: 7,
		landmarks: "5,60", portfolioK: 3, indexMode: "exact",
	}); err == nil {
		t.Error("mismatched -portfolio/-landmarks accepted")
	}
	// Out-of-range landmark vertices are a startup error.
	if _, err := newQueryServer(loadTestGraph(t), serverConfig{
		method: landmarkrd.BiPush, seed: 7,
		landmarks: "5,100000", indexMode: "exact",
	}); err == nil {
		t.Error("out-of-range -landmarks vertex accepted")
	}
}

// TestOneAnswerPerPairServed: one epoch gives a pair one value on the wire,
// bit for bit — /v1/pair as (s, t) and (t, s), /v1/batch at positions 0
// and 5, and with -cache on, (s, t) then (t, s) on one fresh server and
// the reverse order on another, whichever orientation filled the cache.
func TestOneAnswerPerPairServed(t *testing.T) {
	cfg := serverConfig{maxInflight: 16, timeout: 30 * time.Second}
	plain := httptest.NewServer(newTestServer(t, cfg).routes())
	defer plain.Close()
	batchValue := func(s, tt, pos int) float64 {
		t.Helper()
		queries := []string{`{"s":0,"t":100}`, `{"s":5,"t":55}`, `{"s":1,"t":2}`, `{"s":190,"t":7}`, `{"s":42,"t":141}`, `{"s":11,"t":12}`}
		queries[pos] = fmt.Sprintf(`{"s":%d,"t":%d}`, s, tt)
		resp, err := http.Post(plain.URL+"/v1/batch", "application/json", strings.NewReader(`{"pairs":[`+strings.Join(queries, ",")+`]}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Results []struct {
				S, T  int
				Value float64
				Err   string `json:"error"`
			}
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		r := out.Results[pos]
		if r.Err != "" || r.S != s || r.T != tt {
			t.Fatalf("batch position %d: (%d,%d) error %q, asked (%d,%d)", pos, r.S, r.T, r.Err, s, tt)
		}
		return r.Value
	}
	cfg.cacheSize = 64
	for _, p := range [][2]int{{3, 170}, {150, 20}, {60, 61}} {
		s, tt := p[0], p[1]
		want := pairViaHTTP(t, plain, s, tt).Value
		got := map[string]float64{
			"pair (t,s)":    pairViaHTTP(t, plain, tt, s).Value,
			"batch 0 (s,t)": batchValue(s, tt, 0),
			"batch 5 (t,s)": batchValue(tt, s, 5),
		}
		for order, pairs := range map[string][][2]int{"(s,t) first": {{s, tt}, {tt, s}}, "(t,s) first": {{tt, s}, {s, tt}}} {
			cached := httptest.NewServer(newTestServer(t, cfg).routes())
			for i, q := range pairs {
				out := pairViaHTTP(t, cached, q[0], q[1])
				if wantCache := []string{"miss", "hit"}[i]; out.Cache != wantCache {
					t.Errorf("%v %s: cache %q, want %q", q, order, out.Cache, wantCache)
				}
				got[fmt.Sprintf("cache %s, %v", order, q)] = out.Value
			}
			cached.Close()
		}
		for how, v := range got {
			if math.Float64bits(v) != math.Float64bits(want) {
				t.Errorf("pair (%d,%d): %s = %v, /v1/pair (s,t) = %v", s, tt, how, v, want)
			}
		}
	}
}
