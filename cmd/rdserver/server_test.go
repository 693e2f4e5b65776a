package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	landmarkrd "landmarkrd"
	"landmarkrd/internal/faultinject"
	"landmarkrd/internal/httpapi"
)

const corpusGraph = "../../testdata/corpus/grid_14x14.edges"

func loadTestGraph(t *testing.T) *landmarkrd.Graph {
	t.Helper()
	g, _, err := landmarkrd.LoadEdgeList(corpusGraph)
	if err != nil {
		t.Fatalf("loading %s: %v", corpusGraph, err)
	}
	return g
}

func newTestServer(t *testing.T, cfg serverConfig) *queryServer {
	t.Helper()
	if cfg.method == 0 {
		cfg.method = landmarkrd.BiPush
	}
	if cfg.seed == 0 {
		cfg.seed = 7
	}
	srv, err := newQueryServer(loadTestGraph(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestPairEndpoint(t *testing.T) {
	srv := newTestServer(t, serverConfig{timeout: 30 * time.Second})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/pair?s=0&t=100")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		S, T      int
		Value     float64
		Converged bool
		Landmark  int
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.S != 0 || out.T != 100 {
		t.Errorf("echoed pair (%d,%d), want (0,100)", out.S, out.T)
	}
	if out.Value <= 0 {
		t.Errorf("r(0,100) = %g, want positive", out.Value)
	}
}

// TestPairBadVertex splits malformed requests (400) from well-formed
// requests naming impossible vertices (422), and asserts the structured
// error envelope on both.
func TestPairBadVertex(t *testing.T) {
	srv := newTestServer(t, serverConfig{})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	cases := []struct {
		query  string
		status int
		code   string
	}{
		{"s=0", http.StatusBadRequest, "bad_request"},     // missing t
		{"s=x&t=3", http.StatusBadRequest, "bad_request"}, // unparseable
		{"s=0&t=100000", http.StatusUnprocessableEntity, "vertex_out_of_range"},
		{"s=-1&t=3", http.StatusUnprocessableEntity, "vertex_out_of_range"},
	}
	for _, tc := range cases {
		resp, err := http.Get(ts.URL + "/v1/pair?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		decodeErr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("query %q: status %d, want %d", tc.query, resp.StatusCode, tc.status)
		}
		if decodeErr != nil {
			t.Errorf("query %q: unstructured error body: %v", tc.query, decodeErr)
			continue
		}
		if body.Error.Code != tc.code {
			t.Errorf("query %q: error code %q, want %q", tc.query, body.Error.Code, tc.code)
		}
		if body.Error.Message == "" {
			t.Errorf("query %q: empty error message", tc.query)
		}
	}

	// The same 422 mapping applies to batch bodies.
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"pairs":[{"s":0,"t":99999}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("batch with out-of-range vertex: status %d, want 422", resp.StatusCode)
	}
}

func TestBatchEndpoint(t *testing.T) {
	srv := newTestServer(t, serverConfig{timeout: 30 * time.Second})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	body := `{"pairs":[{"s":0,"t":100},{"s":5,"t":55},{"s":1,"t":2}]}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		Results []struct {
			Value float64
			Err   string `json:"error"`
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	for i, r := range out.Results {
		if r.Err != "" {
			t.Errorf("result %d: error %q", i, r.Err)
		}
		if r.Value <= 0 {
			t.Errorf("result %d: value %g, want positive", i, r.Value)
		}
	}
}

func TestSingleSourceEndpoint(t *testing.T) {
	srv := newTestServer(t, serverConfig{indexMode: "exact", timeout: 30 * time.Second})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/singlesource?s=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		S      int
		Values []float64
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if n := loadTestGraph(t).N(); len(out.Values) != n {
		t.Fatalf("got %d values, want %d", len(out.Values), n)
	}
	if out.Values[3] != 0 {
		t.Errorf("r(3,3) = %g, want 0", out.Values[3])
	}
}

func TestSingleSourceWithoutIndex(t *testing.T) {
	srv := newTestServer(t, serverConfig{})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/singlesource?s=3")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("status %d, want 501", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	srv := newTestServer(t, serverConfig{})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d, want 200", resp.StatusCode)
	}
}

func TestDebugVarsExposesEngineStats(t *testing.T) {
	srv := newTestServer(t, serverConfig{timeout: 30 * time.Second})
	landmarkrd.PublishMetrics("landmarkrd.engine", srv.metrics)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	if _, err := http.Get(ts.URL + "/v1/pair?s=0&t=100"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), `"landmarkrd.engine"`) {
		t.Error("/debug/vars missing landmarkrd.engine")
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(raw, &vars); err != nil {
		t.Fatalf("un-parseable /debug/vars: %v", err)
	}
	var stats struct {
		Queries int64 `json:"queries"`
	}
	if err := json.Unmarshal(vars["landmarkrd.engine"], &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Queries == 0 {
		t.Error("engine stats show zero queries after a served pair")
	}
}

// TestTimeoutReturns504 proves the per-request budget reaches the kernels:
// an expired budget aborts the solve mid-flight and surfaces as 504, not as
// a hung request or a fabricated answer.
func TestTimeoutReturns504(t *testing.T) {
	srv := newTestServer(t, serverConfig{timeout: time.Nanosecond})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	for _, path := range []string{"/v1/pair?s=0&t=100", "/v1/batch"} {
		var resp *http.Response
		var err error
		if strings.HasPrefix(path, "/v1/batch") {
			resp, err = http.Post(ts.URL+path, "application/json",
				strings.NewReader(`{"pairs":[{"s":0,"t":100}]}`))
		} else {
			resp, err = http.Get(ts.URL + path)
		}
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("%s: status %d, want 504", path, resp.StatusCode)
		}
	}
}

// TestSaturationReturns429 holds one request in flight (via the onAdmit test
// hook) with an admission limit of one, and asserts concurrent requests are
// rejected immediately with 429 + Retry-After rather than queued.
func TestSaturationReturns429(t *testing.T) {
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

	firstDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/pair?s=0&t=100")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("held request: status %d", resp.StatusCode)
			}
		}
		firstDone <- err
	}()
	<-admitted // the slot is now provably occupied

	resp, err := http.Get(ts.URL + "/v1/pair?s=1&t=2")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After header")
	}

	close(release)
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}

	// With the slot free again the same request succeeds.
	resp, err = http.Get(ts.URL + "/v1/pair?s=1&t=2")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("after release: status %d, want 200", resp.StatusCode)
	}
}

// TestShutdownDrainsInflight starts a real http.Server, holds a query in
// flight, initiates Shutdown, and asserts (a) Shutdown blocks until the
// query finishes and (b) the held query still gets its 200.
func TestShutdownDrainsInflight(t *testing.T) {
	srv := newTestServer(t, serverConfig{timeout: 30 * time.Second})
	admitted := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.onAdmit = func() {
		once.Do(func() {
			close(admitted)
			<-release
		})
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.routes()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = httpSrv.Serve(ln)
	}()
	base := "http://" + ln.Addr().String()

	firstDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/v1/pair?s=0&t=100")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("in-flight request: status %d", resp.StatusCode)
			}
		}
		firstDone <- err
	}()
	<-admitted

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- httpSrv.Shutdown(ctx)
	}()

	// Shutdown must not complete while the query is still in flight.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) with a query still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	if err := <-firstDone; err != nil {
		t.Fatalf("in-flight query not drained cleanly: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	<-served
}

// TestReadyz: ready after construction, 503 while not ready (as during a
// reload), ready again after.
func TestReadyz(t *testing.T) {
	srv := newTestServer(t, serverConfig{})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	status := func() int {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status(); got != http.StatusOK {
		t.Fatalf("/readyz after construction: %d, want 200", got)
	}
	srv.ready.Store(false)
	if got := status(); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while reloading: %d, want 503", got)
	}
	srv.ready.Store(true)
	if got := status(); got != http.StatusOK {
		t.Fatalf("/readyz after reload: %d, want 200", got)
	}
	// Liveness is independent of readiness.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz: %d, want 200", resp.StatusCode)
	}
}

// TestBatchBodyLimit proves oversized bodies are cut off with 413 and
// malformed bodies with 400, both with structured errors.
func TestBatchBodyLimit(t *testing.T) {
	srv := newTestServer(t, serverConfig{maxBody: 256, timeout: 30 * time.Second})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	big := `{"pairs":[` + strings.Repeat(`{"s":0,"t":1},`, 100) + `{"s":0,"t":1}]}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Error struct{ Code string } `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("413 body not structured: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if body.Error.Code != "body_too_large" {
		t.Errorf("oversized body: code %q, want body_too_large", body.Error.Code)
	}

	resp, err = http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", resp.StatusCode)
	}
}

// TestRetryAfterJitterBand saturates the server and checks every 429
// carries a Retry-After within the configured jitter band.
func TestRetryAfterJitterBand(t *testing.T) {
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
	defer func() { close(release); <-firstDone }()

	for i := 0; i < 20; i++ {
		resp, err := http.Get(ts.URL + "/v1/pair?s=1&t=2")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("request %d: status %d, want 429", i, resp.StatusCode)
		}
		after, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil {
			t.Fatalf("request %d: unparseable Retry-After %q", i, resp.Header.Get("Retry-After"))
		}
		if after < httpapi.RetryAfterMin || after > httpapi.RetryAfterMax {
			t.Errorf("request %d: Retry-After %d outside [%d, %d]", i, after, httpapi.RetryAfterMin, httpapi.RetryAfterMax)
		}
	}
}

// TestDegradedUnderPressure fills three quarters of the admission slots and
// asserts the next request is answered by the degraded tier: marked
// degraded, carrying a positive error bound, and counted in the metrics.
func TestDegradedUnderPressure(t *testing.T) {
	srv := newTestServer(t, serverConfig{maxInflight: 4, timeout: 30 * time.Second})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	// Occupy 3 of 4 slots; with this request's own slot the occupancy hits
	// the 3/4 pressure threshold.
	for i := 0; i < 3; i++ {
		if !srv.api.TryAcquire() {
			t.Fatal("admission slot not free")
		}
	}
	defer func() {
		for i := 0; i < 3; i++ {
			srv.api.Release()
		}
	}()

	resp, err := http.Get(ts.URL + "/v1/pair?s=0&t=100")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		Value      float64
		Degraded   bool
		ErrorBound float64 `json:"error_bound"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded {
		t.Fatal("response under pressure not marked degraded")
	}
	if out.Value <= 0 || out.ErrorBound <= 0 {
		t.Errorf("degraded answer value=%g bound=%g, want both positive", out.Value, out.ErrorBound)
	}
	if got := srv.eng().Stats().Degraded; got == 0 {
		t.Error("Degraded metric not incremented")
	}
}

// TestSnapshotStartup: a server with -snapshot writes its single-landmark
// index (a K=1 portfolio) on first start and a second server loads it
// instead of rebuilding, producing identical single-source answers. A
// snapshot in the retired v2 format loads too, as K=1.
func TestSnapshotStartup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.snap")
	cfg := serverConfig{indexMode: "exact", snapshot: path, timeout: 30 * time.Second}

	first := newTestServer(t, cfg)
	builds := first.eng().Stats().IndexBuilds
	if builds == 0 {
		t.Fatal("first server did not build the index")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}

	second := newTestServer(t, cfg)
	if second.eng().Stats().IndexBuilds != 0 {
		t.Error("second server rebuilt the index instead of loading the snapshot")
	}
	// A loaded snapshot does not persist its preconditioner; the column
	// serves with the Jacobi default, and the expvar must say so.
	if got := precondVar.Value(); got != "[jacobi]" {
		t.Errorf("landmarkrd.precond after a v3 snapshot load = %q, want [jacobi]", got)
	}
	a, _, err := landmarkrd.PortfolioSingleSource(first.currentPortfolio(), 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := landmarkrd.PortfolioSingleSource(second.currentPortfolio(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("snapshot-loaded index diverged at vertex %d: %g vs %g", i, b[i], a[i])
		}
	}

	v2 := newTestServer(t, serverConfig{snapshot: "../../testdata/snapshots/grid_14x14_exact_seed1.v2.snap"})
	if pf := v2.currentPortfolio(); pf == nil || pf.K() != 1 || pf.Primary() != 4 {
		t.Fatalf("v2 snapshot server portfolio = %v, want K=1 on landmark 4", pf)
	}
	if got := precondVar.Value(); got != "[jacobi]" {
		t.Errorf("landmarkrd.precond after a v2 snapshot load = %q, want [jacobi]", got)
	}
}

// TestSnapshotPortfolioKMismatch: a snapshot whose K differs from
// -portfolio (0 means 1) is rejected at startup, and on reload, where the
// old epoch keeps serving. Serving it would let the next re-base silently
// rebuild at the configured K with re-selected landmarks.
func TestSnapshotPortfolioKMismatch(t *testing.T) {
	dir := t.TempDir()
	k3 := filepath.Join(dir, "k3.snap")
	newTestServer(t, serverConfig{indexMode: "exact", portfolioK: 3, snapshot: k3, timeout: 30 * time.Second})
	for _, k := range []int{0, 2} {
		cfg := serverConfig{method: landmarkrd.BiPush, seed: 7, indexMode: "exact", portfolioK: k, snapshot: k3}
		if _, err := newQueryServer(loadTestGraph(t), cfg); err == nil {
			t.Errorf("-portfolio %d started on a k=3 snapshot", k)
		}
	}

	k2 := filepath.Join(dir, "k2.snap")
	srv := newTestServer(t, serverConfig{indexMode: "exact", portfolioK: 2, snapshot: k2, timeout: 30 * time.Second})
	old := srv.currentPortfolio()
	raw, err := os.ReadFile(k3)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(k2, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv.reload(); err == nil {
		t.Error("reload adopted a k=3 snapshot under -portfolio 2")
	}
	if srv.currentPortfolio() != old {
		t.Error("failed reload swapped the portfolio")
	}
	if !srv.ready.Load() {
		t.Error("server not ready after failed reload")
	}
}

// TestSighupReloadUnderLoad hammers the server with pair and single-source
// queries while reloading the index several times through the signal
// channel, asserting zero failed requests and a ready server afterwards.
func TestSighupReloadUnderLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.snap")
	srv := newTestServer(t, serverConfig{
		indexMode: "exact", snapshot: path,
		maxInflight: 64, timeout: 30 * time.Second,
	})
	reloaded := make(chan error, 16)
	srv.onReload = func(err error) { reloaded <- err }
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	hup := make(chan os.Signal, 1)
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		srv.api.WatchReload(hup, srv.reload)
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			paths := []string{"/v1/pair?s=0&t=100", "/v1/singlesource?s=5"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + paths[i%len(paths)])
				if err != nil {
					failures.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
			}
		}(w)
	}

	for i := 0; i < 3; i++ {
		hup <- syscall.SIGHUP
		select {
		case err := <-reloaded:
			if err != nil {
				t.Errorf("reload %d: %v", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("reload did not complete")
		}
	}
	close(stop)
	wg.Wait()
	close(hup)
	<-watcherDone

	if n := failures.Load(); n != 0 {
		t.Errorf("%d requests failed during SIGHUP reloads, want 0", n)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz after reloads: %d, want 200", resp.StatusCode)
	}
}

// TestReloadFailureKeepsServing corrupts the snapshot and proves a failed
// reload keeps the old index, keeps answering, and returns to ready.
func TestReloadFailureKeepsServing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.snap")
	srv := newTestServer(t, serverConfig{indexMode: "exact", snapshot: path, timeout: 30 * time.Second})
	old := srv.currentPortfolio()
	if old == nil {
		t.Fatal("no index after construction")
	}

	if err := os.WriteFile(path, []byte("corrupted snapshot bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv.reload(); err == nil {
		t.Fatal("reload of a corrupt snapshot succeeded")
	}
	if srv.currentPortfolio() != old {
		t.Error("failed reload swapped the index")
	}
	if !srv.ready.Load() {
		t.Error("server not ready after failed reload")
	}

	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/singlesource?s=5")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("single-source after failed reload: %d, want 200", resp.StatusCode)
	}
}

// TestStartupValidation rejects nonsensical flag combinations at
// construction time.
func TestStartupValidation(t *testing.T) {
	g := loadTestGraph(t)
	bad := []serverConfig{
		{timeout: -time.Second},
		{maxInflight: -1},
		{retries: -2},
		{degradeBelow: -time.Millisecond},
		{maxBody: -5},
		{timeout: time.Second, degradeBelow: 2 * time.Second},
		{indexMode: "bogus"},
	}
	for i, cfg := range bad {
		cfg.method = landmarkrd.BiPush
		cfg.seed = 7
		if _, err := newQueryServer(g, cfg); err == nil {
			t.Errorf("config %d (%+v) accepted, want validation error", i, cfg)
		}
	}
}

// TestPanicIsolation arms a panic fault in the batch query path and proves
// the server converts it into a structured 500 without dying: the next
// request after disarming succeeds.
func TestPanicIsolation(t *testing.T) {
	srv := newTestServer(t, serverConfig{timeout: 30 * time.Second})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	faultinject.Arm(faultinject.SiteBatchQuery, faultinject.Fault{Panic: "injected worker panic"})
	defer faultinject.Reset()

	resp, err := http.Get(ts.URL + "/v1/pair?s=0&t=100")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Error struct{ Code string } `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("panic response not structured: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking query: status %d, want 500", resp.StatusCode)
	}
	if body.Error.Code != "internal" {
		t.Errorf("panicking query: code %q, want internal", body.Error.Code)
	}
	if srv.eng().Stats().Panics == 0 {
		t.Error("Panics metric not incremented")
	}

	faultinject.Reset()
	resp, err = http.Get(ts.URL + "/v1/pair?s=0&t=100")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("request after disarming: status %d, want 200 (server should survive the panic)", resp.StatusCode)
	}
}

// TestPortfolioSnapshotStartup: a -portfolio server writes a v3 snapshot on
// first start, a second server loads it instead of rebuilding, and the
// single-source endpoint reports the routed landmark from the portfolio.
func TestPortfolioSnapshotStartup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pf.snap")
	cfg := serverConfig{indexMode: "exact", portfolioK: 2, snapshot: path, timeout: 30 * time.Second}

	first := newTestServer(t, cfg)
	pf := first.currentPortfolio()
	if pf == nil || pf.K() != 2 {
		t.Fatalf("first server portfolio = %v, want K=2", pf)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("portfolio snapshot not written: %v", err)
	}

	second := newTestServer(t, cfg)
	pf2 := second.currentPortfolio()
	if pf2 == nil || pf2.K() != 2 {
		t.Fatalf("second server portfolio = %v, want K=2", pf2)
	}
	for j, v := range pf.Landmarks {
		if pf2.Landmarks[j] != v {
			t.Fatalf("snapshot-loaded landmarks %v, want %v", pf2.Landmarks, pf.Landmarks)
		}
	}

	ts := httptest.NewServer(second.routes())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/singlesource?s=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		S        int
		Landmark int
		Values   []float64
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	routed := false
	for _, v := range pf2.Landmarks {
		if v == out.Landmark {
			routed = true
		}
	}
	if !routed {
		t.Errorf("served landmark %d not in portfolio %v", out.Landmark, pf2.Landmarks)
	}
	if out.Values[3] != 0 {
		t.Errorf("r(3,3) = %g, want 0", out.Values[3])
	}

	// Pair queries route through the same portfolio-backed engine.
	pairResp, err := http.Get(ts.URL + "/v1/pair?s=0&t=100")
	if err != nil {
		t.Fatal(err)
	}
	defer pairResp.Body.Close()
	if pairResp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(pairResp.Body)
		t.Fatalf("pair status %d: %s", pairResp.StatusCode, raw)
	}
}

// TestPortfolioStartupValidation: -portfolio or -landmarks with neither an
// index mode nor a snapshot cannot build columns and must fail fast.
func TestPortfolioStartupValidation(t *testing.T) {
	if _, err := newQueryServer(loadTestGraph(t), serverConfig{portfolioK: 3}); err == nil {
		t.Error("-portfolio without -index-mode or -snapshot accepted")
	}
	if _, err := newQueryServer(loadTestGraph(t), serverConfig{portfolioK: -1, indexMode: "exact"}); err == nil {
		t.Error("negative -portfolio accepted")
	}
	if _, err := newQueryServer(loadTestGraph(t), serverConfig{landmarks: "5,60"}); err == nil {
		t.Error("-landmarks without -index-mode or -snapshot accepted")
	}
}
