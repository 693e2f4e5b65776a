package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// newTestServer returns a protocol instance logging into buf, with its
// panic counter.
func newTestServer(slots int, timeout time.Duration) (*Server, *atomic.Int64, *bytes.Buffer) {
	var panics atomic.Int64
	var buf bytes.Buffer
	s := New("test", slots, timeout, 1, func() { panics.Add(1) })
	s.Logger = log.New(&buf, "", 0)
	return s, &panics, &buf
}

// do serves one request through h and decodes the error envelope, if any.
func do(h http.Handler, method, target, body string) (*httptest.ResponseRecorder, ErrorBody) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	var env ErrorBody
	json.Unmarshal(rec.Body.Bytes(), &env)
	return rec, env
}

func ok(w http.ResponseWriter, r *http.Request) { WriteJSON(w, map[string]int{"ok": 1}) }

// TestMethodNotAllowed: every registered path — routes, probes and
// /debug/vars alike — answers its own method (GET also matching HEAD) and
// turns every other method into the JSON 405 with an Allow header.
func TestMethodNotAllowed(t *testing.T) {
	s, _, _ := newTestServer(4, 0)
	h := s.Routes(func() (string, string) { return "", "" }, map[string]http.HandlerFunc{
		"GET /get":   ok,
		"POST /post": ok,
	})
	cases := []struct {
		method, path string
		status       int
		allow        string
	}{
		{http.MethodGet, "/get", http.StatusOK, ""},
		{http.MethodHead, "/get", http.StatusOK, ""},
		{http.MethodPost, "/post", http.StatusOK, ""},
		{http.MethodGet, "/healthz", http.StatusOK, ""},
		{http.MethodHead, "/readyz", http.StatusOK, ""},
		{http.MethodGet, "/debug/vars", http.StatusOK, ""},
		{http.MethodPost, "/get", http.StatusMethodNotAllowed, "GET, HEAD"},
		{http.MethodDelete, "/get", http.StatusMethodNotAllowed, "GET, HEAD"},
		{http.MethodGet, "/post", http.StatusMethodNotAllowed, "POST"},
		{http.MethodPut, "/post", http.StatusMethodNotAllowed, "POST"},
		{http.MethodPost, "/healthz", http.StatusMethodNotAllowed, "GET, HEAD"},
		{http.MethodDelete, "/readyz", http.StatusMethodNotAllowed, "GET, HEAD"},
		{http.MethodPut, "/debug/vars", http.StatusMethodNotAllowed, "GET, HEAD"},
	}
	for _, tc := range cases {
		rec, env := do(h, tc.method, tc.path, "{}")
		if rec.Code != tc.status {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, rec.Code, tc.status)
			continue
		}
		if tc.status != http.StatusMethodNotAllowed {
			continue
		}
		if got := rec.Header().Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.allow)
		}
		if env.Error.Code != "method_not_allowed" || !strings.Contains(env.Error.Message, tc.allow) {
			t.Errorf("%s %s: envelope %+v, want method_not_allowed naming %q", tc.method, tc.path, env.Error, tc.allow)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q, want application/json", tc.method, tc.path, ct)
		}
	}
}

// TestSaturatedJitterBand: with every slot taken, each request is refused
// at once with 429 saturated and a Retry-After inside the jitter band,
// and the hints actually vary; the probes stay outside the gate.
func TestSaturatedJitterBand(t *testing.T) {
	s, _, _ := newTestServer(1, 0)
	var reached atomic.Int64
	h := s.Routes(func() (string, string) { return "", "" }, map[string]http.HandlerFunc{
		"GET /q": func(w http.ResponseWriter, r *http.Request) { reached.Add(1) },
	})
	if !s.TryAcquire() {
		t.Fatal("fresh gate has no free slot")
	}
	defer s.Release()
	if taken, slots := s.Occupancy(); taken != 1 || slots != 1 {
		t.Fatalf("Occupancy = (%d, %d), want (1, 1)", taken, slots)
	}
	seen := map[int]bool{}
	for i := 0; i < 50; i++ {
		rec, env := do(h, http.MethodGet, "/q", "")
		if rec.Code != http.StatusTooManyRequests || env.Error.Code != "saturated" || env.Error.Message == "" {
			t.Fatalf("request %d: status %d envelope %+v, want 429 saturated with a message", i, rec.Code, env.Error)
		}
		after, err := strconv.Atoi(rec.Header().Get("Retry-After"))
		if err != nil || after < RetryAfterMin || after > RetryAfterMax {
			t.Fatalf("request %d: Retry-After %q, want an int in [%d, %d]", i, rec.Header().Get("Retry-After"), RetryAfterMin, RetryAfterMax)
		}
		seen[after] = true
	}
	if len(seen) < 2 {
		t.Errorf("50 Retry-After hints took only the values %v; want jitter", seen)
	}
	if reached.Load() != 0 {
		t.Error("a saturated request reached its handler")
	}
	if rec, _ := do(h, http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK {
		t.Errorf("/healthz under saturation: status %d, want 200", rec.Code)
	}
}

// TestAdmitTimeout: an admitted request runs under the per-request
// timeout, and its slot is free again once the handler returns.
func TestAdmitTimeout(t *testing.T) {
	s, _, _ := newTestServer(2, 50*time.Millisecond)
	var left time.Duration
	h := s.Routes(func() (string, string) { return "", "" }, map[string]http.HandlerFunc{
		"GET /q": func(w http.ResponseWriter, r *http.Request) {
			dl, ok := r.Context().Deadline()
			if !ok {
				t.Error("admitted request has no deadline")
			}
			left = time.Until(dl)
		},
	})
	if rec, _ := do(h, http.MethodGet, "/q", ""); rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", rec.Code)
	}
	if left <= 0 || left > 50*time.Millisecond {
		t.Errorf("deadline %v away, want within the 50ms timeout", left)
	}
	if taken, _ := s.Occupancy(); taken != 0 {
		t.Errorf("%d slots still taken after the request finished", taken)
	}
}

// TestRequestErrorSplit: malformed input is a 400, a body over its cap a
// 413, and a well-formed request naming a vertex outside the graph a 422,
// on the query-parameter and the batch-body paths alike.
func TestRequestErrorSplit(t *testing.T) {
	const n = 10
	s, _, _ := newTestServer(4, 0)
	h := s.Routes(func() (string, string) { return "", "" }, map[string]http.HandlerFunc{
		"GET /pair": func(w http.ResponseWriter, r *http.Request) {
			if _, _, err := PairParams(r, n); err != nil {
				s.RequestError(w, err)
			}
		},
		"POST /batch": func(w http.ResponseWriter, r *http.Request) {
			if _, err := DecodePairs(w, r, 64, n); err != nil {
				s.RequestError(w, err)
			}
		},
	})
	cases := []struct {
		name, method, target, body string
		status                     int
		code                       string
	}{
		{"pair ok", http.MethodGet, "/pair?s=0&t=9", "", http.StatusOK, ""},
		{"missing s", http.MethodGet, "/pair?t=5", "", http.StatusBadRequest, "bad_request"},
		{"non-integer s", http.MethodGet, "/pair?s=a&t=5", "", http.StatusBadRequest, "bad_request"},
		{"missing t", http.MethodGet, "/pair?s=5", "", http.StatusBadRequest, "bad_request"},
		{"t out of range", http.MethodGet, "/pair?s=0&t=10", "", http.StatusUnprocessableEntity, "vertex_out_of_range"},
		{"negative s", http.MethodGet, "/pair?s=-1&t=3", "", http.StatusUnprocessableEntity, "vertex_out_of_range"},
		{"batch ok", http.MethodPost, "/batch", `{"pairs":[{"s":0,"t":9}]}`, http.StatusOK, ""},
		{"malformed body", http.MethodPost, "/batch", "{not json", http.StatusBadRequest, "bad_request"},
		{"empty batch", http.MethodPost, "/batch", `{"pairs":[]}`, http.StatusBadRequest, "bad_request"},
		{"body over cap", http.MethodPost, "/batch", `{"pairs":[` + strings.Repeat(`{"s":0,"t":1},`, 10) + `{"s":0,"t":1}]}`, http.StatusRequestEntityTooLarge, "body_too_large"},
		{"batch t out of range", http.MethodPost, "/batch", `{"pairs":[{"s":0,"t":1},{"s":2,"t":99}]}`, http.StatusUnprocessableEntity, "vertex_out_of_range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, env := do(h, tc.method, tc.target, tc.body)
			if rec.Code != tc.status || env.Error.Code != tc.code {
				t.Errorf("status %d code %q, want %d %q (body %s)", rec.Code, env.Error.Code, tc.status, tc.code, rec.Body.String())
			}
		})
	}
}

// failingWriter is a ResponseWriter whose body writes always fail.
type failingWriter struct {
	header http.Header
	status int
}

func (f *failingWriter) Header() http.Header { return f.header }
func (f *failingWriter) WriteHeader(s int)   { f.status = s }
func (f *failingWriter) Write([]byte) (int, error) {
	return 0, errors.New("wire torn")
}

// TestErrorLogsEncodeFailure: an envelope that cannot be written reaches
// the caller's logger with its status, code and cause.
func TestErrorLogsEncodeFailure(t *testing.T) {
	s, _, logged := newTestServer(1, 0)
	w := &failingWriter{header: make(http.Header)}
	s.Error(w, http.StatusTooManyRequests, "saturated", "server at capacity")
	if w.status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.status)
	}
	for _, want := range []string{"429", "saturated", "wire torn"} {
		if !strings.Contains(logged.String(), want) {
			t.Errorf("log %q does not mention %q", logged.String(), want)
		}
	}
}

// TestPanicRecovered: a panic escaping a handler becomes a 500 internal
// envelope, ticks the caller's panic counter, and leaves the server
// serving.
func TestPanicRecovered(t *testing.T) {
	s, panics, _ := newTestServer(1, 0)
	h := s.Routes(func() (string, string) { return "", "" }, map[string]http.HandlerFunc{
		"GET /boom": func(http.ResponseWriter, *http.Request) { panic("kaboom") },
		"GET /fine": ok,
	})
	rec, env := do(h, http.MethodGet, "/boom", "")
	if rec.Code != http.StatusInternalServerError || env.Error.Code != "internal" || !strings.Contains(env.Error.Message, "kaboom") {
		t.Fatalf("status %d envelope %+v, want 500 internal naming the panic", rec.Code, env.Error)
	}
	if panics.Load() != 1 {
		t.Errorf("panic counter = %d, want 1", panics.Load())
	}
	// The panicking request released its admission slot.
	if rec, _ := do(h, http.MethodGet, "/fine", ""); rec.Code != http.StatusOK {
		t.Errorf("request after the panic: status %d, want 200", rec.Code)
	}
}

// TestReadiness: /readyz answers 200 while the caller reports no reason,
// and 503 with the caller's own code and message otherwise; /healthz does
// not depend on readiness.
func TestReadiness(t *testing.T) {
	s, _, _ := newTestServer(1, 0)
	var code, msg string
	h := s.Routes(func() (string, string) { return code, msg }, nil)
	cases := []struct {
		code, msg string
		status    int
	}{
		{"", "", http.StatusOK},
		{"not_ready", "rollout in progress", http.StatusServiceUnavailable},
		{"no_replicas", "no healthy replica", http.StatusServiceUnavailable},
		{"", "", http.StatusOK},
	}
	for _, tc := range cases {
		code, msg = tc.code, tc.msg
		rec, env := do(h, http.MethodGet, "/readyz", "")
		if rec.Code != tc.status {
			t.Errorf("reason %q: status %d, want %d", tc.code, rec.Code, tc.status)
		}
		if tc.code != "" && (env.Error.Code != tc.code || env.Error.Message != tc.msg) {
			t.Errorf("reason %q: envelope %+v, want the caller's code and message", tc.code, env.Error)
		}
		if tc.code == "" && rec.Body.String() != "ready\n" {
			t.Errorf("ready body %q, want \"ready\\n\"", rec.Body.String())
		}
		if rec, _ := do(h, http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK {
			t.Errorf("reason %q: /healthz status %d, want 200", tc.code, rec.Code)
		}
	}
}

// TestServeDrainsInflight: once the context is cancelled the listener
// stops accepting, but a request already in flight runs to completion and
// gets its answer before serve returns.
func TestServeDrainsInflight(t *testing.T) {
	s, _, _ := newTestServer(4, 0)
	entered, release := make(chan struct{}), make(chan struct{})
	h := s.Routes(func() (string, string) { return "", "" }, map[string]http.HandlerFunc{
		"GET /slow": func(w http.ResponseWriter, r *http.Request) {
			close(entered)
			<-release
			WriteJSON(w, "done")
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- s.serve(ctx, ln, h, 10*time.Second, nil) }()

	type reply struct {
		status int
		body   string
		err    error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			got <- reply{err: err}
			return
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- reply{resp.StatusCode, string(raw), err}
	}()
	<-entered
	cancel()

	select {
	case err := <-served:
		t.Fatalf("serve returned (%v) with a request still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	r := <-got
	if r.err != nil || r.status != http.StatusOK || strings.TrimSpace(r.body) != `"done"` {
		t.Fatalf("in-flight request got (%d, %q, %v), want 200 \"done\"", r.status, r.body, r.err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve after a clean drain: %v", err)
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Error("listener still accepting after the drain")
	}
}

// TestServeDrainBounded: a request that outlives the drain budget does not
// hold shutdown hostage; serve returns the drain deadline's error.
func TestServeDrainBounded(t *testing.T) {
	s, _, _ := newTestServer(4, 0)
	entered, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	h := s.Routes(func() (string, string) { return "", "" }, map[string]http.HandlerFunc{
		"GET /stuck": func(w http.ResponseWriter, r *http.Request) {
			close(entered)
			<-release
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.serve(ctx, ln, h, 50*time.Millisecond, nil) }()
	go func() {
		if resp, err := http.Get("http://" + ln.Addr().String() + "/stuck"); err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	cancel()
	select {
	case err := <-served:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("serve = %v, want the drain deadline", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not give up after the drain budget")
	}
}

// TestWatchReload: every signal runs one reload, a failure is logged and
// the loop goes on, and closing the channel ends it.
func TestWatchReload(t *testing.T) {
	s, _, logged := newTestServer(1, 0)
	ch := make(chan os.Signal, 3)
	ch <- syscall.SIGHUP
	ch <- syscall.SIGHUP
	ch <- syscall.SIGHUP
	close(ch)
	calls := 0
	s.WatchReload(ch, func() error {
		calls++
		if calls == 2 {
			return errors.New("corrupt snapshot")
		}
		return nil
	})
	if calls != 3 {
		t.Errorf("%d reloads for 3 signals", calls)
	}
	if got := strings.Count(logged.String(), "SIGHUP"); got != 3 {
		t.Errorf("%d SIGHUP log lines, want 3: %q", got, logged.String())
	}
	if !strings.Contains(logged.String(), "reload failed, keeping the current state: corrupt snapshot") {
		t.Errorf("failed reload not logged: %q", logged.String())
	}
}
