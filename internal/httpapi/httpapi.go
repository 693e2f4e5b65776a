// Package httpapi is the serving protocol rdserver and rdproxy share,
// written once: the JSON error envelope, method routing with a structured
// 405, panic recovery, the admission gate, request parsing, the liveness
// and readiness probes, and the process loop (SIGHUP reload, a bounded
// SIGINT/SIGTERM drain). Each binary keeps only its handlers and the
// mapping of its own query failures to statuses.
//
// Every non-2xx response is {"error":{"code","message"}}. The codes this
// package answers itself are bad_request (400), method_not_allowed (405,
// with Allow), body_too_large (413), vertex_out_of_range (422), saturated
// (429, with a jittered Retry-After), internal (500, a recovered panic),
// and the caller's not-ready reason on /readyz (503).
//
// It imports only the standard library and internal/debugsrv, which is
// stdlib-only itself.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"landmarkrd/internal/debugsrv"
)

// DefaultMaxBody caps a JSON request body when the caller sets no cap.
const DefaultMaxBody = 1 << 20

// Retry-After jitter band for 429 responses, in whole seconds. Randomizing
// the hint keeps a herd of rejected clients from re-arriving in the same
// instant.
const (
	RetryAfterMin = 1
	RetryAfterMax = 3
)

// ErrorBody is the structured envelope every non-2xx response carries.
type ErrorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// Server is one binary's side of the protocol: where it logs, what counts
// its recovered panics, and its admission gate.
type Server struct {
	// Logger receives envelope write failures, reload outcomes and
	// shutdown notices. Tests swap it to capture output.
	Logger *log.Logger

	onPanic func()
	timeout time.Duration
	slots   chan struct{}

	rngMu sync.Mutex
	rng   *rand.Rand
}

// New returns the protocol for one binary. name prefixes its log lines;
// the admission gate holds slots concurrent requests, each under timeout
// (0 disables it); onPanic ticks the caller's panic counter; seed drives
// the Retry-After jitter.
func New(name string, slots int, timeout time.Duration, seed uint64, onPanic func()) *Server {
	return &Server{
		Logger:  log.New(os.Stderr, name+": ", 0),
		onPanic: onPanic,
		timeout: timeout,
		slots:   make(chan struct{}, slots),
		rng:     rand.New(rand.NewSource(int64(seed))),
	}
}

// Error writes the JSON error envelope. An encode failure after the status
// line is on the wire cannot reach the client, but it must not vanish: a
// half-written envelope is a protocol violation worth an operator's
// attention, so it goes to the logger.
func (s *Server) Error(w http.ResponseWriter, status int, code, msg string) {
	var body ErrorBody
	body.Error.Code, body.Error.Message = code, msg
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(body); err != nil {
		s.Logger.Printf("writing %d %s error envelope: %v", status, code, err)
	}
}

// WriteJSON writes v as an indented JSON 200.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client left mid-body; nobody is left to tell
}

// Routes builds the binary's handler. Each key of routes is a method
// pattern, "GET /path" (which also matches HEAD) or "POST /path", one
// method per path, and its handler runs behind the admission gate. GET /healthz, GET /readyz and
// GET /debug/vars are added unadmitted; /readyz answers 503 with the code
// and message notReady returns while that code is non-empty. Any other
// method on a registered path gets the JSON 405 with an Allow header, and a
// panic escaping any handler becomes a 500 internal.
func (s *Server) Routes(notReady func() (code, msg string), routes map[string]http.HandlerFunc) http.Handler {
	mux := http.NewServeMux()
	s.handle(mux, "GET /healthz", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeText(w, "ok")
	}))
	s.handle(mux, "GET /readyz", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if code, msg := notReady(); code != "" {
			s.Error(w, http.StatusServiceUnavailable, code, msg)
			return
		}
		writeText(w, "ready")
	}))
	s.handle(mux, "GET /debug/vars", expvar.Handler())
	for pattern, h := range routes {
		s.handle(mux, pattern, s.admit(h))
	}
	return s.recoverer(mux)
}

// handle registers h under a method pattern and the bare path's JSON 405,
// which the mux reaches only when no method pattern matched.
func (s *Server) handle(mux *http.ServeMux, pattern string, h http.Handler) {
	method, path, _ := strings.Cut(pattern, " ")
	allow := method
	if method == http.MethodGet {
		allow = "GET, HEAD"
	}
	mux.Handle(pattern, h)
	mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		s.Error(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("method %s not allowed on %s (allowed: %s)", r.Method, r.URL.Path, allow))
	})
}

func writeText(w http.ResponseWriter, text string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, text)
}

// recoverer is the outermost middleware: a panic that escapes a handler is
// answered with a structured 500 instead of a dropped connection.
func (s *Server) recoverer(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.onPanic()
				s.Error(w, http.StatusInternalServerError, "internal", fmt.Sprintf("internal error: %v", v))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// admit runs h behind the admission gate. A request that finds every slot
// taken is rejected at once with 429 and a jittered Retry-After rather
// than queued — its deadline is better spent retrying elsewhere. An
// admitted request runs under a context that ends when the client leaves
// or the per-request timeout elapses, whichever is first.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.TryAcquire() {
			w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfter()))
			s.Error(w, http.StatusTooManyRequests, "saturated", "server at capacity")
			return
		}
		defer s.Release()
		if s.timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}

// TryAcquire takes an admission slot without blocking and reports whether
// one was free.
func (s *Server) TryAcquire() bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release frees a slot TryAcquire took.
func (s *Server) Release() { <-s.slots }

// Occupancy reports how many admission slots are taken and how many exist.
func (s *Server) Occupancy() (taken, slots int) { return len(s.slots), cap(s.slots) }

// RetryAfter draws a Retry-After hint, in seconds, from the jitter band.
func (s *Server) RetryAfter() int {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return RetryAfterMin + s.rng.Intn(RetryAfterMax-RetryAfterMin+1)
}

// ErrOutOfRange marks a well-formed request naming a vertex outside the
// graph: semantically unanswerable, so a 422 rather than a 400.
var ErrOutOfRange = errors.New("vertex out of range")

// RequestError answers a request that failed parsing or validation: 413
// for a body over its cap, 422 for a vertex outside the graph, 400 for
// anything else.
func (s *Server) RequestError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		s.Error(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
	case errors.Is(err, ErrOutOfRange):
		s.Error(w, http.StatusUnprocessableEntity, "vertex_out_of_range", err.Error())
	default:
		s.Error(w, http.StatusBadRequest, "bad_request", err.Error())
	}
}

// IntParam reads the integer query parameter name.
func IntParam(r *http.Request, name string) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("query parameter %q: %v", name, err)
	}
	return v, nil
}

// Vertex checks that v names one of a graph's n vertices.
func Vertex(v, n int) error {
	if v < 0 || v >= n {
		return fmt.Errorf("%w: vertex %d not in [0, %d)", ErrOutOfRange, v, n)
	}
	return nil
}

// PairParams reads the s and t query parameters and checks both against a
// graph of n vertices.
func PairParams(r *http.Request, n int) (s, t int, err error) {
	if s, err = IntParam(r, "s"); err != nil {
		return 0, 0, err
	}
	if t, err = IntParam(r, "t"); err != nil {
		return 0, 0, err
	}
	if err = Vertex(s, n); err != nil {
		return 0, 0, err
	}
	if err = Vertex(t, n); err != nil {
		return 0, 0, err
	}
	return s, t, nil
}

// DecodeJSON decodes r's JSON body into v, reading at most limit bytes
// (limit <= 0 means DefaultMaxBody). A body over the cap fails with an
// error wrapping *http.MaxBytesError, which RequestError answers with 413.
func DecodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	if limit <= 0 {
		limit = DefaultMaxBody
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v); err != nil {
		return fmt.Errorf("bad JSON body: %w", err)
	}
	return nil
}

// Pair is one entry of a {"pairs":[{"s":..,"t":..},...]} batch body.
type Pair struct {
	S int `json:"s"`
	T int `json:"t"`
}

// DecodePairs decodes a batch body (capped as DecodeJSON caps it) and
// checks it is non-empty and names only vertices of a graph of n.
func DecodePairs(w http.ResponseWriter, r *http.Request, limit int64, n int) ([]Pair, error) {
	var req struct {
		Pairs []Pair `json:"pairs"`
	}
	if err := DecodeJSON(w, r, limit, &req); err != nil {
		return nil, err
	}
	if len(req.Pairs) == 0 {
		return nil, errors.New("empty batch")
	}
	for i, p := range req.Pairs {
		if err := Vertex(p.S, n); err != nil {
			return nil, fmt.Errorf("pairs[%d].s: %w", i, err)
		}
		if err := Vertex(p.T, n); err != nil {
			return nil, fmt.Errorf("pairs[%d].t: %w", i, err)
		}
	}
	return req.Pairs, nil
}

// WatchReload calls reload once per signal on ch until ch is closed. A
// failed reload is logged and leaves the caller's current state serving.
func (s *Server) WatchReload(ch <-chan os.Signal, reload func() error) {
	for range ch {
		s.Logger.Print("SIGHUP, reloading")
		if err := reload(); err != nil {
			s.Logger.Printf("reload failed, keeping the current state: %v", err)
		}
	}
}

// Run is the process loop. It serves h on addr, and expvar plus pprof on
// debugAddr when that is set; it reloads on every SIGHUP and runs each loop
// until shutdown begins. On SIGINT or SIGTERM it stops accepting and lets
// in-flight requests finish for up to drain before returning.
func (s *Server) Run(addr, debugAddr string, drain time.Duration, h http.Handler, reload func() error, loops ...func(context.Context)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	dbg, err := debugsrv.Start(debugAddr)
	if err != nil {
		ln.Close()
		return err
	}
	if a := dbg.Addr(); a != "" {
		s.Logger.Printf("debug endpoint on http://%s/debug/vars", a)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go s.WatchReload(hup, reload)
	for _, loop := range loops {
		go loop(ctx)
	}
	return s.serve(ctx, ln, h, drain, dbg)
}

// serve serves h on ln until ctx is done, then shuts it and the debug
// endpoint down gracefully, waiting up to drain for in-flight requests.
func (s *Server) serve(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration, dbg *debugsrv.Server) error {
	srv := &http.Server{Handler: h}
	drained := make(chan error, 1)
	go func() {
		<-ctx.Done()
		s.Logger.Print("shutting down, draining in-flight requests")
		drainCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		drained <- errors.Join(srv.Shutdown(drainCtx), dbg.Shutdown(drainCtx))
	}()
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-drained
}
