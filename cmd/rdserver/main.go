// Command rdserver serves resistance-distance queries over HTTP.
//
// Usage:
//
//	rdserver -graph g.txt -addr :8080 -method bipush -timeout 2s
//
// Endpoints:
//
//	GET  /v1/pair?s=12&t=99          one pair estimate
//	POST /v1/batch                   {"pairs":[{"s":12,"t":99},...]}
//	GET  /v1/singlesource?s=12       r(s, t) for every t (needs -index-mode)
//	POST /v1/update                  {"op":"add","s":12,"t":99,"weight":1.5}
//	GET  /healthz                    liveness probe (process is up)
//	GET  /readyz                     readiness probe (index built, not reloading)
//	GET  /debug/vars                 expvar, including engine metrics
//
// Every query runs under the -timeout budget and is aborted mid-solve once
// it expires (504); with -degrade-below set, queries that start with too
// little budget left are answered by a cheap Monte Carlo tier and marked
// "degraded" with an error bound instead. At most -max-inflight queries run
// concurrently; excess requests are rejected immediately with 429 (plus a
// jittered Retry-After) rather than queued. Transient per-query failures
// are retried up to -retries times with jittered backoff. With an
// -index-mode or a -snapshot the server answers from a K-landmark
// portfolio, K = -portfolio (0, the default, means K=1: a single landmark
// column): every pair query routes to the landmark with the smallest
// cost-law score r(s,ℓ)+r(t,ℓ) and /v1/singlesource reports which
// landmark answered. With neither, pairs are served index-free from one
// landmark and /v1/singlesource answers 501. -landmarks pins the portfolio
// to an explicit vertex list — the shard subset a replica serves behind an
// rdproxy coordinator. -cache N keeps the last N pair answers in a
// singleflight-deduplicated LRU keyed on the epoch graph's fingerprint, so
// a re-base or reload invalidates stale entries by construction. -snapshot
// loads the portfolio from a checksummed snapshot file (v3; a retired v2
// single-landmark file loads as K=1), or builds it and saves it as v3, and
// SIGHUP hot-reloads it without dropping in-flight queries; a snapshot
// whose K differs from -portfolio is refused at startup and on reload.
// Every endpoint answers a wrong HTTP method with a structured 405 and an
// Allow header.
//
// The serving state is epoch-versioned: POST /v1/update streams edge
// insertions and deletions onto the current epoch as Sherman-Morrison
// patches without blocking queries, every query pins the epoch it started
// on, and a background re-base folds the patch stack into a freshly built
// portfolio once -max-patches accumulate (or every -rebase-interval, if set),
// publishing the result as a new epoch. A superseded epoch is retired only
// after its last in-flight query completes. SIGHUP reloads share the same
// epoch lifecycle. SIGINT or SIGTERM stops accepting new queries and
// drains the in-flight ones before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	landmarkrd "landmarkrd"
	"landmarkrd/internal/debugsrv"
)

func main() {
	var (
		graphFlag    = flag.String("graph", "", "edge-list graph file (required)")
		addrFlag     = flag.String("addr", ":8080", "HTTP listen address")
		methodFlag   = flag.String("method", "bipush", "estimator: abwalk, push, or bipush")
		seedFlag     = flag.Uint64("seed", 1, "random seed")
		walksFlag    = flag.Int("walks", 0, "Monte Carlo walks per endpoint (0 = method default)")
		thetaFlag    = flag.Float64("theta", 0, "push residual threshold (0 = method default)")
		timeoutFlag  = flag.Duration("timeout", 5*time.Second, "per-query time budget (0 disables)")
		inflightFlag = flag.Int("max-inflight", 16, "max concurrent queries before 429")
		workersFlag  = flag.Int("workers", 0, "batch workers per request (0 = GOMAXPROCS)")
		indexFlag    = flag.String("index-mode", "none", "portfolio column builder (enables /v1/singlesource): exact, mc, sketch, or none")
		precondFlag  = flag.String("precond", "jacobi", "CG preconditioner for index builds and solves: none, jacobi, chol, or auto")
		portfolioKey = flag.Int("portfolio", 0, "portfolio size K with cost-law routing (0 means 1, a single landmark); needs -index-mode or -snapshot")
		snapshotFlag = flag.String("snapshot", "", "portfolio snapshot file: load if present (v3, or v2 as K=1), else build and save as v3; SIGHUP reloads it")
		retriesFlag  = flag.Int("retries", 3, "per-query attempt budget for transient failures (1 disables retries)")
		degradeFlag  = flag.Duration("degrade-below", 0, "answer with the degraded Monte Carlo tier when less than this budget remains (0 disables)")
		maxBodyFlag  = flag.Int64("max-body", 1<<20, "max batch request body bytes")
		patchesFlag  = flag.Int("max-patches", 0, "re-base the index after this many live updates (0 = default 64, negative disables)")
		rebaseFlag   = flag.Duration("rebase-interval", 0, "also re-base pending live updates on this interval (0 disables)")
		landmarkFlag = flag.String("landmarks", "", "serve exactly these portfolio landmark vertices, comma-separated (a replica's shard subset; implies -portfolio)")
		cacheFlag    = flag.Int("cache", 0, "pair result cache entries, keyed on the epoch graph fingerprint (0 disables)")
		drainFlag    = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight queries on shutdown")
		debugFlag    = flag.String("debug-addr", "", "also serve expvar and pprof on this address")
	)
	flag.Parse()
	if err := run(config{
		graphPath: *graphFlag,
		addr:      *addrFlag,
		methodStr: *methodFlag,
		drain:     *drainFlag,
		debugAddr: *debugFlag,
		server: serverConfig{
			seed:         *seedFlag,
			walks:        *walksFlag,
			theta:        *thetaFlag,
			timeout:      *timeoutFlag,
			maxInflight:  *inflightFlag,
			workers:      *workersFlag,
			indexMode:    *indexFlag,
			precond:      *precondFlag,
			portfolioK:   *portfolioKey,
			snapshot:     *snapshotFlag,
			retries:      *retriesFlag,
			degradeBelow: *degradeFlag,
			maxBody:      *maxBodyFlag,
			maxPatches:   *patchesFlag,
			rebaseInt:    *rebaseFlag,
			landmarks:    *landmarkFlag,
			cacheSize:    *cacheFlag,
		},
	}); err != nil {
		fmt.Fprintln(os.Stderr, "rdserver:", err)
		os.Exit(1)
	}
}

type config struct {
	graphPath string
	addr      string
	methodStr string
	drain     time.Duration
	debugAddr string
	server    serverConfig
}

func run(cfg config) error {
	if cfg.graphPath == "" {
		return fmt.Errorf("-graph is required")
	}
	method, ok := map[string]landmarkrd.Method{
		"abwalk": landmarkrd.AbWalk, "push": landmarkrd.Push, "bipush": landmarkrd.BiPush,
	}[cfg.methodStr]
	if !ok {
		return fmt.Errorf("unknown -method %q (want abwalk, push, or bipush)", cfg.methodStr)
	}
	cfg.server.method = method

	g, _, err := landmarkrd.LoadEdgeList(cfg.graphPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rdserver: loaded graph n=%d m=%d weighted=%v\n", g.N(), g.M(), g.Weighted())

	srv, err := newQueryServer(g, cfg.server)
	if err != nil {
		return err
	}
	landmarkrd.PublishMetrics("landmarkrd.engine", srv.metrics)
	landmarkrd.PublishMetrics("landmarkrd.solver", landmarkrd.SolverMetrics())

	dbg, err := debugsrv.Start(cfg.debugAddr)
	if err != nil {
		return err
	}
	if addr := dbg.Addr(); addr != "" {
		fmt.Fprintf(os.Stderr, "rdserver: debug endpoint on http://%s/debug/vars\n", addr)
	}

	httpSrv := &http.Server{Addr: cfg.addr, Handler: srv.routes()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP hot-reloads the index snapshot without dropping traffic.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go srv.watchReload(hup)

	// Optional periodic re-base of streamed updates, alongside the
	// -max-patches count trigger.
	if cfg.server.rebaseInt > 0 {
		go srv.rebaseLoop(ctx, cfg.server.rebaseInt)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "rdserver: shutting down, draining in-flight queries")
		drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
		defer cancel()
		err := httpSrv.Shutdown(drainCtx)
		srv.live.Quiesce() // let an in-flight background re-base finish
		if dbgErr := dbg.Shutdown(drainCtx); err == nil {
			err = dbgErr
		}
		shutdownErr <- err
	}()

	fmt.Fprintf(os.Stderr, "rdserver: serving %s queries (landmark %d) on %s\n",
		method, srv.eng().Landmark(), cfg.addr)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-shutdownErr
}
