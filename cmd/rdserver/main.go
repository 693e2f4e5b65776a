// Command rdserver serves resistance-distance queries over HTTP.
//
// Usage:
//
//	rdserver -graph g.txt -addr :8080 -timeout 2s
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
// -method auto, the default, plans every serving epoch: a seeded pilot of a
// few pairs models the work of routed BiPush and of one exact grounded
// solve per pair, and the epoch answers every pair by the cheaper path —
// bipush on hub graphs, exact on road-like ones. The plan is published in
// /debug/vars as landmarkrd.plan, and a /v1/pair reply's "method" names
// the path that answered ("degraded" for the degraded tier). -method
// abwalk, push, or bipush pins one estimator instead.
//
// Every query runs under the -timeout budget and is aborted mid-solve once
// it expires (504); with -degrade-below set, queries that start with too
// little budget left are answered by a cheap Monte Carlo tier and marked
// "degraded" with an error bound instead (on an exact-planned epoch the
// exact solve is the cheaper path and answers them). At most -max-inflight queries run
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
// The serving state is epoch-versioned: POST /v1/update appends an edge
// insertion or deletion to the current epoch's patch log of conductance
// deltas without blocking queries and without a solve, every query pins
// the epoch it started on, and a background re-base folds the log into a
// freshly built portfolio once -max-patches accumulate (or every
// -rebase-interval, if set), publishing the result as a new epoch. A
// removal of more conductance than the pair carries is refused with 422
// exceeds_conductance, one that would disconnect the graph with 422
// disconnecting, so every accepted log re-bases. A superseded epoch is
// retired only after its last in-flight query completes. SIGHUP reloads
// share the same epoch lifecycle. SIGINT or SIGTERM stops accepting new
// queries and drains the in-flight ones before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	landmarkrd "landmarkrd"
	"landmarkrd/internal/httpapi"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2) // the flag set has printed the error and the usage
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "rdserver:", err)
		os.Exit(1)
	}
}

// parseFlags reads the command line into a config. A malformed flag, an
// unknown -method included, is returned after the flag set has printed it
// with the usage; -h returns flag.ErrHelp.
func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	method := landmarkrd.Auto
	fs.Func("method", "estimator: auto, abwalk, push, or bipush (default auto: per epoch, the cheaper of routed bipush and one exact solve per pair)", func(s string) (err error) {
		method, err = landmarkrd.ParseMethod(s)
		return err
	})
	var (
		graphFlag    = fs.String("graph", "", "edge-list graph file (required)")
		addrFlag     = fs.String("addr", ":8080", "HTTP listen address")
		seedFlag     = fs.Uint64("seed", 1, "random seed")
		walksFlag    = fs.Int("walks", 0, "Monte Carlo walks per endpoint (0 = method default)")
		thetaFlag    = fs.Float64("theta", 0, "push residual threshold (0 = method default)")
		timeoutFlag  = fs.Duration("timeout", 5*time.Second, "per-query time budget (0 disables)")
		inflightFlag = fs.Int("max-inflight", 16, "max concurrent queries before 429")
		workersFlag  = fs.Int("workers", 0, "batch workers per request (0 = GOMAXPROCS)")
		indexFlag    = fs.String("index-mode", "none", "portfolio column builder (enables /v1/singlesource): exact, mc, sketch, or none")
		precondFlag  = fs.String("precond", "jacobi", "CG preconditioner for index builds and solves: none, jacobi, chol, or auto")
		portfolioKey = fs.Int("portfolio", 0, "portfolio size K with cost-law routing (0 means 1, a single landmark); needs -index-mode or -snapshot")
		snapshotFlag = fs.String("snapshot", "", "portfolio snapshot file: load if present (v3, or v2 as K=1), else build and save as v3; SIGHUP reloads it")
		retriesFlag  = fs.Int("retries", 3, "per-query attempt budget for transient failures (1 disables retries)")
		degradeFlag  = fs.Duration("degrade-below", 0, "answer with the degraded Monte Carlo tier when less than this budget remains (0 disables)")
		maxBodyFlag  = fs.Int64("max-body", httpapi.DefaultMaxBody, "max request body bytes (batch and update)")
		patchesFlag  = fs.Int("max-patches", 0, "re-base the index after this many live updates (0 = default 64, negative disables)")
		rebaseFlag   = fs.Duration("rebase-interval", 0, "also re-base pending live updates on this interval (0 disables)")
		landmarkFlag = fs.String("landmarks", "", "serve exactly these portfolio landmark vertices, comma-separated (a replica's shard subset; implies -portfolio)")
		cacheFlag    = fs.Int("cache", 0, "pair result cache entries, keyed on the epoch graph fingerprint (0 disables)")
		drainFlag    = fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight queries on shutdown")
		debugFlag    = fs.String("debug-addr", "", "also serve expvar and pprof on this address")
	)
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	return config{
		graphPath: *graphFlag,
		addr:      *addrFlag,
		drain:     *drainFlag,
		debugAddr: *debugFlag,
		server: serverConfig{
			method:       method,
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
	}, nil
}

type config struct {
	graphPath string
	addr      string
	drain     time.Duration
	debugAddr string
	server    serverConfig
}

func run(cfg config) error {
	if cfg.graphPath == "" {
		return fmt.Errorf("-graph is required")
	}
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

	// Optional periodic re-base of streamed updates, alongside the
	// -max-patches count trigger.
	var loops []func(context.Context)
	if cfg.server.rebaseInt > 0 {
		loops = append(loops, func(ctx context.Context) { srv.rebaseLoop(ctx, cfg.server.rebaseInt) })
	}
	eng := srv.eng()
	srv.api.Logger.Printf("serving %s queries (landmark %d, plan %v) on %s", cfg.server.method, eng.Landmark(), eng.Plan(), cfg.addr)
	err = srv.api.Run(cfg.addr, cfg.debugAddr, cfg.drain, srv.routes(), srv.reload, loops...)
	srv.live.Quiesce() // let an in-flight background re-base finish
	return err
}
