// Command rdproxy coordinates a fleet of rdserver replicas, each serving a
// shard (subset of landmark positions) of one fleet-wide portfolio.
//
// Usage:
//
//	rdproxy -graph g.txt -replicas http://a:8080,http://b:8080 \
//	    -portfolio 8 -index-mode exact -addr :9090
//
// Endpoints:
//
//	GET  /v1/pair?s=12&t=99   one pair estimate, routed to the best shard
//	POST /v1/batch            {"pairs":[{"s":12,"t":99},...]}
//	GET  /healthz             liveness probe (process is up)
//	GET  /readyz              readiness probe (>=1 healthy replica, no rollout)
//	GET  /debug/vars          expvar, including routing and cache metrics
//
// The coordinator builds (or loads via -snapshot) the same fleet portfolio
// the replicas shard, assigns its landmark positions to replicas over a
// consistent-hash ring, and routes every pair query to the replica whose
// owned landmark minimizes the cost-law score r(s,ℓ)+r(t,ℓ). A replica
// that is unready (its /readyz fails the -health-interval poll), saturated
// (429), or erroring fails over to the next-cheapest landmark owner, then
// along the ring. -cache N keeps the last N answers in a singleflight
// LRU keyed on the graph fingerprint. SIGHUP re-reads the graph (and
// snapshot) and publishes the new fingerprint fleet-wide, retiring every
// cached answer of the old version. SIGINT/SIGTERM drains in-flight
// queries for up to -drain-timeout.
//
// The coordinator serves through internal/httpapi, the protocol the
// replicas speak too: every error is a {"error":{"code","message"}}
// envelope, a wrong method gets 405 with Allow, a batch body over 1 MiB
// gets 413 body_too_large, an impossible vertex 422, a handler panic a
// 500 internal (counted in panics), and queries beyond -max-inflight an
// immediate 429 with a jittered Retry-After.
//
// Resilience (DESIGN.md §14): each replica carries a circuit breaker over
// a -breaker-window sliding failure window (open shards are skipped until
// a half-open probe succeeds); -hedge-after races slow owners against the
// next-cheapest healthy one; every failover or hedge beyond a query's
// first attempt spends a token from the -retry-budget bucket (refilled at
// -retry-budget-ratio per admitted query) and an empty bucket fails fast
// with 503 + Retry-After; -health-hysteresis consecutive contrary probes
// are required before a replica's health bit flips.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	landmarkrd "landmarkrd"
)

func main() {
	var (
		graphFlag    = flag.String("graph", "", "edge-list graph file (required)")
		addrFlag     = flag.String("addr", ":9090", "HTTP listen address")
		replicasFlag = flag.String("replicas", "", "comma-separated replica base URLs (required)")
		portfolioKey = flag.Int("portfolio", 0, "fleet portfolio size (0 = one landmark per replica)")
		indexFlag    = flag.String("index-mode", "exact", "portfolio column builder: exact, mc, or sketch")
		snapshotFlag = flag.String("snapshot", "", "fleet portfolio snapshot: load if present, else build; SIGHUP re-reads it")
		seedFlag     = flag.Uint64("seed", 1, "portfolio build seed")
		cacheFlag    = flag.Int("cache", 0, "pair result cache entries, keyed on the graph fingerprint (0 disables)")
		timeoutFlag  = flag.Duration("timeout", 5*time.Second, "per-query budget including fan-out (0 = 30s transport default)")
		inflightFlag = flag.Int("max-inflight", 64, "max concurrent queries before 429")
		healthFlag   = flag.Duration("health-interval", 2*time.Second, "replica /readyz poll interval")
		hystFlag     = flag.Int("health-hysteresis", 2, "consecutive contrary probes before a replica flips up/down")
		hedgeFlag    = flag.Duration("hedge-after", 0, "hedge a pair query at the next-cheapest owner after this delay (0 disables)")
		attemptFlag  = flag.Duration("attempt-timeout", 0, "per-replica attempt cap so slow shards fail over early (0 = none)")
		budgetFlag   = flag.Int("retry-budget", 64, "failover/hedge token-bucket capacity (0 = unlimited)")
		ratioFlag    = flag.Float64("retry-budget-ratio", 0.1, "budget tokens refunded per admitted query, in [0,1]")
		breakerFlag  = flag.Duration("breaker-window", 10*time.Second, "per-replica circuit-breaker failure window and open cooldown (0 disables)")
		drainFlag    = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight queries on shutdown")
		debugFlag    = flag.String("debug-addr", "", "also serve expvar and pprof on this address")
	)
	flag.Parse()
	if err := run(*graphFlag, *addrFlag, *drainFlag, *debugFlag, proxyConfig{
		replicas:       splitReplicas(*replicasFlag),
		portfolioK:     *portfolioKey,
		indexMode:      *indexFlag,
		snapshot:       *snapshotFlag,
		seed:           *seedFlag,
		cacheSize:      *cacheFlag,
		timeout:        *timeoutFlag,
		maxInflight:    *inflightFlag,
		healthInt:      *healthFlag,
		healthHyst:     *hystFlag,
		hedgeAfter:     *hedgeFlag,
		attemptTimeout: *attemptFlag,
		retryBudget:    *budgetFlag,
		retryRatio:     *ratioFlag,
		breakerWindow:  *breakerFlag,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "rdproxy:", err)
		os.Exit(1)
	}
}

func splitReplicas(s string) []string {
	var out []string
	for _, r := range strings.Split(s, ",") {
		if r = strings.TrimSpace(r); r != "" {
			out = append(out, strings.TrimRight(r, "/"))
		}
	}
	return out
}

func run(graphPath, addr string, drain time.Duration, debugAddr string, cfg proxyConfig) error {
	if graphPath == "" {
		return fmt.Errorf("-graph is required")
	}
	p, err := newProxyServer(graphPath, cfg)
	if err != nil {
		return err
	}
	st := p.state.Load()
	fmt.Fprintf(os.Stderr, "rdproxy: fleet portfolio k=%d over %d replicas, graph version %#x, %s\n",
		st.pf.K(), len(p.replicas), st.fp, st.resolved)
	for _, r := range p.replicas {
		fmt.Fprintf(os.Stderr, "rdproxy:   %s owns positions %v\n", r.name, st.router.Owners()[r.name])
	}
	landmarkrd.PublishMetrics("landmarkrd.proxy", p.metrics)
	p.api.Logger.Printf("coordinating on %s", addr)
	return p.api.Run(addr, debugAddr, drain, p.routes(), p.reload, p.healthLoop)
}
