// Command rdquery answers ad-hoc resistance-distance queries on an
// edge-list graph file.
//
// Usage:
//
//	rdquery -graph g.txt -s 12 -t 99                  # exact (labels or CG)
//	rdquery -graph g.txt -s 12 -t 99 -method bipush   # landmark estimate
//	rdquery -graph g.txt -source 12 -topk 10          # single-source
//	rdquery -graph g.txt -source 12 -snapshot idx.snap  # reuse the index
//	rdquery -graph g.txt -s 12 -t 99 -method auto     # planned, as rdserver plans
//	rdquery -graph g.txt -s 12 -t 99 -method push -portfolio 4  # routed portfolio
//	rdquery -graph g.txt -source 12 -portfolio 4      # routed single-source
//
// A pair estimate is a one-query batch of a landmarkrd.BatchEngine, the
// engine rdserver serves /v1/pair from, so for the same method, seed and
// index it prints the value rdserver serves. At -portfolio 0 the engine
// selects one landmark; with -portfolio K it routes through a K-landmark
// portfolio: the landmark with the smallest cost-law score r(s,ℓ)+r(t,ℓ)
// answers, falling back across the members if it collides with an
// endpoint. A pair every landmark collides with is answered exactly.
// Single-source mode always reads a sketch-mode portfolio, and -portfolio 0
// means K=1: a single landmark column, which answers a source equal to its
// landmark by copying the column. -snapshot reads and writes the v3
// portfolio format; a snapshot in the retired v2 single-landmark format
// still loads, as K=1.
//
// The exact answer is landmarkrd.Exact's: elimination labels when the
// graph is within their fill budget (low treewidth: grids, road networks,
// trees), a grounded CG solve otherwise.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"time"

	landmarkrd "landmarkrd"
	"landmarkrd/internal/debugsrv"
)

type config struct {
	graphPath string
	s, t      int
	method    string
	seed      uint64
	walks     int
	theta     float64
	source    int
	topk      int
	workers   int
	portfolio int
	precond   string
	snapshot  string
	stats     bool
	debugAddr string
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.graphPath, "graph", "", "edge-list file (required)")
	flag.IntVar(&cfg.s, "s", -1, "source vertex (dense id)")
	flag.IntVar(&cfg.t, "t", -1, "sink vertex (dense id)")
	flag.StringVar(&cfg.method, "method", "exact", "exact|abwalk|push|bipush|auto (auto answers by the cheaper of routed bipush and one exact answer, as rdserver -method auto does)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "random seed")
	flag.IntVar(&cfg.walks, "walks", 0, "Monte Carlo walks (abwalk/bipush)")
	flag.Float64Var(&cfg.theta, "theta", 0, "push residual threshold")
	flag.IntVar(&cfg.source, "source", -1, "single-source mode: source vertex")
	flag.IntVar(&cfg.topk, "topk", 10, "single-source mode: closest vertices to print")
	flag.IntVar(&cfg.workers, "workers", 0, "index-build worker count (0 = GOMAXPROCS, 1 = sequential; results are seed-deterministic either way)")
	flag.IntVar(&cfg.portfolio, "portfolio", 0, "route through a K-landmark portfolio (pair mode: 0 = one index-free landmark; single-source mode: 0 means K=1)")
	flag.StringVar(&cfg.precond, "precond", "jacobi", "CG preconditioner for index builds and solves: none, jacobi, chol, or auto")
	flag.StringVar(&cfg.snapshot, "snapshot", "", "snapshot of the portfolio single-source and -portfolio K queries read (load if present, else build and save as v3)")
	flag.BoolVar(&cfg.stats, "stats", false, "print estimator/solver metrics after the query")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "serve expvar and pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rdquery:", err)
		os.Exit(1)
	}
}

func run(cfg config, out io.Writer) error {
	if cfg.graphPath == "" {
		return fmt.Errorf("-graph is required")
	}
	if _, err := landmarkrd.ParsePrecondMode(cfg.precond); err != nil {
		return err
	}
	landmarkrd.PublishMetrics("landmarkrd.solver", landmarkrd.SolverMetrics())
	dbg, err := debugsrv.Start(cfg.debugAddr)
	if err != nil {
		return err
	}
	defer dbg.Close()
	if addr := dbg.Addr(); addr != "" {
		fmt.Fprintf(out, "debug endpoint on http://%s/debug/vars\n", addr)
	}
	g, _, err := landmarkrd.LoadEdgeList(cfg.graphPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "loaded graph: n=%d m=%d weighted=%v\n", g.N(), g.M(), g.Weighted())

	if cfg.source >= 0 {
		return runSingleSource(g, cfg, out)
	}
	if cfg.s < 0 || cfg.t < 0 {
		return fmt.Errorf("need -s and -t (or -source for single-source mode)")
	}
	start := time.Now()
	value, err := runPair(g, cfg, out)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "r(%d,%d) = %.8f   [%s, %s]\n",
		cfg.s, cfg.t, value, cfg.method, time.Since(start).Round(time.Microsecond))
	if cfg.stats {
		fmt.Fprintf(out, "solver stats:\n%s\n", landmarkrd.SolverStats())
	}
	return nil
}

// runPair answers (s,t) with landmarkrd.Exact for -method exact, and
// otherwise as a one-query batch (see the package doc).
func runPair(g *landmarkrd.Graph, cfg config, out io.Writer) (float64, error) {
	if cfg.method == "exact" {
		return landmarkrd.Exact(g, cfg.s, cfg.t)
	}
	m, err := landmarkrd.ParseMethod(cfg.method)
	if err != nil {
		return 0, err
	}
	metrics := &landmarkrd.Metrics{}
	opts := landmarkrd.BatchOptions{
		Options: landmarkrd.Options{Seed: cfg.seed, Walks: cfg.walks, Theta: cfg.theta},
		Metrics: metrics,
	}
	if cfg.portfolio > 0 {
		p, build, err := portfolioIndex(g, cfg, out)
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(out, "portfolio k=%d landmarks=%v build=%s\n",
			p.K(), p.Landmarks, build.Round(time.Millisecond))
		opts.Portfolio = p
	}
	eng, err := landmarkrd.NewBatchEngine(g, m, opts)
	if err != nil {
		return 0, err
	}
	res, err := eng.Pairs([]landmarkrd.PairQuery{{S: cfg.s, T: cfg.t}})
	if err != nil {
		return 0, err
	}
	if res[0].Err != nil {
		return 0, res[0].Err
	}
	fmt.Fprintf(out, "plan: %v\n", eng.Plan())
	st := eng.Stats()
	switch {
	case st.ExactFallbacks > 0:
		fmt.Fprintln(out, "(every landmark is an endpoint; answered exactly)")
	case st.PlannedExact == 0: // a walk or push answer: name its landmark
		landmark := eng.Landmark()
		if p := eng.Portfolio(); p != nil {
			landmark = p.Landmarks[slices.IndexFunc(p.Stats().Routed, func(c int64) bool { return c > 0 })]
		}
		est := res[0].Estimate
		fmt.Fprintf(out, "landmark=%d walks=%d pushOps=%d converged=%v router_fallbacks=%d\n",
			landmark, est.Walks, est.PushOps, est.Converged, st.RouterFallbacks)
	}
	landmarkrd.PublishMetrics("landmarkrd.estimator", metrics)
	if cfg.stats {
		fmt.Fprintf(out, "estimator stats:\n%s\n", st)
	}
	return res[0].Estimate.Value, nil
}

// runSingleSource answers single-source through the portfolio's cheapest
// landmark for the source.
func runSingleSource(g *landmarkrd.Graph, cfg config, out io.Writer) error {
	p, build, err := portfolioIndex(g, cfg, out)
	if err != nil {
		return err
	}
	start := time.Now()
	all, landmark, err := landmarkrd.PortfolioSingleSource(p, cfg.source)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "portfolio build %s, query %s (k=%d, routed landmark=%d)\n",
		build.Round(time.Millisecond), time.Since(start).Round(time.Microsecond), p.K(), landmark)
	printClosest(all, cfg, out)
	return nil
}

// printClosest prints the -topk vertices nearest the source by resistance.
func printClosest(all []float64, cfg config, out io.Writer) {
	order := make([]int, 0, len(all))
	for u := range all {
		if u != cfg.source {
			order = append(order, u)
		}
	}
	sort.Slice(order, func(i, j int) bool { return all[order[i]] < all[order[j]] })
	topk := cfg.topk
	if topk > len(order) {
		topk = len(order)
	}
	fmt.Fprintf(out, "closest %d vertices to %d by resistance distance:\n", topk, cfg.source)
	for i := 0; i < topk; i++ {
		u := order[i]
		fmt.Fprintf(out, "  %3d. vertex %-8d r=%.6f\n", i+1, u, all[u])
	}
}

// portfolioIndex loads the -snapshot portfolio when the file exists (v3, or
// a v2 single-landmark snapshot upgraded to K=1; any other load failure —
// corruption, version skew, wrong graph — is fatal, never silently rebuilt
// over), and otherwise builds a -portfolio K sketch-mode portfolio (0 means
// 1), saving it back when -snapshot names a path. The reported duration is
// the build time, or zero for a snapshot load.
func portfolioIndex(g *landmarkrd.Graph, cfg config, out io.Writer) (*landmarkrd.PortfolioIndex, time.Duration, error) {
	if cfg.snapshot != "" {
		p, err := landmarkrd.LoadPortfolioIndex(cfg.snapshot, g)
		switch {
		case err == nil:
			fmt.Fprintf(out, "loaded portfolio snapshot %s (k=%d, landmarks=%v, mode=%s)\n",
				cfg.snapshot, p.K(), p.Landmarks, p.Mode)
			return p, 0, nil
		case errors.Is(err, os.ErrNotExist):
			// Build below and save.
		default:
			return nil, 0, err
		}
	}
	precond, err := landmarkrd.ParsePrecondMode(cfg.precond)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	p, err := landmarkrd.BuildPortfolioIndex(g, landmarkrd.PortfolioBuildOptions{
		K:    landmarkrd.ServingPortfolioK(cfg.portfolio),
		Mode: landmarkrd.DiagSketch, Seed: cfg.seed, Workers: cfg.workers, Precond: precond,
	})
	if err != nil {
		return nil, 0, err
	}
	build := time.Since(start)
	fmt.Fprintf(out, "preconditioners: %v\n", p.PrecondModes)
	if cfg.snapshot != "" {
		if err := landmarkrd.SavePortfolioIndex(p, cfg.snapshot); err != nil {
			return nil, 0, err
		}
		fmt.Fprintf(out, "saved portfolio snapshot to %s\n", cfg.snapshot)
	}
	return p, build, nil
}
