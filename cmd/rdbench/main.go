// Command rdbench runs the experiment suite that reproduces the paper's
// tables and figures (see DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	rdbench -exp all -scale small -queries 20
//	rdbench -exp e1a,e5 -scale medium -seed 7
//
// With -snapshot it instead runs a snapshot utility: build a K-landmark
// portfolio index for one graph and save it to a checksummed v3 snapshot
// file (or, when the file already exists, load and verify it against the
// graph). -snapshot-k 0, the default, builds K=1, a single landmark
// column; verification also accepts a file in the retired v2
// single-landmark format:
//
//	rdbench -snapshot idx.snap -snapshot-graph g.txt -snapshot-mode exact
//	rdbench -snapshot pf.snap -snapshot-graph g.txt -snapshot-mode sketch -snapshot-k 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	landmarkrd "landmarkrd"
	"landmarkrd/internal/debugsrv"
	"landmarkrd/internal/eval"
)

func main() {
	var (
		expFlag     = flag.String("exp", "all", "comma-separated experiment ids, or 'all' ("+strings.Join(eval.ExperimentIDs(), ",")+")")
		scaleFlag   = flag.String("scale", "small", "dataset scale: tiny|small|medium|large")
		seedFlag    = flag.Uint64("seed", 2023, "random seed")
		queriesFlag = flag.Int("queries", 20, "query pairs per dataset")
		workersFlag = flag.Int("workers", 0, "index-build worker count (0 = GOMAXPROCS, 1 = sequential; results are seed-deterministic either way)")
		csvFlag     = flag.String("csv", "", "directory to also write every table as CSV")
		debugFlag   = flag.String("debug-addr", "", "serve expvar and pprof on this address (e.g. localhost:6060)")
		snapFlag    = flag.String("snapshot", "", "snapshot utility mode: write (or verify) this v3 portfolio snapshot file instead of running experiments")
		snapGraph   = flag.String("snapshot-graph", "", "snapshot utility mode: edge-list graph to index")
		snapMode    = flag.String("snapshot-mode", "exact", "snapshot utility mode: diagonal builder (exact, mc, or sketch)")
		snapK       = flag.Int("snapshot-k", 0, "snapshot utility mode: portfolio size K (0 means 1, a single landmark column)")
		precondFlag = flag.String("precond", "jacobi", "CG preconditioner for exact builds: none, jacobi, chol, or auto")
	)
	flag.Parse()

	precond, err := landmarkrd.ParsePrecondMode(*precondFlag)
	if err != nil {
		fatal(err)
	}

	if *snapFlag != "" {
		if err := runSnapshot(*snapFlag, *snapGraph, *snapMode, *snapK, *seedFlag, *workersFlag, precond, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	landmarkrd.PublishMetrics("landmarkrd.solver", landmarkrd.SolverMetrics())
	dbg, err := debugsrv.Start(*debugFlag)
	if err != nil {
		fatal(err)
	}
	defer dbg.Close()
	if addr := dbg.Addr(); addr != "" {
		fmt.Fprintf(os.Stderr, "debug endpoint on http://%s/debug/vars\n", addr)
	}

	scale, err := eval.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	cfg := eval.ExpConfig{
		Scale:   scale,
		Seed:    *seedFlag,
		Queries: *queriesFlag,
		Workers: *workersFlag,
		Out:     os.Stdout,
		CSVDir:  *csvFlag,
	}
	if *csvFlag != "" {
		if err := os.MkdirAll(*csvFlag, 0o755); err != nil {
			fatal(err)
		}
	}
	ids := eval.ExperimentIDs()
	if *expFlag != "all" {
		ids = strings.Split(*expFlag, ",")
	}
	if err := runExperiments(ids, cfg, os.Stdout); err != nil {
		fatal(err)
	}
}

// runExperiments drives the selected experiments, writing progress markers
// and tables to out.
func runExperiments(ids []string, cfg eval.ExpConfig, out io.Writer) error {
	cfg.Out = out
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		fmt.Fprintf(out, "### experiment %s (scale=%s seed=%d queries=%d)\n", id, cfg.Scale, cfg.Seed, cfg.Queries)
		start := time.Now()
		if err := eval.RunExperiment(id, cfg); err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		fmt.Fprintf(out, "### %s done in %s\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// runSnapshot is the -snapshot utility: build a K-landmark portfolio (k 0
// means 1) for graph and save it to path as a v3 snapshot, or — when path
// already exists — load it back and verify the checksum and graph binding.
func runSnapshot(path, graphPath, mode string, k int, seed uint64, workers int, precond landmarkrd.PrecondMode, out io.Writer) error {
	if graphPath == "" {
		return fmt.Errorf("-snapshot requires -snapshot-graph")
	}
	diagMode, ok := map[string]landmarkrd.DiagMode{
		"exact": landmarkrd.DiagExactCG, "mc": landmarkrd.DiagMC, "sketch": landmarkrd.DiagSketch,
	}[mode]
	if !ok {
		return fmt.Errorf("unknown -snapshot-mode %q (want exact, mc, or sketch)", mode)
	}
	g, _, err := landmarkrd.LoadEdgeList(graphPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "loaded graph: n=%d m=%d weighted=%v\n", g.N(), g.M(), g.Weighted())

	if _, err := os.Stat(path); err == nil {
		start := time.Now()
		p, err := landmarkrd.LoadPortfolioIndex(path, g)
		if err != nil {
			return fmt.Errorf("verifying %s: %w", path, err)
		}
		fmt.Fprintf(out, "verified %s in %s: k=%d landmarks=%v mode=%s, checksum and graph binding OK\n",
			path, time.Since(start).Round(time.Millisecond), p.K(), p.Landmarks, p.Mode)
		return nil
	}

	start := time.Now()
	p, err := landmarkrd.BuildPortfolioIndex(g, landmarkrd.PortfolioBuildOptions{
		K:    landmarkrd.ServingPortfolioK(k),
		Mode: diagMode, Seed: seed, Workers: workers, Precond: precond,
	})
	if err != nil {
		return err
	}
	build := time.Since(start)
	if err := landmarkrd.SavePortfolioIndex(p, path); err != nil {
		return err
	}
	fmt.Fprintf(out, "built %s portfolio in %s (k=%d landmarks=%v precond=%v), saved to %s\n",
		mode, build.Round(time.Millisecond), p.K(), p.Landmarks, p.PrecondModes, path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rdbench:", err)
	os.Exit(1)
}
