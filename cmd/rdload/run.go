package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	landmarkrd "landmarkrd"
	"landmarkrd/internal/cluster"
	"landmarkrd/internal/dynamic"
)

// config is one invocation's settings.
type config struct {
	root    string // the landmarkrd checkout
	out     string // BENCH_<workload>.json and TRACE_<workload>.jsonl
	build   string // server binaries, graph files and server logs
	seed    uint64
	seconds time.Duration
	trace   bool
	quick   bool
	conns   int // connections (or in-process callers) driving the load
	size    sizes
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run, as written to BENCH_<workload>.json.
type result struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Quick     bool             `json:"quick"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Extra     map[string]value `json:"extra,omitempty"`
	Samples   map[string]int   `json:"samples"`
	Problems  []string         `json:"problems,omitempty"`
	Env       env              `json:"env"`
	// Runs and Spread are set on a summary of several runs (rdload
	// summary): each metric is then their median, with its interquartile
	// range as a share of the median.
	Runs   int                `json:"runs,omitempty"`
	Spread map[string]float64 `json:"spread,omitempty"`
}

// runner carries one workload run.
type runner struct {
	cfg       config
	w         workload
	g         *landmarkrd.Graph // numbered as the servers load it
	graphPath string
	landmarks []int // the fleet portfolio's landmarks; no pair touches them
	res       *result
	tr        tracer
	t0        time.Time // the trace clock's zero
	wrong     bool      // some answer was wrong
}

// phase is what the timed phase of a run measured.
type phase struct {
	setups            []float64 // seconds per cold start
	samples           []sample
	start             time.Time
	pairMS            []float64 // latency of answered pairs (batch: call time per pair)
	pairs, sloMet     int       // pairs attempted, and answered within the limit
	attempted, failed int       // ops
	cpu               time.Duration
	rssMB             float64
	answers           []answer // answers with a known truth, in schedule order
}

// answer is an answered pair and the graph it was computed on.
type answer struct {
	pair
	value float64
	g     *landmarkrd.Graph
}

func runWorkload(ctx context.Context, cfg config, w workload) (*result, error) {
	r := &runner{cfg: cfg, w: w, t0: time.Now(), res: &result{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Trace: cfg.trace, Quick: cfg.quick,
		Metrics: map[string]value{}, Extra: map[string]value{}, Samples: map[string]int{},
	}}
	if err := r.loadGraph(); err != nil {
		return nil, err
	}
	var ph phase
	var err error
	switch w.kind {
	case fleetKind:
		ph, err = r.runFleet(ctx)
	case liveKind:
		ph, err = r.runLive(ctx)
	case batchKind:
		ph, err = r.runBatch(ctx)
	}
	if err != nil {
		return nil, err
	}
	r.res.Attempted, r.res.Failed = ph.attempted, ph.failed
	r.res.Samples["ops"] = ph.attempted
	r.res.Samples["pairs"] = ph.pairs
	if cfg.trace {
		if err := r.layers(ctx, ph); err != nil {
			return nil, err
		}
		if err := r.tr.write(filepath.Join(cfg.out, "TRACE_"+w.name+".jsonl")); err != nil {
			return nil, err
		}
	} else {
		r.endToEnd(ph)
	}
	r.checkComplete()
	r.res.Correct = !r.wrong && len(r.res.Problems) == 0
	r.res.Env = currentEnv(cfg)
	return r.res, nil
}

// loadGraph writes the workload's graph and reads it back the way the
// servers do, so vertex numbers agree.
func (r *runner) loadGraph() error {
	g, err := r.w.graph.generate()
	if err != nil {
		return err
	}
	r.graphPath = filepath.Join(r.cfg.build, r.w.graph.name+".txt")
	if err := g.SaveEdgeList(r.graphPath); err != nil {
		return err
	}
	if r.g, _, err = landmarkrd.LoadEdgeList(r.graphPath); err != nil {
		return err
	}
	if !r.g.IsConnected() {
		return fmt.Errorf("graph %s is not connected", r.w.graph.name)
	}
	r.landmarks, err = landmarkrd.SelectPortfolioLandmarks(r.g, portfolioK, landmarkrd.Strategy(0), buildSeed)
	return err
}

func (r *runner) problem(format string, args ...any) {
	r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
}

// set records a metric defined in endToEnd or perLayer.
func (r *runner) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				r.res.Metrics[name] = value{v, d.unit}
				return
			}
		}
	}
	panic("rdload: undefined metric " + name)
}

// pct records a percentile metric, or a problem if the sample is too small.
func (r *runner) pct(name string, xs []float64, q float64) {
	v, err := percentile(xs, q, r.cfg.quick)
	if err != nil {
		r.problem("%s: %v", name, err)
		return
	}
	r.set(name, v)
}

// extra records a workload-specific number, when the sample supports it.
func (r *runner) extra(name, unit string, xs []float64, q float64) {
	if v, err := percentile(xs, q, r.cfg.quick); err == nil {
		r.res.Extra[name] = value{v, unit}
	}
}

// checkComplete makes a run that lacks a metric it must report incorrect.
func (r *runner) checkComplete() {
	defs := endToEnd
	if r.cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.res.Metrics[d.name]
		if !ok {
			r.problem("metric %s missing", d.name)
		} else if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.problem("metric %s is %v", d.name, v.Value)
		}
	}
}

// account tallies the timed phase's samples: failures, pair latencies,
// the SLO, and the answers whose truth is known: graphOf returns the graph
// an answer was computed on, or nil if that graph is unknown.
func (r *runner) account(ph *phase, graphOf func(sample) *landmarkrd.Graph) {
	for _, s := range ph.samples {
		ph.attempted++
		if s.op.Kind == opPair {
			ph.pairs++
		}
		if s.failed() {
			ph.failed++
			if s.wrong() {
				r.wrong = true
				r.problem("%v", s.err)
			}
			continue
		}
		if s.op.Kind != opPair {
			continue
		}
		ph.pairMS = append(ph.pairMS, s.ms())
		if s.ms() <= r.w.sloMS {
			ph.sloMet++
		}
		if g := graphOf(s); g != nil {
			ph.answers = append(ph.answers, answer{pair{s.op.S, s.op.T}, s.reply.Value, g})
		}
	}
	if ph.failed > 0 {
		r.problem("%d of %d ops failed; first: %v", ph.failed, ph.attempted, firstErr(ph.samples))
	}
}

func firstErr(samples []sample) error {
	for _, s := range samples {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// endToEnd computes the untraced run's metrics.
func (r *runner) endToEnd(ph phase) {
	r.set("setup_s", median(ph.setups))
	r.pct("pair_ms_p50", ph.pairMS, 0.5)
	r.pct("pair_ms_p90", ph.pairMS, 0.9)
	r.set("slo_ratio", float64(ph.sloMet)/float64(max(ph.pairs, 1)))
	r.set("cpu_ms_per_op", float64(ph.cpu)/1e6/float64(max(ph.attempted, 1)))
	r.set("rss_mb", ph.rssMB)
	errs := r.absErrors(ph.answers)
	r.res.Samples["truth"] = len(errs)
	r.pct("abs_err_p50", errs, 0.5)
	r.pct("abs_err_p90", errs, 0.9)
	if v, ok := r.res.Metrics["abs_err_p90"]; ok && v.Value > r.w.maxAbsErrP90 {
		r.wrong = true
		r.problem("abs_err_p90 %.4g exceeds the workload's ceiling %.4g", v.Value, r.w.maxAbsErrP90)
	}
	if r.w.kind == liveKind {
		var upd, ss []float64
		for _, s := range ph.samples {
			switch {
			case s.failed():
			case s.op.Kind == opUpdate:
				upd = append(upd, s.ms())
			case s.op.Kind == opSingleSource:
				ss = append(ss, s.ms())
			}
		}
		r.res.Samples["updates"], r.res.Samples["singlesource"] = len(upd), len(ss)
		r.extra("update_ms_p50", "ms", upd, 0.5)
		r.extra("singlesource_ms_p50", "ms", ss, 0.5)
	}
}

// absErrors returns |r̂ − r| against landmarkrd.Exact on the answer's
// graph for the first size.truth distinct answers, in schedule order, so
// a seed's errors repeat.
func (r *runner) absErrors(answers []answer) []float64 {
	type key struct {
		pair
		g *landmarkrd.Graph
	}
	seen := map[key]bool{}
	var errs []float64
	for _, a := range answers {
		k := key{pair{min(a.S, a.T), max(a.S, a.T)}, a.g}
		if seen[k] {
			continue
		}
		seen[k] = true
		exact, err := landmarkrd.Exact(a.g, a.S, a.T)
		if err != nil {
			r.problem("exact r(%d,%d): %v", a.S, a.T, err)
			continue
		}
		errs = append(errs, math.Abs(a.value-exact))
		if len(errs) == r.cfg.size.truth {
			break
		}
	}
	return errs
}

// server is one process of a workload's set-up.
type server struct {
	name, bin, url string
	args           []string
}

// startServer starts one server and times it from launch until /readyz
// answers 200.
func (r *runner) startServer(ctx context.Context, c *client, sv server) (*proc, time.Duration, error) {
	args := append([]string{"-graph", r.graphPath, "-addr", strings.TrimPrefix(sv.url, "http://")}, sv.args...)
	start := time.Now()
	p, err := startProc(sv.name, sv.url, filepath.Join(r.cfg.build, "bin", sv.bin), args,
		filepath.Join(r.cfg.build, r.w.name+"."+sv.name+".log"))
	if err != nil {
		return nil, 0, err
	}
	if err := p.waitReady(ctx, c, 2*time.Minute); err != nil {
		p.stop()
		return nil, 0, err
	}
	return p, time.Since(start), nil
}

// servers is a started set of server processes, stopped in reverse order.
type servers []*proc

func (ss *servers) stop() {
	for i := len(*ss) - 1; i >= 0; i-- {
		(*ss)[i].stop()
	}
	*ss = nil
}

// setups is how many cold starts a run times; a traced run needs no
// setup_s and starts once.
func (r *runner) setups() int {
	if r.cfg.trace {
		return 1
	}
	return r.cfg.size.setups
}

// coldStarts starts the servers r.setups() times, one at a time, timing
// each start from launch to ready, and leaves the last set running.
func (r *runner) coldStarts(ctx context.Context, c *client, procs *servers, set []server) ([]float64, error) {
	var times []float64
	for i := 0; i < r.setups(); i++ {
		procs.stop()
		var total time.Duration
		for _, sv := range set {
			p, d, err := r.startServer(ctx, c, sv)
			if err != nil {
				return nil, err
			}
			*procs = append(*procs, p)
			total += d
		}
		times = append(times, total.Seconds())
	}
	return times, nil
}

// shardLayout picks loopback ports for the replicas such that the proxy's
// consistent-hash ring gives replica i the i-th contiguous block of
// portfolio positions. The ring hashes the replica URLs, so fixing the
// layout keeps the shards, and the load split, the same in every run.
func shardLayout(landmarks []int) (urls []string, shards [][]int, err error) {
	for try := 0; try < 1000; try++ {
		urls = urls[:0]
		for i := 0; i < replicas; i++ {
			port, err := freePort()
			if err != nil {
				return nil, nil, err
			}
			urls = append(urls, baseURL(port))
		}
		rt, err := cluster.NewRouter(urls, len(landmarks), 0, func(j, s, t int) float64 { return 0 })
		if err != nil {
			return nil, nil, err
		}
		shards = make([][]int, replicas)
		per := (len(landmarks) + replicas - 1) / replicas
		ok := true
		for i, u := range urls {
			own := slices.Clone(rt.Owners()[u])
			slices.Sort(own)
			for k, j := range own {
				ok = ok && j == i*per+k
				shards[i] = append(shards[i], landmarks[j])
			}
		}
		if ok {
			return urls, shards, nil
		}
	}
	return nil, nil, errors.New("no port pair gives the canonical shard layout")
}

func (r *runner) runFleet(ctx context.Context) (phase, error) {
	urls, shards, err := shardLayout(r.landmarks)
	if err != nil {
		return phase{}, err
	}
	port, err := freePort()
	if err != nil {
		return phase{}, err
	}
	front := baseURL(port)
	var set []server
	for i, u := range urls {
		set = append(set, server{"replica" + strconv.Itoa(i), "rdserver", u,
			[]string{"-index-mode", "sketch", "-landmarks", joinInts(shards[i])}})
	}
	set = append(set, server{"proxy", "rdproxy", front, []string{"-replicas", strings.Join(urls, ","),
		"-portfolio", strconv.Itoa(portfolioK), "-index-mode", "sketch", "-cache", strconv.Itoa(cacheSize)}})

	c := newClient(r.cfg.conns, r.g.N())
	defer c.close()
	var procs servers
	defer procs.stop()
	var ph phase
	if ph.setups, err = r.coldStarts(ctx, c, &procs, set); err != nil {
		return phase{}, err
	}
	if err := r.warmUp(ctx, c, front); err != nil {
		return phase{}, err
	}
	ops := schedule(r.cfg.seed, r.g.N(), r.w.traffic, r.cfg.seconds, r.landmarks)
	vars0, err := r.engineCounters(ctx, c, procs[:replicas])
	if err != nil {
		return phase{}, err
	}
	if err := r.timed(ctx, &ph, procs, c, front, ops); err != nil {
		return phase{}, err
	}
	vars1, err := r.engineCounters(ctx, c, procs[:replicas])
	if err != nil {
		return phase{}, err
	}
	shardOf := map[string][]int{}
	for i, u := range urls {
		shardOf[u] = shards[i]
	}
	for _, s := range ph.samples {
		// A cache hit, or an answer shared with a concurrent identical
		// request, names no replica; a miss names the replica that
		// computed it and that replica's own landmark.
		named := s.reply.Replica != "" || s.reply.Cache == "miss"
		if s.err == nil && named && !slices.Contains(shardOf[s.reply.Replica], s.reply.Landmark) {
			r.wrong = true
			r.problem("pair (%d,%d) answered by %q with landmark %d, outside its shard", s.op.S, s.op.T, s.reply.Replica, s.reply.Landmark)
		}
	}
	r.account(&ph, func(sample) *landmarkrd.Graph { return r.g })
	if r.cfg.trace {
		r.traceFleet(ctx, c, ph, vars1.minus(vars0))
	}
	return ph, nil
}

func (r *runner) runLive(ctx context.Context) (phase, error) {
	port, err := freePort()
	if err != nil {
		return phase{}, err
	}
	front := baseURL(port)
	c := newClient(r.cfg.conns, r.g.N())
	defer c.close()
	var procs servers
	defer procs.stop()
	var ph phase
	set := []server{{"server", "rdserver", front, []string{"-index-mode", "mc", "-cache", strconv.Itoa(cacheSize)}}}
	if ph.setups, err = r.coldStarts(ctx, c, &procs, set); err != nil {
		return phase{}, err
	}
	epoch, live, err := r.goLive(ctx, c, front)
	if err != nil {
		return phase{}, err
	}
	ops := schedule(r.cfg.seed, r.g.N(), r.w.traffic, r.cfg.seconds, r.landmarks)
	vars0, err := r.engineCounters(ctx, c, procs)
	if err != nil {
		return phase{}, err
	}
	if err := r.timed(ctx, &ph, procs, c, front, ops); err != nil {
		return phase{}, err
	}
	vars1, err := r.engineCounters(ctx, c, procs)
	if err != nil {
		return phase{}, err
	}
	graphs, err := r.epochGraphs(ctx, c, front, ph.samples, epoch, live)
	if err != nil {
		return phase{}, err
	}
	r.account(&ph, func(s sample) *landmarkrd.Graph { return graphs[s.reply.Epoch] })
	if r.cfg.trace {
		r.traceLive(ph, vars1.minus(vars0))
	}
	return ph, nil
}

// epochGraphs returns the graphs of the epochs the timed phase's answers
// came from: the one goLive reached and, if the phase's updates started a
// re-base, the one it published. A re-base folds the patch stack as it
// stood when the re-base began into the graph, and the patches that
// arrive during the rebuild stay pending on the new epoch, so the folded
// updates are the first ones applied, less as many as are still pending.
func (r *runner) epochGraphs(ctx context.Context, c *client, front string, samples []sample, epoch uint64, live *landmarkrd.Graph) (map[uint64]*landmarkrd.Graph, error) {
	graphs := map[uint64]*landmarkrd.Graph{epoch: live}
	v, err := c.vars(ctx, front)
	if err != nil || v.Epoch != epoch+1 {
		return graphs, err
	}
	var applied []dynamic.Patch
	for _, s := range samples {
		if s.op.Kind == opUpdate && s.err == nil {
			w := updateWeight
			if s.op.Remove {
				w = -w
			}
			applied = append(applied, dynamic.Patch{A: s.op.S, B: s.op.T, W: w})
		}
	}
	if folded := len(applied) - v.Patches; folded >= 0 {
		if graphs[epoch+1], err = dynamic.MaterializeGraph(live, applied[:folded]); err != nil {
			return nil, err
		}
	}
	return graphs, nil
}

// maxPatches is rdserver's default -max-patches: the update that brings
// an epoch's patch stack to this depth starts a background re-base.
const maxPatches = 64

// goLive brings the server to the state of a replica that has been taking
// updates: it adds maxPatches edges one at a time, then waits for the
// re-base they start. A re-base makes the graph weighted, which changes
// the estimators' cost, so a timed phase starting on the base graph would
// measure two regimes, split wherever its first re-base fell. goLive
// returns the epoch the re-base published and that epoch's graph: the
// base graph with the added edges.
func (r *runner) goLive(ctx context.Context, c *client, front string) (uint64, *landmarkrd.Graph, error) {
	var patches []dynamic.Patch
	for _, e := range randomPairs(newRand(r.cfg.seed, "live-warmup"), r.g.N(), maxPatches, nil) {
		if _, err := c.do(ctx, front, op{Kind: opUpdate, S: e.S, T: e.T}); err != nil {
			return 0, nil, fmt.Errorf("going live: %w", err)
		}
		patches = append(patches, dynamic.Patch{A: e.S, B: e.T, W: updateWeight})
	}
	g, err := dynamic.MaterializeGraph(r.g, patches)
	if err != nil {
		return 0, nil, err
	}
	probe := op{Kind: opPair, S: patches[0].A, T: patches[0].B}
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	for {
		rep, err := c.do(ctx, front, probe)
		if err != nil {
			return 0, nil, fmt.Errorf("waiting for the re-base: %w", err)
		}
		if rep.Epoch > 1 {
			return rep.Epoch, g, nil
		}
		if err := sleep(ctx, 20*time.Millisecond); err != nil {
			return 0, nil, fmt.Errorf("waiting for the re-base: %w", err)
		}
	}
}

// warmUp fills the caches with closed-loop pair requests drawn like the
// timed phase's, so its hit ratio starts at steady state.
func (r *runner) warmUp(ctx context.Context, c *client, front string) error {
	count := min(r.w.warmup, r.cfg.size.warmupCap)
	if count == 0 {
		return nil
	}
	draw := pairDraw(r.cfg.seed, r.g.N(), r.w.traffic, r.landmarks)
	rng := newRand(r.cfg.seed, "warmup")
	ops := make([]op, count)
	for i := range ops {
		p := draw(rng)
		ops[i] = op{Kind: opPair, S: p.S, T: p.T}
	}
	samples, _ := openLoop(ctx, ops, r.cfg.conns, func(ctx context.Context, o op) (reply, error) { return c.do(ctx, front, o) })
	if err := firstErr(samples); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return ctx.Err()
}

// timed runs the open-loop phase against front and records the servers'
// CPU time and peak memory.
func (r *runner) timed(ctx context.Context, ph *phase, procs servers, c *client, front string, ops []op) error {
	cpu0, err := procsCPU(procs)
	if err != nil {
		return err
	}
	ph.samples, ph.start = openLoop(ctx, ops, r.cfg.conns, func(ctx context.Context, o op) (reply, error) {
		return c.do(ctx, front, o)
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	cpu1, err := procsCPU(procs)
	if err != nil {
		return err
	}
	ph.cpu = cpu1 - cpu0
	for _, p := range procs {
		mb, err := peakRSS(p.pid())
		if err != nil {
			return err
		}
		ph.rssMB += mb
	}
	return nil
}

func procsCPU(procs servers) (time.Duration, error) {
	var sum time.Duration
	for _, p := range procs {
		d, err := cpuTime(p.pid())
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// engineCounters sums the engine counters of the given servers; only a
// traced run reads them.
func (r *runner) engineCounters(ctx context.Context, c *client, procs servers) (counters, error) {
	var sum counters
	if !r.cfg.trace {
		return sum, nil
	}
	for _, p := range procs {
		v, err := c.vars(ctx, p.url)
		if err != nil {
			return counters{}, err
		}
		sum = sum.plus(v.Engine)
	}
	return sum, nil
}

func (r *runner) runBatch(ctx context.Context) (phase, error) {
	var ph phase
	var eng *landmarkrd.BatchEngine
	for i := 0; i < r.setups(); i++ {
		eng = nil // let the previous set-up's engine be collected first
		runtime.GC()
		start := time.Now()
		g, _, err := landmarkrd.LoadEdgeList(r.graphPath)
		if err != nil {
			return phase{}, err
		}
		pf, err := landmarkrd.BuildPortfolioIndex(g, landmarkrd.PortfolioBuildOptions{
			K: portfolioK, Mode: landmarkrd.DiagSketch, Seed: buildSeed})
		if err != nil {
			return phase{}, err
		}
		if eng, err = landmarkrd.NewBatchEngine(g, landmarkrd.BiPush, landmarkrd.BatchOptions{
			Portfolio: pf, Workers: runtime.GOMAXPROCS(0)}); err != nil {
			return phase{}, err
		}
		ph.setups = append(ph.setups, time.Since(start).Seconds())
	}
	stats0, solver0 := eng.Stats(), landmarkrd.SolverStats()
	rng := newRand(r.cfg.seed, "batch")
	var calls [][]landmarkrd.PairResult
	cpu0, err := cpuTime(os.Getpid())
	if err != nil {
		return phase{}, err
	}
	ph.samples, ph.start, err = closedLoop(ctx, r.cfg.seconds, func(ctx context.Context, i int) error {
		qs := make([]landmarkrd.PairQuery, r.w.batch)
		for j, p := range randomPairs(rng, r.g.N(), r.w.batch, r.landmarks) {
			qs[j] = landmarkrd.PairQuery{S: p.S, T: p.T}
		}
		res, err := eng.PairsContext(ctx, qs)
		calls = append(calls, res)
		return err
	})
	if err != nil {
		return phase{}, err
	}
	cpu1, err := cpuTime(os.Getpid())
	if err != nil {
		return phase{}, err
	}
	ph.cpu = cpu1 - cpu0
	if ph.rssMB, err = peakRSS(os.Getpid()); err != nil {
		return phase{}, err
	}
	for i, call := range calls {
		perPair := ph.samples[i].ms() / float64(r.w.batch)
		ph.pairMS = append(ph.pairMS, perPair)
		for _, pr := range call {
			ph.attempted++
			ph.pairs++
			if pr.Err != nil || !validResistance(pr.Estimate.Value) || pr.Degraded {
				ph.failed++
				r.wrong = true
				r.problem("batch pair (%d,%d): value %v, error %v", pr.S, pr.T, pr.Estimate.Value, pr.Err)
				continue
			}
			if perPair <= r.w.sloMS {
				ph.sloMet++
			}
			ph.answers = append(ph.answers, answer{pair{pr.S, pr.T}, pr.Estimate.Value, r.g})
		}
	}
	if r.cfg.trace {
		r.traceBatch(ph, countersOf(eng.Stats()).minus(countersOf(stats0)), landmarkrd.SolverStats().CGIterations-solver0.CGIterations)
	}
	return ph, nil
}

func countersOf(s landmarkrd.Stats) counters {
	c := counters{
		Queries: s.Queries, PushOps: s.PushOps, WalkSteps: s.WalkSteps, EstimatorBuilds: s.EstimatorBuilds,
		RouterFallbacks: s.RouterFallbacks, ExactFallbacks: s.ExactFallbacks, CGIterations: s.CGIterations,
	}
	c.QueryTime.Count, c.QueryTime.Sum = s.QueryTime.Count, s.QueryTime.Sum
	return c
}
