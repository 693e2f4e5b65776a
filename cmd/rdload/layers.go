package main

import (
	"context"
	"errors"
	"math"
	"runtime"
	"time"

	landmarkrd "landmarkrd"
)

// shares accumulates how the client's time per op splits over the layers
// below it, summed over the ops whose split is known.
type shares struct {
	total, proxy, server time.Duration
}

func (sh *shares) set(r *runner) {
	den := float64(max(sh.total, 1))
	r.set("rdproxy.time_share", float64(sh.proxy)/den)
	r.set("rdserver.time_share", float64(sh.server)/den)
}

// msDur converts milliseconds to a time.Duration.
func msDur(ms float64) time.Duration { return time.Duration(ms * 1e6) }

func durMS(d time.Duration) float64 { return float64(d) / 1e6 }

// offset is where the phase's sample times sit on the run's trace clock.
func (r *runner) offset(ph phase) time.Duration { return ph.start.Sub(r.t0) }

// traceFleet records each pair as rdload → rdproxy and replays proxied
// misses straight to the replica that answered, to split the proxy's part
// from the replica's. A replay must return the proxied value bit for bit.
func (r *runner) traceFleet(ctx context.Context, c *client, ph phase, delta counters) {
	base := r.offset(ph)
	var sh shares
	var hitMS, overheadMS, httpMS, engineMS []float64
	okPairs, hits, failovers, replayed := 0, 0, 0, 0
	missesBy := map[string]int{}
	for _, s := range ph.samples {
		if s.err != nil {
			continue
		}
		okPairs++
		failovers += s.reply.Failovers
		root := r.tr.root("rdload.pair", base+s.op.Due, base+s.end, map[string]any{"s": s.op.S, "t": s.op.T})
		req := r.tr.child(root, "rdproxy.pair", base+s.start, base+s.end, map[string]any{
			"cache": s.reply.Cache, "replica": s.reply.Replica, "landmark": s.reply.Landmark, "failovers": s.reply.Failovers})
		switch {
		case s.reply.Cache == "hit":
			hits++
			hitMS = append(hitMS, durMS(req.dur()))
			sh.total += root.dur()
			sh.proxy += req.dur()
		case s.reply.Cache == "miss" && replayed < r.cfg.size.replays:
			replayed++
			missesBy[s.reply.Replica]++
			from := time.Since(ph.start)
			rep, err := c.do(ctx, s.reply.Replica, s.op)
			to := time.Since(ph.start)
			if err != nil {
				r.wrong = r.wrong || errors.Is(err, errWrong)
				r.problem("replaying (%d,%d) to %s: %v", s.op.S, s.op.T, s.reply.Replica, err)
				continue
			}
			if math.Float64bits(rep.Value) != math.Float64bits(s.reply.Value) {
				r.wrong = true
				r.problem("pair (%d,%d): proxy answered %v, replica %s %v", s.op.S, s.op.T, s.reply.Value, s.reply.Replica, rep.Value)
			}
			srv := r.tr.child(req, "rdserver.pair", base+from, base+to, map[string]any{"replay": true, "elapsed_ms": rep.ElapsedMS})
			eng := r.tr.child(srv, "engine.pair", base+to-msDur(rep.ElapsedMS), base+to, nil)
			proxySelf, srvSelf := selfTime(req, []span{srv}), selfTime(srv, []span{eng})
			sh.total += root.dur()
			sh.proxy += proxySelf
			sh.server += srvSelf
			overheadMS = append(overheadMS, durMS(proxySelf))
			httpMS = append(httpMS, durMS(srvSelf))
			engineMS = append(engineMS, rep.ElapsedMS)
		}
	}
	sh.set(r)
	r.set("rcache.hit_ratio", float64(hits)/float64(max(okPairs, 1)))
	r.pct("engine.pair_ms_p50", engineMS, 0.5)
	r.pct("engine.pair_ms_p90", engineMS, 0.9)
	r.engineLayers(delta)
	r.extra("rdproxy.hit_ms_p50", "ms", hitMS, 0.5)
	r.extra("rdproxy.overhead_ms_p50", "ms", overheadMS, 0.5)
	r.extra("rdserver.http_ms_p50", "ms", httpMS, 0.5)
	busiest := 0
	for _, n := range missesBy {
		busiest = max(busiest, n)
	}
	r.res.Extra["rdproxy.failovers"] = value{float64(failovers), "count"}
	r.res.Extra["rdproxy.replica_share_max"] = value{float64(busiest) / float64(max(replayed, 1)), "frac"}
	r.res.Samples["replays"] = replayed
}

// traceLive records each op as rdload → rdserver, with the engine part the
// reply's elapsed_ms reports.
func (r *runner) traceLive(ph phase, delta counters) {
	base := r.offset(ph)
	var sh shares
	var engineMS, httpMS, updMS, ssMS, ssEncMS []float64
	okPairs, hits := 0, 0
	epochs := map[uint64]bool{}
	for _, s := range ph.samples {
		if s.err != nil {
			continue
		}
		kind := s.op.Kind.String()
		epochs[s.reply.Epoch] = true
		root := r.tr.root("rdload."+kind, base+s.op.Due, base+s.end, map[string]any{"s": s.op.S, "t": s.op.T})
		req := r.tr.child(root, "rdserver."+kind, base+s.start, base+s.end, map[string]any{
			"cache": s.reply.Cache, "epoch": s.reply.Epoch, "elapsed_ms": s.reply.ElapsedMS})
		eng := r.tr.child(req, "engine."+kind, base+s.end-msDur(s.reply.ElapsedMS), base+s.end, nil)
		srvSelf := selfTime(req, []span{eng})
		sh.total += root.dur()
		sh.server += srvSelf
		switch s.op.Kind {
		case opPair:
			okPairs++
			if s.reply.Cache == "hit" {
				hits++
				continue
			}
			engineMS = append(engineMS, s.reply.ElapsedMS)
			httpMS = append(httpMS, durMS(srvSelf))
		case opUpdate:
			updMS = append(updMS, s.reply.ElapsedMS)
		case opSingleSource:
			ssMS = append(ssMS, s.reply.ElapsedMS)
			ssEncMS = append(ssEncMS, durMS(srvSelf))
		}
	}
	sh.set(r)
	r.set("rcache.hit_ratio", float64(hits)/float64(max(okPairs, 1)))
	r.pct("engine.pair_ms_p50", engineMS, 0.5)
	r.pct("engine.pair_ms_p90", engineMS, 0.9)
	r.engineLayers(delta)
	r.extra("rdserver.http_ms_p50", "ms", httpMS, 0.5)
	r.extra("rdserver.update_engine_ms_p50", "ms", updMS, 0.5)
	r.extra("rdserver.singlesource_engine_ms_p50", "ms", ssMS, 0.5)
	r.extra("rdserver.singlesource_encode_ms_p50", "ms", ssEncMS, 0.5)
	r.res.Extra["rdserver.epochs"] = value{float64(len(epochs)), "count"}
}

// traceBatch records each PairsContext call; nothing sits between the
// caller and the engine.
func (r *runner) traceBatch(ph phase, delta counters, cgIters int64) {
	base := r.offset(ph)
	for i, s := range ph.samples {
		root := r.tr.root("rdload.batch", base+s.op.Due, base+s.end, map[string]any{"pairs": r.w.batch})
		r.tr.child(root, "landmarkrd.BatchEngine.PairsContext", base+s.start, base+s.end, map[string]any{"call": i})
	}
	r.set("rdproxy.time_share", 0)
	r.set("rdserver.time_share", 0)
	r.set("rcache.hit_ratio", 0)
	r.pct("engine.pair_ms_p50", ph.pairMS, 0.5)
	r.pct("engine.pair_ms_p90", ph.pairMS, 0.9)
	delta.CGIterations += cgIters
	r.engineLayers(delta)
}

// engineLayers reports the serving engine's own counters over the timed
// phase.
func (r *runner) engineLayers(d counters) {
	q := float64(max(d.Queries, 1))
	r.set("engine.estimator_builds", float64(d.EstimatorBuilds))
	r.set("engine.router_fallbacks", float64(d.RouterFallbacks))
	r.set("engine.exact_fallbacks", float64(d.ExactFallbacks))
	r.set("lap.cg_iterations", float64(d.CGIterations))
	r.set("core.query_ms_mean", float64(d.QueryTime.Sum)/1e6/float64(max(d.QueryTime.Count, 1)))
	r.set("walk.steps_per_query", float64(d.WalkSteps)/q)
	r.set("push.ops_per_query", float64(d.PushOps)/q)
}

// layers finishes a traced run: the generator's lag, then the in-process
// probes of each layer on the workload's graph.
func (r *runner) layers(ctx context.Context, ph phase) error {
	var lag []float64
	for _, s := range ph.samples {
		lag = append(lag, durMS(s.sent-s.op.Due))
	}
	r.pct("rdload.sched_lag_ms_p90", lag, 0.9)
	r.extra("traced.pair_ms_p50", "ms", ph.pairMS, 0.5)
	return r.probes(ctx)
}

// probeBatch is the pairs per PairsContext call of the batch probe, the
// same as batch-social's.
const probeBatch = 24

// probes times calls into each layer's public surface on the workload's
// graph, one goroutine at a time, the servers stopped: index builds,
// routing, the exact solver, each estimator at the pair's routed landmark,
// a batch engine and a live index.
func (r *runner) probes(ctx context.Context) error {
	g := r.g
	call := func(name string, attrs map[string]any, f func() error) (time.Duration, error) {
		from := time.Since(r.t0)
		err := f()
		to := time.Since(r.t0)
		r.tr.root(name, from, to, attrs)
		return to - from, err
	}

	var pf *landmarkrd.PortfolioIndex
	d, err := call("landmarkrd.BuildPortfolioIndex", map[string]any{"k": portfolioK, "mode": "sketch"}, func() (err error) {
		pf, err = landmarkrd.BuildPortfolioIndex(g, landmarkrd.PortfolioBuildOptions{K: portfolioK, Mode: landmarkrd.DiagSketch, Seed: buildSeed})
		return err
	})
	if err != nil {
		return err
	}
	r.set("core.build.sketch_s", d.Seconds())
	lm, err := landmarkrd.SelectLandmark(g, landmarkrd.Strategy(0), buildSeed)
	if err != nil {
		return err
	}
	d, err = call("landmarkrd.BuildLandmarkIndexOpts", map[string]any{"landmark": lm, "mode": "mc"}, func() error {
		_, err := landmarkrd.BuildLandmarkIndexOpts(g, lm, landmarkrd.IndexBuildOptions{Mode: landmarkrd.DiagMC, Seed: buildSeed})
		return err
	})
	if err != nil {
		return err
	}
	r.set("core.build.mc_s", d.Seconds())

	count := r.cfg.size.probePairs[0]
	if r.w.graph.name == roadGraph.name {
		count = r.cfg.size.probePairs[1]
	}
	pairs := randomPairs(newRand(r.cfg.seed, "probe"), g.N(), count, pf.Landmarks)

	var routeUS []float64
	routed := make([]int, len(pairs))
	for i := 0; i < 1000; i++ {
		p := pairs[i%len(pairs)]
		d, _ := call("core.Portfolio.Route", nil, func() error {
			routed[i%len(pairs)] = pf.Landmarks[pf.Route(p.S, p.T)[0]]
			return nil
		})
		routeUS = append(routeUS, float64(d)/1e3)
	}
	r.pct("core.portfolio.route_us", routeUS, 0.5)

	solver0 := landmarkrd.SolverStats()
	exact := make([]float64, len(pairs))
	var exactMS []float64
	for i, p := range pairs {
		d, err := call("landmarkrd.Exact", map[string]any{"s": p.S, "t": p.T}, func() (err error) {
			exact[i], err = landmarkrd.Exact(g, p.S, p.T)
			return err
		})
		if err != nil {
			return err
		}
		exactMS = append(exactMS, durMS(d))
	}
	solver1 := landmarkrd.SolverStats()
	r.pct("lap.exact_ms_p50", exactMS, 0.5)
	r.set("lap.cg_iters_per_solve", float64(solver1.CGIterations-solver0.CGIterations)/float64(max(solver1.CGSolves-solver0.CGSolves, 1)))

	for _, m := range []struct {
		name   string
		method landmarkrd.Method
	}{{"bipush", landmarkrd.BiPush}, {"abwalk", landmarkrd.AbWalk}, {"push", landmarkrd.Push}} {
		ests := map[int]*landmarkrd.Estimator{}
		var ms, errs, steps, ops []float64
		var stepSum, opSum, msSum float64
		for i, p := range pairs {
			est := ests[routed[i]]
			if est == nil {
				if est, err = landmarkrd.NewEstimatorAt(g, m.method, routed[i], landmarkrd.Options{Seed: buildSeed}); err != nil {
					return err
				}
				ests[routed[i]] = est
			}
			var e landmarkrd.Estimate
			d, err := call("landmarkrd.Estimator.Pair", map[string]any{"method": m.name, "landmark": routed[i], "s": p.S, "t": p.T}, func() (err error) {
				e, err = est.Pair(p.S, p.T)
				return err
			})
			if err != nil {
				return err
			}
			ms = append(ms, durMS(d))
			errs = append(errs, math.Abs(e.Value-exact[i]))
			steps = append(steps, float64(e.WalkSteps))
			ops = append(ops, float64(e.PushOps))
			stepSum, opSum, msSum = stepSum+float64(e.WalkSteps), opSum+float64(e.PushOps), msSum+durMS(d)
		}
		r.pct("core."+m.name+".pair_ms_p50", ms, 0.5)
		r.pct("core."+m.name+".abs_err_p50", errs, 0.5)
		switch m.name {
		case "bipush":
			r.set("core.bipush.walk_steps_mean", mean(steps))
			r.set("core.bipush.push_ops_mean", mean(ops))
		case "abwalk":
			r.set("core.abwalk.walk_steps_mean", mean(steps))
			r.set("walk.steps_per_ms", stepSum/msSum)
		case "push":
			r.set("core.push.push_ops_mean", mean(ops))
			r.set("push.ops_per_ms", opSum/msSum)
		}
	}

	eng, err := landmarkrd.NewBatchEngine(g, landmarkrd.BiPush, landmarkrd.BatchOptions{Portfolio: pf, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		return err
	}
	rng := newRand(r.cfg.seed, "probe-batch")
	var batchMS []float64
	for i := 0; i < r.cfg.size.probeCalls; i++ {
		qs := make([]landmarkrd.PairQuery, probeBatch)
		for j, p := range randomPairs(rng, g.N(), probeBatch, pf.Landmarks) {
			qs[j] = landmarkrd.PairQuery{S: p.S, T: p.T}
		}
		d, err := call("landmarkrd.BatchEngine.PairsContext", map[string]any{"pairs": probeBatch}, func() error {
			_, err := eng.PairsContext(ctx, qs)
			return err
		})
		if err != nil {
			return err
		}
		batchMS = append(batchMS, durMS(d))
	}
	r.pct("engine.batch_ms_p50", batchMS, 0.5)

	li, err := landmarkrd.NewLiveIndex(g, landmarkrd.LiveOptions{
		Method: landmarkrd.BiPush, Mode: landmarkrd.DiagMC, MaxPatches: -1, MaxPatchOverhead: -1})
	if err != nil {
		return err
	}
	defer li.Quiesce()
	var updMS []float64
	for _, e := range randomPairs(newRand(r.cfg.seed, "probe-updates"), g.N(), r.cfg.size.probeUpds, nil) {
		d, err := call("landmarkrd.LiveIndex.ApplyUpdate", map[string]any{"s": e.S, "t": e.T}, func() error {
			_, err := li.ApplyUpdate(ctx, landmarkrd.GraphUpdate{Op: landmarkrd.UpdateAddEdge, S: e.S, T: e.T, Weight: updateWeight})
			return err
		})
		if err != nil {
			return err
		}
		updMS = append(updMS, durMS(d))
	}
	r.pct("live.apply_update_ms_p50", updMS, 0.5)
	d, err = call("landmarkrd.LiveIndex.Rebase", nil, func() error {
		_, err := li.Rebase(ctx)
		return err
	})
	if err != nil {
		return err
	}
	r.set("live.rebase_s", d.Seconds())
	return nil
}
