package main

import (
	"fmt"
	"time"

	landmarkrd "landmarkrd"
)

// graphSpec is one of the fixed benchmark graphs. The graphs are datasets,
// generated from graphSeed whatever the run's seed; the run's seed drives
// the traffic.
type graphSpec struct {
	name    string
	n, k    int     // Barabási–Albert size and attachments
	side    int     // grid side, for the road stand-in
	perturb float64 // grid edge-removal probability
}

const graphSeed = 2023

func (gs graphSpec) generate() (*landmarkrd.Graph, error) {
	if gs.side > 0 {
		return landmarkrd.Grid(gs.side, gs.side, gs.perturb, graphSeed)
	}
	return landmarkrd.BarabasiAlbert(gs.n, gs.k, graphSeed)
}

var (
	baGraph   = graphSpec{name: "ba", n: 5000, k: 4}
	roadGraph = graphSpec{name: "road", side: 25, perturb: 0.08}
)

type workloadKind uint8

const (
	fleetKind workloadKind = iota // rdproxy over two landmark-sharded rdserver replicas
	liveKind                      // one rdserver taking reads and updates
	batchKind                     // BatchEngine in process
)

// workload is one named input set. The set is closed: later changes cite
// the workloads by name.
type workload struct {
	name  string
	why   string
	kind  workloadKind
	graph graphSpec
	// traffic is the open-loop mix of the timed phase (fleets and live).
	traffic traffic
	// warmup is how many closed-loop pair requests fill the caches before
	// the timed phase.
	warmup int
	// batch is the pairs per PairsContext call (batchKind).
	batch int
	// sloMS is the pair latency limit slo_ratio counts against; for
	// batch-social it limits a call's time per pair.
	sloMS float64
	// maxAbsErrP90 is the abs_err_p90 above which the answers count as
	// wrong.
	maxAbsErrP90 float64
}

// Fleet and serving settings shared by the workloads. Every other server
// flag stays at its default: BiPush, seed 1, breakers on, hedging off,
// retry budget 64.
const (
	portfolioK = 4
	replicas   = 2
	cacheSize  = 1024
	buildSeed  = 1
)

var workloads = []workload{
	{
		name:         "social-zipf",
		why:          "Zipf-popular pairs through rdproxy and two sharded replicas; most answers are proxy-cache hits, so proxy, HTTP and cache costs dominate",
		kind:         fleetKind,
		graph:        baGraph,
		traffic:      traffic{rate: 100, pool: 50000, zipfS: 1.1},
		warmup:       2 * cacheSize,
		sloMS:        25,
		maxAbsErrP90: 0.05,
	},
	{
		name:         "road-uniform",
		why:          "uniform pairs on a large-condition-number grid through the same fleet; the cache is bypassed and BiPush walks are most of the latency",
		kind:         fleetKind,
		graph:        roadGraph,
		traffic:      traffic{rate: 16, pool: 50000},
		sloMS:        250,
		maxAbsErrP90: 1,
	},
	{
		name:  "live-mixed",
		why:   "one live replica taking Zipf pair reads, single-source reads and edge updates that trigger re-bases; the only single-landmark and update path",
		kind:  liveKind,
		graph: baGraph,
		// 8 updates/s puts about 96 updates in a 12 s phase: one re-base,
		// at the 64th, in every run.
		traffic:      traffic{rate: 40, pool: 50000, zipfS: 1.1, ssShare: 0.1, updShare: 0.2},
		sloMS:        50,
		maxAbsErrP90: 0.05,
	},
	{
		name:         "batch-social",
		why:          "in-process BatchEngine scoring of uniform pairs in closed loop; no HTTP, proxy or cache, so only estimator and kernel changes move it",
		kind:         batchKind,
		graph:        baGraph,
		batch:        24,
		sloMS:        5,
		maxAbsErrP90: 0.05,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metricDef describes one reported metric. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is what a user of the system sees, reported by every workload
// in an untraced run. A timing is a median and a p90, the highest
// percentile every workload's sample supports.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pair_ms_p50", "ms", "lower", 0.25},
	{"pair_ms_p90", "ms", "lower", 0.25},
	{"slo_ratio", "frac", "higher", 0.05},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"abs_err_p50", "resistance", "lower", 0.2},
	{"abs_err_p90", "resistance", "lower", 0.25},
	{"rss_mb", "MiB", "lower", 0.15},
}

// liveExtra is reported by live-mixed alone, beside the end-to-end
// metrics: the median latencies of its update and single-source requests
// (a run has too few of them for a tail percentile).
var liveExtra = []metricDef{
	{"update_ms_p50", "ms", "lower", 0.25},
	{"singlesource_ms_p50", "ms", "lower", 0.25},
}

// perLayer is reported by every workload in a traced run. The first group
// comes from the workload's own traffic; the second from calls rdload
// makes in process into each layer on the workload's graph.
var perLayer = []metricDef{
	{"rdload.sched_lag_ms_p90", "ms", "lower", 0},
	{"rdproxy.time_share", "frac", "lower", 0},
	{"rdserver.time_share", "frac", "lower", 0},
	{"rcache.hit_ratio", "frac", "higher", 0},
	{"engine.pair_ms_p50", "ms", "lower", 0},
	{"engine.pair_ms_p90", "ms", "lower", 0},
	{"engine.estimator_builds", "count", "lower", 0},
	{"engine.router_fallbacks", "count", "lower", 0},
	{"engine.exact_fallbacks", "count", "lower", 0},
	{"core.query_ms_mean", "ms", "lower", 0},
	{"walk.steps_per_query", "count", "lower", 0},
	{"push.ops_per_query", "count", "lower", 0},
	{"lap.cg_iterations", "count", "lower", 0},

	{"core.bipush.pair_ms_p50", "ms", "lower", 0},
	{"core.bipush.abs_err_p50", "resistance", "lower", 0},
	{"core.bipush.walk_steps_mean", "count", "lower", 0},
	{"core.bipush.push_ops_mean", "count", "lower", 0},
	{"core.abwalk.pair_ms_p50", "ms", "lower", 0},
	{"core.abwalk.abs_err_p50", "resistance", "lower", 0},
	{"core.abwalk.walk_steps_mean", "count", "lower", 0},
	{"core.push.pair_ms_p50", "ms", "lower", 0},
	{"core.push.abs_err_p50", "resistance", "lower", 0},
	{"core.push.push_ops_mean", "count", "lower", 0},
	{"walk.steps_per_ms", "1/ms", "higher", 0},
	{"push.ops_per_ms", "1/ms", "higher", 0},
	{"lap.exact_ms_p50", "ms", "lower", 0},
	{"lap.cg_iters_per_solve", "count", "lower", 0},
	{"core.portfolio.route_us", "us", "lower", 0},
	{"core.build.sketch_s", "s", "lower", 0},
	{"core.build.mc_s", "s", "lower", 0},
	{"engine.batch_ms_p50", "ms", "lower", 0},
	{"live.apply_update_ms_p50", "ms", "lower", 0},
	{"live.rebase_s", "s", "lower", 0},
}

// Sizes of a run's parts, in full and -quick runs.
type sizes struct {
	setups     int           // cold starts timed for setup_s
	truth      int           // distinct answered pairs checked against Exact
	replays    int           // proxied misses replayed to their replica (traced)
	probePairs [2]int        // estimator probe pairs on ba, road (traced)
	probeCalls int           // PairsContext probe calls (traced)
	probeUpds  int           // ApplyUpdate probe calls (traced)
	warmupCap  int           // cap on warm-up requests
	seconds    time.Duration // default timed phase
}

var (
	fullSizes  = sizes{setups: 3, truth: 400, replays: 400, probePairs: [2]int{100, 30}, probeCalls: 20, probeUpds: 64, warmupCap: 1 << 30, seconds: 12 * time.Second}
	quickSizes = sizes{setups: 1, truth: 50, replays: 50, probePairs: [2]int{20, 5}, probeCalls: 3, probeUpds: 8, warmupCap: 256, seconds: 2 * time.Second}
)
