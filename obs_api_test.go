package landmarkrd_test

import (
	"strings"
	"testing"

	landmarkrd "landmarkrd"
)

// Tests of the public observability surface: per-estimator Stats(), the
// shared-sink plumbing, and the process-wide solver metrics.

func TestBiPushQueryRecordsCounters(t *testing.T) {
	g, err := landmarkrd.BarabasiAlbert(800, 4, 41)
	if err != nil {
		t.Fatal(err)
	}
	est, err := landmarkrd.NewEstimator(g, landmarkrd.BiPush, landmarkrd.Options{Seed: 1, Walks: 64})
	if err != nil {
		t.Fatal(err)
	}
	s, x := 3, 700
	if s == est.Landmark() || x == est.Landmark() {
		s, x = 5, 701
	}
	res, err := est.Pair(s, x)
	if err != nil {
		t.Fatal(err)
	}
	// Per-query fields on the Estimate itself.
	if res.PushOps == 0 {
		t.Error("estimate reports zero push ops")
	}
	if res.WalkSteps == 0 {
		t.Error("estimate reports zero walk steps")
	}
	if res.Duration <= 0 {
		t.Error("estimate reports no duration")
	}
	if res.Converged && res.LandmarkHits != res.Walks {
		t.Errorf("converged query with %d hits over %d walks", res.LandmarkHits, res.Walks)
	}
	// Aggregated counters via the public stats API (the acceptance check).
	stats := est.Stats()
	if stats.Queries != 1 {
		t.Errorf("queries = %d, want 1", stats.Queries)
	}
	if stats.PushOps == 0 {
		t.Error("stats report zero push ops after a BiPush query")
	}
	if stats.WalkSteps == 0 {
		t.Error("stats report zero walk steps after a BiPush query")
	}
	if stats.LandmarkHits == 0 {
		t.Error("stats report zero landmark hits after a BiPush query")
	}
	if stats.ResidualL1 <= 0 {
		t.Error("stats report no residual mass (BiPush runs a loose push)")
	}
	if stats.QueryTime.Count != 1 || stats.QueryTime.Sum <= 0 {
		t.Errorf("query-time histogram = %+v", stats.QueryTime)
	}
	if stats.PushWork.Count != 1 || stats.PushWork.Sum != stats.PushOps {
		t.Errorf("push-work histogram %+v inconsistent with push ops %d", stats.PushWork, stats.PushOps)
	}
}

func TestEstimatorStatsPerMethod(t *testing.T) {
	g, err := landmarkrd.BarabasiAlbert(400, 4, 43)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []landmarkrd.Method{landmarkrd.AbWalk, landmarkrd.Push, landmarkrd.BiPush} {
		est, err := landmarkrd.NewEstimator(g, m, landmarkrd.Options{Seed: 2, Walks: 32})
		if err != nil {
			t.Fatal(err)
		}
		s, x := 2, 300
		if s == est.Landmark() || x == est.Landmark() {
			s, x = 4, 301
		}
		if _, err := est.Pair(s, x); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		stats := est.Stats()
		if stats.Queries != 1 {
			t.Errorf("%v: queries = %d", m, stats.Queries)
		}
		switch m {
		case landmarkrd.AbWalk:
			if stats.WalkSteps == 0 || stats.PushOps != 0 {
				t.Errorf("abwalk counters: %+v", stats)
			}
		case landmarkrd.Push:
			if stats.PushOps == 0 || stats.WalkSteps != 0 {
				t.Errorf("push counters: %+v", stats)
			}
			if stats.Pushes == 0 {
				t.Error("push reports zero vertex pushes")
			}
		case landmarkrd.BiPush:
			if stats.PushOps == 0 || stats.WalkSteps == 0 {
				t.Errorf("bipush counters: %+v", stats)
			}
		}
	}
}

func TestSharedMetricsSink(t *testing.T) {
	g, err := landmarkrd.BarabasiAlbert(300, 3, 47)
	if err != nil {
		t.Fatal(err)
	}
	shared := &landmarkrd.Metrics{}
	for seed := uint64(1); seed <= 2; seed++ {
		est, err := landmarkrd.NewEstimator(g, landmarkrd.Push, landmarkrd.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		est.SetMetrics(shared)
		s, x := 1, 200
		if s == est.Landmark() || x == est.Landmark() {
			s, x = 2, 201
		}
		if _, err := est.Pair(s, x); err != nil {
			t.Fatal(err)
		}
		if est.Metrics() != shared {
			t.Error("Metrics() does not return the shared sink")
		}
	}
	if got := shared.Snapshot().Queries; got != 2 {
		t.Errorf("shared sink queries = %d, want 2", got)
	}
}

func TestSolverStatsRecordExactQueries(t *testing.T) {
	// er_150 is far over the elimination-label budget, so its answer
	// comes from CG.
	g, _, err := landmarkrd.LoadEdgeList("testdata/corpus/er_150.edges")
	if err != nil {
		t.Fatal(err)
	}
	before := landmarkrd.SolverStats()
	if _, err := landmarkrd.Exact(g, 1, 149); err != nil {
		t.Fatal(err)
	}
	after := landmarkrd.SolverStats()
	if after.CGSolves <= before.CGSolves {
		t.Errorf("cg solves did not grow: %d -> %d", before.CGSolves, after.CGSolves)
	}
	if after.CGIterations <= before.CGIterations {
		t.Errorf("cg iterations did not grow: %d -> %d", before.CGIterations, after.CGIterations)
	}

	// A grid within the budget answers from labels instead.
	grid, err := landmarkrd.Grid(10, 10, 0, 53)
	if err != nil {
		t.Fatal(err)
	}
	before = landmarkrd.SolverStats()
	if _, err := landmarkrd.Exact(grid, 1, 98); err != nil {
		t.Fatal(err)
	}
	after = landmarkrd.SolverStats()
	if after.LabelBuilds != before.LabelBuilds+1 || after.LabelAnswers != before.LabelAnswers+1 || after.CGSolves != before.CGSolves {
		t.Errorf("grid: LabelBuilds +%d, LabelAnswers +%d, CGSolves +%d; want +1, +1, +0",
			after.LabelBuilds-before.LabelBuilds, after.LabelAnswers-before.LabelAnswers, after.CGSolves-before.CGSolves)
	}
}

func TestStatsStringIsJSON(t *testing.T) {
	g, err := landmarkrd.BarabasiAlbert(200, 3, 59)
	if err != nil {
		t.Fatal(err)
	}
	est, err := landmarkrd.NewEstimator(g, landmarkrd.BiPush, landmarkrd.Options{Seed: 1, Walks: 16})
	if err != nil {
		t.Fatal(err)
	}
	s, x := 1, 150
	if s == est.Landmark() || x == est.Landmark() {
		s, x = 2, 151
	}
	if _, err := est.Pair(s, x); err != nil {
		t.Fatal(err)
	}
	out := est.Stats().String()
	for _, field := range []string{"push_ops", "walk_steps", "landmark_hits", "query_time_ns"} {
		if !strings.Contains(out, field) {
			t.Errorf("stats string missing %q:\n%s", field, out)
		}
	}
}

func TestPublishMetricsViaAPI(t *testing.T) {
	m := &landmarkrd.Metrics{}
	m.Queries.Add(3)
	landmarkrd.PublishMetrics("landmarkrd_test_publish", m) // must not panic, twice
	landmarkrd.PublishMetrics("landmarkrd_test_publish", m)
}
