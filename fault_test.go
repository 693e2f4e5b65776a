package landmarkrd_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	landmarkrd "landmarkrd"
	"landmarkrd/internal/faultinject"
)

// The fault matrix: for every hook site and every fault class, a query must
// end in exactly one of three states — a correct success, a typed error, or
// a degraded estimate with an honest bound. Never a silently wrong answer.

// faultBatchQueries is the fixed query set the matrix runs.
func faultBatchQueries(t *testing.T) (*landmarkrd.Graph, []landmarkrd.PairQuery) {
	t.Helper()
	g := loadCorpusGraph(t, "grid_14x14.edges")
	return g, []landmarkrd.PairQuery{
		{S: 0, T: 100}, {S: 5, T: 55}, {S: 1, T: 2}, {S: 190, T: 7}, {S: 42, T: 141},
	}
}

func loadCorpusGraph(t *testing.T, name string) *landmarkrd.Graph {
	t.Helper()
	g, _, err := landmarkrd.LoadEdgeList("testdata/corpus/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sameEstimate compares everything deterministic about two estimates
// (Duration is wall time, so it is excluded).
func sameEstimate(a, b landmarkrd.Estimate) bool {
	return math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		math.Float64bits(a.ErrBound) == math.Float64bits(b.ErrBound) &&
		a.Walks == b.Walks && a.WalkSteps == b.WalkSteps &&
		a.PushOps == b.PushOps && a.LandmarkHits == b.LandmarkHits &&
		math.Float64bits(a.ResidualL1) == math.Float64bits(b.ResidualL1) &&
		a.Converged == b.Converged
}

func newFaultEngine(t *testing.T, g *landmarkrd.Graph, m landmarkrd.Method, opts landmarkrd.BatchOptions) *landmarkrd.BatchEngine {
	t.Helper()
	if opts.Options.Seed == 0 {
		opts.Options.Seed = 11
	}
	e, err := landmarkrd.NewBatchEngine(g, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestFaultMatrix drives the per-query hook sites (walk loops, push queues,
// batch workers) through all three fault classes with the estimator method
// that exercises each site.
func TestFaultMatrix(t *testing.T) {
	g, queries := faultBatchQueries(t)
	cases := []struct {
		site   faultinject.Site
		method landmarkrd.Method
	}{
		{faultinject.SiteWalkLoop, landmarkrd.AbWalk},
		{faultinject.SitePushQueue, landmarkrd.Push},
		{faultinject.SiteBatchQuery, landmarkrd.BiPush},
	}
	for _, tc := range cases {
		t.Run(string(tc.site), func(t *testing.T) {
			defer faultinject.Reset()
			engine := newFaultEngine(t, g, tc.method, landmarkrd.BatchOptions{
				Options: landmarkrd.Options{Walks: 200},
			})
			faultinject.Reset()
			baseline, err := engine.Pairs(queries)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range baseline {
				if r.Err != nil {
					t.Fatalf("baseline query %d failed: %v", i, r.Err)
				}
			}

			t.Run("error", func(t *testing.T) {
				defer faultinject.Reset()
				faultinject.Arm(tc.site, faultinject.Fault{})
				res, err := engine.Pairs(queries)
				if err != nil {
					t.Fatal(err)
				}
				if faultinject.Fires(tc.site) == 0 {
					t.Fatalf("hook %s never fired: site not wired", tc.site)
				}
				for i, r := range res {
					if r.Err == nil {
						t.Errorf("query %d: injected fault produced a success (value %g)", i, r.Estimate.Value)
						continue
					}
					if !errors.Is(r.Err, faultinject.ErrInjected) {
						t.Errorf("query %d: error %v does not match ErrInjected", i, r.Err)
					}
				}
			})

			t.Run("latency", func(t *testing.T) {
				defer faultinject.Reset()
				faultinject.Arm(tc.site, faultinject.Fault{Latency: 50 * time.Microsecond, LatencyOnly: true})
				res, err := engine.Pairs(queries)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range res {
					if r.Err != nil {
						t.Errorf("query %d: latency-only fault caused error %v", i, r.Err)
						continue
					}
					if !sameEstimate(r.Estimate, baseline[i].Estimate) {
						t.Errorf("query %d: latency-only fault changed the answer: %+v vs %+v",
							i, r.Estimate, baseline[i].Estimate)
					}
				}
			})

			t.Run("panic", func(t *testing.T) {
				defer faultinject.Reset()
				faultinject.Arm(tc.site, faultinject.Fault{Panic: "injected"})
				res, err := engine.Pairs(queries)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range res {
					if r.Err == nil {
						t.Errorf("query %d: injected panic produced a success", i)
						continue
					}
					if !errors.Is(r.Err, landmarkrd.ErrInternal) {
						t.Errorf("query %d: recovered panic %v does not match ErrInternal", i, r.Err)
					}
				}
				if engine.Stats().Panics == 0 {
					t.Error("Panics metric not incremented")
				}
				// The engine must survive: with the fault disarmed, answers
				// return to the deterministic baseline (panicked estimators
				// were poisoned, never pooled).
				faultinject.Reset()
				after, err := engine.Pairs(queries)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range after {
					if r.Err != nil {
						t.Errorf("post-panic query %d failed: %v", i, r.Err)
						continue
					}
					if !sameEstimate(r.Estimate, baseline[i].Estimate) {
						t.Errorf("post-panic query %d diverged from baseline", i)
					}
				}
			})
		})
	}
}

// TestFaultMatrixMidLane fires one walk.loop fault in the middle of the
// walks while a worker has four queries in its lanes. The fault must stay
// with the query it hit: that query fails (panic) or is retried on its
// salted stream (error), and every other query answers exactly as without
// the fault.
func TestFaultMatrixMidLane(t *testing.T) {
	defer faultinject.Reset()
	g, queries := faultBatchQueries(t)
	for _, tc := range []struct {
		name  string
		fault faultinject.Fault
	}{
		{"panic", faultinject.Fault{Panic: "injected", After: 250, Count: 1}},
		{"error", faultinject.Fault{After: 250, Count: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faultinject.Reset()
			engine := newFaultEngine(t, g, landmarkrd.AbWalk, landmarkrd.BatchOptions{
				Options: landmarkrd.Options{Walks: 200}, Workers: 1, MaxAttempts: 2,
			})
			baseline, err := engine.Pairs(queries)
			if err != nil {
				t.Fatal(err)
			}
			faultinject.Arm(faultinject.SiteWalkLoop, tc.fault)
			res, err := engine.Pairs(queries)
			if err != nil {
				t.Fatal(err)
			}
			if faultinject.Fires(faultinject.SiteWalkLoop) != 1 {
				t.Fatalf("fault fired %d times, want 1", faultinject.Fires(faultinject.SiteWalkLoop))
			}
			hit := 0
			for i, r := range res {
				if sameEstimate(r.Estimate, baseline[i].Estimate) && r.Err == nil && r.Attempts == 1 {
					continue
				}
				hit++
				switch tc.name {
				case "panic":
					if !errors.Is(r.Err, landmarkrd.ErrInternal) || r.Attempts != 1 {
						t.Errorf("query %d: err %v after %d attempts, want ErrInternal after 1", i, r.Err, r.Attempts)
					}
				case "error":
					if r.Err != nil || r.Attempts != 2 || r.Estimate.Value <= 0 {
						t.Errorf("query %d: err %v, %d attempts, value %g; want a retried success", i, r.Err, r.Attempts, r.Estimate.Value)
					}
				}
			}
			if hit != 1 {
				t.Errorf("%d queries affected by one fault, want 1", hit)
			}
			stats := engine.Stats()
			wantPanics, wantRetries := int64(0), int64(0)
			if tc.name == "panic" {
				wantPanics = 1
			} else {
				wantRetries = 1
			}
			if stats.Panics != wantPanics || stats.Retries != wantRetries {
				t.Errorf("Panics %d, Retries %d; want %d, %d", stats.Panics, stats.Retries, wantPanics, wantRetries)
			}
		})
	}
}

// pairsWithin runs one Pairs call and fails the test if it has not
// returned within a minute.
func pairsWithin(t *testing.T, e *landmarkrd.BatchEngine, queries []landmarkrd.PairQuery) []landmarkrd.PairResult {
	t.Helper()
	type outcome struct {
		res []landmarkrd.PairResult
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := e.Pairs(queries)
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatal(o.err)
		}
		return o.res
	case <-time.After(time.Minute):
		t.Fatal("Pairs did not return within a minute")
		return nil
	}
}

// TestBatchRetriablePanic: a panic outside the attempt guards — here in
// the Retriable callback — fails its own query with ErrInternal, and the
// batch call returns with every other query answered. The callback runs
// once for a query that failed while it began (an out-of-range vertex)
// and once for one whose walks failed in the lanes (an injected walk.loop
// error).
func TestBatchRetriablePanic(t *testing.T) {
	defer faultinject.Reset()
	g, queries := faultBatchQueries(t)
	faultinject.Arm(faultinject.SiteWalkLoop, faultinject.Fault{After: 250, Count: 1})
	engine := newFaultEngine(t, g, landmarkrd.AbWalk, landmarkrd.BatchOptions{
		Options: landmarkrd.Options{Walks: 200}, Workers: 1, MaxAttempts: 2,
		Retriable: func(error) bool { panic("retriable") },
	})
	failed := 0
	for i, r := range pairsWithin(t, engine, append(queries, landmarkrd.PairQuery{S: g.N(), T: 3})) {
		if r.Err == nil {
			if r.Estimate.Value <= 0 || r.Attempts != 1 {
				t.Errorf("query %d: value %g after %d attempts", i, r.Estimate.Value, r.Attempts)
			}
			continue
		}
		failed++
		if !errors.Is(r.Err, landmarkrd.ErrInternal) || r.Estimate != (landmarkrd.Estimate{}) || r.Attempts != 1 {
			t.Errorf("query %d: err %v, estimate %+v, %d attempts; want ErrInternal, no estimate, 1 attempt", i, r.Err, r.Estimate, r.Attempts)
		}
	}
	if faultinject.Fires(faultinject.SiteWalkLoop) != 1 {
		t.Fatalf("walk.loop fault fired %d times, want 1", faultinject.Fires(faultinject.SiteWalkLoop))
	}
	if failed != 2 {
		t.Errorf("%d queries failed, want 2 (the faulted one and the out-of-range one)", failed)
	}
	if got := engine.Stats().Panics; got != 2 {
		t.Errorf("Panics %d, want 2", got)
	}
}

// TestRetryRecoversTransientFault arms a one-shot fault and proves the
// retry path absorbs it: every query succeeds, exactly the faulted query
// reports a second attempt, and the Retries counter records it.
func TestRetryRecoversTransientFault(t *testing.T) {
	defer faultinject.Reset()
	g, queries := faultBatchQueries(t)
	engine := newFaultEngine(t, g, landmarkrd.BiPush, landmarkrd.BatchOptions{
		Options:     landmarkrd.Options{Walks: 200},
		MaxAttempts: 3,
	})
	faultinject.Arm(faultinject.SiteBatchQuery, faultinject.Fault{Count: 1})
	res, err := engine.Pairs(queries)
	if err != nil {
		t.Fatal(err)
	}
	retried := 0
	for i, r := range res {
		if r.Err != nil {
			t.Errorf("query %d: transient fault not absorbed: %v", i, r.Err)
		}
		switch r.Attempts {
		case 1:
		case 2:
			retried++
			if r.Estimate.Value <= 0 {
				t.Errorf("query %d: retried answer %g, want positive", i, r.Estimate.Value)
			}
		default:
			t.Errorf("query %d: %d attempts for a one-shot fault", i, r.Attempts)
		}
	}
	if retried != 1 {
		t.Errorf("%d queries retried, want exactly 1 (fault Count=1)", retried)
	}
	if got := engine.Stats().Retries; got != 1 {
		t.Errorf("Retries metric %d, want 1", got)
	}
}

// TestRetryExhaustionSurfacesTypedError proves a persistent fault is not
// retried forever: after MaxAttempts the typed cause comes back.
func TestRetryExhaustionSurfacesTypedError(t *testing.T) {
	defer faultinject.Reset()
	g, _ := faultBatchQueries(t)
	engine := newFaultEngine(t, g, landmarkrd.BiPush, landmarkrd.BatchOptions{
		Options:     landmarkrd.Options{Walks: 100},
		MaxAttempts: 3,
	})
	faultinject.Arm(faultinject.SiteBatchQuery, faultinject.Fault{})
	res, err := engine.Pairs([]landmarkrd.PairQuery{{S: 0, T: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res[0].Err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", res[0].Err)
	}
	if res[0].Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (budget exhausted)", res[0].Attempts)
	}
}

// TestRetriesDoNotChangeFirstTrySuccesses: enabling retries must keep the
// default path byte-identical for queries that succeed on attempt one.
func TestRetriesDoNotChangeFirstTrySuccesses(t *testing.T) {
	g, queries := faultBatchQueries(t)
	plain := newFaultEngine(t, g, landmarkrd.BiPush, landmarkrd.BatchOptions{
		Options: landmarkrd.Options{Walks: 200},
	})
	withRetries := newFaultEngine(t, g, landmarkrd.BiPush, landmarkrd.BatchOptions{
		Options:     landmarkrd.Options{Walks: 200},
		MaxAttempts: 5,
	})
	a, err := plain.Pairs(queries)
	if err != nil {
		t.Fatal(err)
	}
	b, err := withRetries.Pairs(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !sameEstimate(a[i].Estimate, b[i].Estimate) {
			t.Errorf("query %d: retry-enabled engine diverged on a first-try success", i)
		}
	}
}

// TestIndexBuildFaults covers the index.build site: errors and panics
// surface typed from BuildLandmarkIndex and from a DiagSketch portfolio
// build, and latency changes nothing.
func TestIndexBuildFaults(t *testing.T) {
	defer faultinject.Reset()
	g := loadCorpusGraph(t, "grid_14x14.edges")

	faultinject.Reset()
	baseline, err := landmarkrd.BuildLandmarkIndex(g, 0, landmarkrd.DiagExactCG, 1)
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Arm(faultinject.SiteIndexBuild, faultinject.Fault{})
	if _, err := landmarkrd.BuildLandmarkIndex(g, 0, landmarkrd.DiagExactCG, 1); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("error fault: err = %v, want ErrInjected", err)
	}

	faultinject.Arm(faultinject.SiteIndexBuild, faultinject.Fault{Panic: "injected"})
	if _, err := landmarkrd.BuildLandmarkIndex(g, 0, landmarkrd.DiagExactCG, 1); !errors.Is(err, landmarkrd.ErrInternal) {
		t.Errorf("panic fault: err = %v, want ErrInternal", err)
	}

	faultinject.Arm(faultinject.SiteIndexBuild, faultinject.Fault{Latency: 10 * time.Microsecond, LatencyOnly: true, Every: 50})
	idx, err := landmarkrd.BuildLandmarkIndex(g, 0, landmarkrd.DiagExactCG, 1)
	if err != nil {
		t.Fatalf("latency fault: %v", err)
	}
	for i := range idx.Diag {
		if math.Float64bits(idx.Diag[i]) != math.Float64bits(baseline.Diag[i]) {
			t.Fatalf("latency fault changed Diag[%d]", i)
		}
	}

	// DiagSketch: the site fires once per sketch row inside the streamed
	// row-solve workers, which recover panics — both the site's own and one
	// raised from a row's CG iteration.
	buildSketch := func(m *landmarkrd.Metrics) (*landmarkrd.PortfolioIndex, error) {
		return landmarkrd.BuildPortfolioIndex(g, landmarkrd.PortfolioBuildOptions{
			K: 2, Mode: landmarkrd.DiagSketch, Workers: 2, Metrics: m,
		})
	}
	faultinject.Reset()
	sketchBaseline, err := buildSketch(nil)
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Arm(faultinject.SiteIndexBuild, faultinject.Fault{})
	if _, err := buildSketch(nil); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("sketch error fault: err = %v, want ErrInjected", err)
	}

	for _, site := range []faultinject.Site{faultinject.SiteIndexBuild, faultinject.SiteCGIter} {
		faultinject.Reset()
		faultinject.Arm(site, faultinject.Fault{Panic: "injected"})
		m := &landmarkrd.Metrics{}
		if _, err := buildSketch(m); !errors.Is(err, landmarkrd.ErrInternal) {
			t.Errorf("sketch panic fault at %s: err = %v, want ErrInternal", site, err)
		}
		if got := m.Snapshot().Panics; got < 1 {
			t.Errorf("sketch panic fault at %s: Panics = %d, want an increment", site, got)
		}
	}

	faultinject.Reset()
	faultinject.Arm(faultinject.SiteIndexBuild, faultinject.Fault{Latency: 10 * time.Microsecond, LatencyOnly: true, Every: 50})
	pf, err := buildSketch(nil)
	if err != nil {
		t.Fatalf("sketch latency fault: %v", err)
	}
	if faultinject.Hits(faultinject.SiteIndexBuild) == 0 {
		t.Error("index.build hook never reached by the sketch build")
	}
	for j := range pf.Cols {
		for i := range pf.Cols[j] {
			if math.Float64bits(pf.Cols[j][i]) != math.Float64bits(sketchBaseline.Cols[j][i]) {
				t.Fatalf("sketch latency fault changed Cols[%d][%d]", j, i)
			}
		}
	}
}

// TestCGIterFaults covers the cg.iter site through the exact solver, on
// er_150: a graph over the elimination-label budget, whose exact answers
// come from CG (TestLabelBuildFaults covers the label backend).
func TestCGIterFaults(t *testing.T) {
	defer faultinject.Reset()
	g := loadCorpusGraph(t, "er_150.edges")

	faultinject.Reset()
	baseline, err := landmarkrd.Exact(g, 0, 100)
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Arm(faultinject.SiteCGIter, faultinject.Fault{})
	if _, err := landmarkrd.Exact(g, 0, 100); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("error fault: err = %v, want ErrInjected", err)
	}
	if faultinject.Hits(faultinject.SiteCGIter) == 0 {
		t.Error("cg.iter hook never reached")
	}

	faultinject.Arm(faultinject.SiteCGIter, faultinject.Fault{Latency: 10 * time.Microsecond, LatencyOnly: true})
	got, err := landmarkrd.Exact(g, 0, 100)
	if err != nil {
		t.Fatalf("latency fault: %v", err)
	}
	if math.Float64bits(got) != math.Float64bits(baseline) {
		t.Errorf("latency fault changed Exact: %g vs %g", got, baseline)
	}
}

// TestLabelBuildFaults covers the label.build site on grid_14x14, whose
// exact answers come from elimination labels. Each case loads a fresh
// copy, since a graph builds its labels at most once. An error fault
// reaches the caller and is not remembered as "no labels"; a panic
// becomes ErrInternal plus one Panics, from Exact and from an engine's
// exact fallback; a latency-only fault changes no bit.
func TestLabelBuildFaults(t *testing.T) {
	defer faultinject.Reset()
	queries := [][2]int{{0, 100}, {100, 0}, {5, 195}, {17, 18}}
	baseline := make([]float64, len(queries))
	g := loadCorpusGraph(t, "grid_14x14.edges")
	for i, q := range queries {
		v, err := landmarkrd.Exact(g, q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = v
	}

	g = loadCorpusGraph(t, "grid_14x14.edges")
	faultinject.Arm(faultinject.SiteLabelBuild, faultinject.Fault{})
	if _, err := landmarkrd.Exact(g, 0, 100); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("error fault: err = %v, want ErrInjected", err)
	}
	faultinject.Reset()
	before := landmarkrd.SolverStats()
	if v, err := landmarkrd.Exact(g, 0, 100); err != nil || math.Float64bits(v) != math.Float64bits(baseline[0]) {
		t.Errorf("after an error fault: Exact = %v, %v; want %v from a fresh build", v, err, baseline[0])
	}
	after := landmarkrd.SolverStats()
	if after.LabelBuilds != before.LabelBuilds+1 || after.LabelAnswers != before.LabelAnswers+1 || after.CGSolves != before.CGSolves {
		t.Errorf("after an error fault: LabelBuilds +%d, LabelAnswers +%d, CGSolves +%d; want +1, +1, +0",
			after.LabelBuilds-before.LabelBuilds, after.LabelAnswers-before.LabelAnswers, after.CGSolves-before.CGSolves)
	}

	g = loadCorpusGraph(t, "grid_14x14.edges")
	faultinject.Arm(faultinject.SiteLabelBuild, faultinject.Fault{Panic: "injected"})
	before = landmarkrd.SolverStats()
	if _, err := landmarkrd.Exact(g, 0, 100); !errors.Is(err, landmarkrd.ErrInternal) {
		t.Errorf("panic fault: err = %v, want ErrInternal", err)
	}
	if got := landmarkrd.SolverStats().Panics - before.Panics; got != 1 {
		t.Errorf("panic fault: Panics +%d, want +1", got)
	}
	engine := newFaultEngine(t, g, landmarkrd.BiPush, landmarkrd.BatchOptions{})
	conflict := landmarkrd.PairQuery{S: engine.Landmark(), T: (engine.Landmark() + 7) % g.N()}
	res, err := engine.Pairs([]landmarkrd.PairQuery{conflict})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res[0].Err, landmarkrd.ErrInternal) || engine.Stats().Panics != 1 {
		t.Errorf("panic fault in the engine: err = %v, Panics %d; want ErrInternal, 1", res[0].Err, engine.Stats().Panics)
	}
	faultinject.Reset()
	if res, err = engine.Pairs([]landmarkrd.PairQuery{conflict}); err != nil || res[0].Err != nil {
		t.Errorf("after a panic fault: %v / %v", err, res[0].Err)
	}

	g = loadCorpusGraph(t, "grid_14x14.edges")
	faultinject.Arm(faultinject.SiteLabelBuild, faultinject.Fault{Latency: 10 * time.Microsecond, LatencyOnly: true})
	for i, q := range queries {
		v, err := landmarkrd.Exact(g, q[0], q[1])
		if err != nil || math.Float64bits(v) != math.Float64bits(baseline[i]) {
			t.Errorf("latency fault: Exact%v = %v, %v; want %v", q, v, err, baseline[i])
		}
	}
	if got := faultinject.Hits(faultinject.SiteLabelBuild); got != 1 {
		t.Errorf("label.build hit %d times, want once per graph", got)
	}
}

// TestDeadlineDegradation: a context with less remaining budget than
// DegradeBelow must be answered by the degraded tier — marked Degraded,
// with an error bound that contains the exact answer.
func TestDeadlineDegradation(t *testing.T) {
	g, queries := faultBatchQueries(t)
	engine := newFaultEngine(t, g, landmarkrd.BiPush, landmarkrd.BatchOptions{
		DegradeBelow:  time.Hour, // any finite deadline triggers degradation
		DegradedWalks: 512,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := engine.PairsContext(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Errorf("query %d: %v", i, r.Err)
			continue
		}
		if !r.Degraded {
			t.Errorf("query %d: not marked degraded", i)
		}
		if r.Estimate.ErrBound <= 0 {
			t.Errorf("query %d: degraded answer without an error bound", i)
		}
		truth, err := landmarkrd.Exact(g, queries[i].S, queries[i].T)
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(r.Estimate.Value - truth); diff > r.Estimate.ErrBound {
			t.Errorf("query %d: |%g - %g| = %g exceeds claimed bound %g",
				i, r.Estimate.Value, truth, diff, r.Estimate.ErrBound)
		}
	}
	if got := engine.Stats().Degraded; got != int64(len(queries)) {
		t.Errorf("Degraded metric %d, want %d", got, len(queries))
	}
}

// TestDegradedPairsContext is the explicit load-shedding entry point: no
// deadline required, every answer is degraded-with-bound.
func TestDegradedPairsContext(t *testing.T) {
	g, queries := faultBatchQueries(t)
	engine := newFaultEngine(t, g, landmarkrd.BiPush, landmarkrd.BatchOptions{DegradedWalks: 512})
	res, err := engine.DegradedPairsContext(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Errorf("query %d: %v", i, r.Err)
			continue
		}
		if !r.Degraded || r.Estimate.ErrBound <= 0 {
			t.Errorf("query %d: degraded=%v bound=%g, want degraded with positive bound",
				i, r.Degraded, r.Estimate.ErrBound)
		}
	}
}

// TestDegradedDeterminism: the degraded tier is as reproducible as the
// primary one.
func TestDegradedDeterminism(t *testing.T) {
	g, queries := faultBatchQueries(t)
	engine := newFaultEngine(t, g, landmarkrd.BiPush, landmarkrd.BatchOptions{})
	a, err := engine.DegradedPairsContext(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.DegradedPairsContext(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !sameEstimate(a[i].Estimate, b[i].Estimate) {
			t.Errorf("query %d: degraded tier not deterministic", i)
		}
	}
}
