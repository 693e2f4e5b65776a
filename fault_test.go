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

// TestCGIterFaults covers the cg.iter site through the exact solver.
func TestCGIterFaults(t *testing.T) {
	defer faultinject.Reset()
	g := loadCorpusGraph(t, "grid_14x14.edges")

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
