package core

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"landmarkrd/internal/obs"
	"landmarkrd/internal/randx"
	"landmarkrd/internal/sketch"
)

// buildDiag builds an index with the given mode/workers from a fresh RNG
// with the given seed and returns its diagonal.
func buildDiag(t *testing.T, mode DiagMode, workers int, seed uint64) []float64 {
	t.Helper()
	g := testBA(t, 400, 90)
	v := g.MaxDegreeVertex()
	idx, err := BuildIndex(g, v, IndexOptions{
		Mode:           mode,
		WalksPerVertex: 24,
		SketchEpsilon:  0.5,
		Workers:        workers,
	}, randx.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return idx.Diag
}

// TestBuildIndexDeterministicAcrossWorkers is the core guarantee of the
// parallel build: for a fixed seed, sequential (Workers: 1) and parallel
// (Workers: 8) builds produce bit-identical Diag arrays in every mode.
func TestBuildIndexDeterministicAcrossWorkers(t *testing.T) {
	for _, mode := range []DiagMode{DiagExactCG, DiagMC, DiagSketch} {
		seq := buildDiag(t, mode, 1, 7)
		par := buildDiag(t, mode, 8, 7)
		for u := range seq {
			if math.Float64bits(seq[u]) != math.Float64bits(par[u]) {
				t.Fatalf("%v: diag[%d] differs between Workers:1 (%v) and Workers:8 (%v)",
					mode, u, seq[u], par[u])
			}
		}
		// A repeated parallel build must also reproduce itself.
		again := buildDiag(t, mode, 8, 7)
		for u := range par {
			if math.Float64bits(par[u]) != math.Float64bits(again[u]) {
				t.Fatalf("%v: parallel build not reproducible at %d", mode, u)
			}
		}
	}
}

// TestBuildIndexConcurrent exercises parallel builds under the race
// detector: several goroutines build in parallel mode against one shared
// metrics sink.
func TestBuildIndexConcurrent(t *testing.T) {
	g := testBA(t, 300, 91)
	v := g.MaxDegreeVertex()
	shared := &obs.Metrics{}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = BuildIndex(g, v, IndexOptions{
				Mode:           DiagMC,
				WalksPerVertex: 8,
				Workers:        4,
				Metrics:        shared,
			}, randx.New(uint64(i)+1))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	s := shared.Snapshot()
	if s.IndexBuilds != 4 {
		t.Errorf("IndexBuilds = %d, want 4", s.IndexBuilds)
	}
	if s.IndexBuildTime.Count != 4 {
		t.Errorf("IndexBuildTime.Count = %d, want 4", s.IndexBuildTime.Count)
	}
	if s.Walks == 0 || s.WalkSteps == 0 {
		t.Errorf("walk work not merged into shared metrics: %+v", s)
	}
}

// TestBuildIndexMetricsSeparation checks the metrics fix: build wall time
// must land in IndexBuildTime, not pollute the query-latency histogram.
func TestBuildIndexMetricsSeparation(t *testing.T) {
	g := testBA(t, 200, 92)
	m := &obs.Metrics{}
	_, err := BuildIndex(g, g.MaxDegreeVertex(), IndexOptions{
		Mode:           DiagMC,
		WalksPerVertex: 8,
		Metrics:        m,
	}, randx.New(3))
	if err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.IndexBuilds != 1 {
		t.Errorf("IndexBuilds = %d, want 1", s.IndexBuilds)
	}
	if s.IndexBuildTime.Count != 1 {
		t.Errorf("IndexBuildTime.Count = %d, want 1", s.IndexBuildTime.Count)
	}
	if s.QueryTime.Count != 0 {
		t.Errorf("build polluted QueryTime: count = %d, want 0", s.QueryTime.Count)
	}
}

// TestBuildIndexMCNeedsRNG checks the explicit error (the sequential build
// used to nil-panic instead).
func TestBuildIndexMCNeedsRNG(t *testing.T) {
	g := testBA(t, 50, 93)
	if _, err := BuildIndex(g, 0, IndexOptions{Mode: DiagMC}, nil); err == nil {
		t.Error("DiagMC build without RNG accepted")
	}
}

// TestSingleSourceConcurrent exercises the pooled solver reuse in
// SingleSource under the race detector and checks answers stay consistent.
func TestSingleSourceConcurrent(t *testing.T) {
	g := testBA(t, 200, 94)
	v := g.MaxDegreeVertex()
	idx, err := BuildIndex(g, v, IndexOptions{Mode: DiagExactCG}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := idx.SingleSource((v+1)%g.N(), SingleSourceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := idx.SingleSource((v+1)%g.N(), SingleSourceOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			for u := range got {
				if math.Abs(got[u]-want[u]) > 1e-12 {
					t.Errorf("concurrent SingleSource diverged at %d: %v vs %v", u, got[u], want[u])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSketchPortfolioBuildMemory: a DiagSketch portfolio folds its sketch
// rows into the columns as they are solved, so the build must allocate less
// than the k×n sketch it no longer holds — k·n·8 bytes, 10.8 MB on
// BA(2000,4) at ε = 0.3 — at every worker count, and the columns must be
// bit-identical across worker counts.
func TestSketchPortfolioBuildMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three BA(2000,4) sketch portfolios")
	}
	g := testBA(t, 2000, 20)
	limit := uint64(sketch.RowsFor(g.N(), 0.3)) * uint64(g.N()) * 8
	var first [][]float64
	for _, workers := range []int{1, 2, 4} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := BuildPortfolio(g, PortfolioOptions{K: 4, Mode: DiagSketch, SketchEpsilon: 0.3, Workers: workers}, randx.New(21))
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
			t.Errorf("workers=%d: build allocated %d bytes, want < %d (the k×n sketch)", workers, got, limit)
		}
		if first == nil {
			first = p.Cols
			continue
		}
		for j := range first {
			for u := range first[j] {
				if math.Float64bits(p.Cols[j][u]) != math.Float64bits(first[j][u]) {
					t.Fatalf("workers=%d: Cols[%d][%d] differs from the Workers:1 build", workers, j, u)
				}
			}
		}
	}
}
