package landmarkrd

// Portfolio tests: conformance of the routed single-source path against
// the dense oracle at exact tolerance for K ∈ {1, 2, 4}, byte-identical
// determinism across worker counts, the v3 snapshot round trip (plus v2
// read compatibility, from a committed fixture), and the router's
// conflict-fallback behavior on the batch engine.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"

	"landmarkrd/internal/core"
)

// TestConformancePortfolio runs the golden corpus through the portfolio
// single-source path at K ∈ {1, 2, 4} with DiagExactCG columns: the routed
// answer must match the dense oracle to the exact-path tolerance, and the
// serving landmark must be the router's cheapest column for the source.
func TestConformancePortfolio(t *testing.T) {
	for _, c := range conformanceCases(t) {
		for _, k := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/K%d", c.Name, k), func(t *testing.T) {
				p, err := BuildPortfolioIndex(c.G, PortfolioBuildOptions{
					K: k, Mode: DiagExactCG, Seed: 7,
				})
				if err != nil {
					t.Fatalf("BuildPortfolioIndex: %v", err)
				}
				if p.K() != k {
					t.Fatalf("portfolio size %d, want %d", p.K(), k)
				}
				seen := map[int]bool{}
				for _, v := range p.Landmarks {
					if seen[v] {
						t.Fatalf("duplicate landmark %d in %v", v, p.Landmarks)
					}
					seen[v] = true
				}
				for _, pr := range c.Pairs[:2] {
					s := pr[0]
					got, served, err := p.SingleSource(s, core.SingleSourceOptions{Tol: 1e-12})
					if err != nil {
						t.Fatalf("SingleSource(%d): %v", s, err)
					}
					if !seen[served] {
						t.Fatalf("served landmark %d not in portfolio %v", served, p.Landmarks)
					}
					if want := p.Landmarks[p.RouteSource(s)[0]]; served != want {
						t.Fatalf("served landmark %d, router's cheapest is %d", served, want)
					}
					want, err := c.O.SingleSource(s)
					if err != nil {
						t.Fatal(err)
					}
					worst, at := 0.0, -1
					for v := range got {
						d := math.Abs(got[v]-want[v]) / math.Max(1, math.Abs(want[v]))
						if d > worst {
							worst, at = d, v
						}
					}
					if worst > exactTol {
						t.Errorf("K=%d SingleSource(%d): worst entry %d off by %.3g (tol %.3g)",
							k, s, at, worst, exactTol)
					}
				}
			})
		}
	}
}

// TestPortfolioRouteOrder pins the router contract: Route returns every
// landmark exactly once, sorted by ascending cost r(s,ℓ)+r(t,ℓ).
func TestPortfolioRouteOrder(t *testing.T) {
	c := conformanceCases(t)[0]
	p, err := BuildPortfolioIndex(c.G, PortfolioBuildOptions{K: 4, Mode: DiagExactCG, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s, u := c.Pairs[0][0], c.Pairs[0][1]
	order := p.Route(s, u)
	if len(order) != p.K() {
		t.Fatalf("Route returned %d positions, want %d", len(order), p.K())
	}
	seen := map[int]bool{}
	for i, j := range order {
		if j < 0 || j >= p.K() || seen[j] {
			t.Fatalf("Route order %v is not a permutation of portfolio positions", order)
		}
		seen[j] = true
		if i > 0 && p.RouteCost(order[i-1], s, u) > p.RouteCost(j, s, u) {
			t.Fatalf("Route order %v not sorted by cost at position %d", order, i)
		}
	}
}

// TestPortfolioDeterminismWorkers requires the portfolio build to be
// byte-identical at any worker count, for every diagonal mode, including
// the randomized ones.
func TestPortfolioDeterminismWorkers(t *testing.T) {
	c := conformanceCases(t)[0]
	for _, mode := range []DiagMode{DiagExactCG, DiagMC, DiagSketch} {
		t.Run(mode.String(), func(t *testing.T) {
			var ref *PortfolioIndex
			for _, workers := range []int{1, 3, 8} {
				p, err := BuildPortfolioIndex(c.G, PortfolioBuildOptions{
					K: 3, Mode: mode, Seed: 99, Workers: workers,
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if ref == nil {
					ref = p
					continue
				}
				if fmt.Sprint(p.Landmarks) != fmt.Sprint(ref.Landmarks) {
					t.Fatalf("workers=%d: landmarks %v, want %v", workers, p.Landmarks, ref.Landmarks)
				}
				for j := range p.Cols {
					for i := range p.Cols[j] {
						if math.Float64bits(p.Cols[j][i]) != math.Float64bits(ref.Cols[j][i]) {
							t.Fatalf("workers=%d: col %d entry %d differs: %x vs %x",
								workers, j, i, math.Float64bits(p.Cols[j][i]), math.Float64bits(ref.Cols[j][i]))
						}
					}
				}
			}
		})
	}
}

// TestPortfolioSnapshotRoundTrip writes a v3 snapshot and reads it back:
// landmarks, mode, and every column must survive Float64bits-identically,
// and the typed sentinels must fire for version, corruption, and
// graph-binding failures.
func TestPortfolioSnapshotRoundTrip(t *testing.T) {
	cases := conformanceCases(t)
	c := cases[0]
	p, err := BuildPortfolioIndex(c.G, PortfolioBuildOptions{K: 3, Mode: DiagMC, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)

	got, err := ReadPortfolioFrom(bytes.NewReader(raw), c.G)
	if err != nil {
		t.Fatalf("ReadPortfolioFrom: %v", err)
	}
	if got.Mode != p.Mode || fmt.Sprint(got.Landmarks) != fmt.Sprint(p.Landmarks) {
		t.Fatalf("header changed: %v %v, want %v %v", got.Mode, got.Landmarks, p.Mode, p.Landmarks)
	}
	for j := range p.Cols {
		for i := range p.Cols[j] {
			if math.Float64bits(got.Cols[j][i]) != math.Float64bits(p.Cols[j][i]) {
				t.Fatalf("col %d entry %d changed across round trip", j, i)
			}
		}
	}

	t.Run("ChecksumTrips", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[len(bad)/2] ^= 0x40
		if _, err := ReadPortfolioFrom(bytes.NewReader(bad), c.G); !errors.Is(err, ErrSnapshotChecksum) && !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("corrupted snapshot: %v, want checksum/corrupt sentinel", err)
		}
	})
	t.Run("GraphBinding", func(t *testing.T) {
		other := cases[1].G
		if other.N() == c.G.N() && other.M() == c.G.M() {
			t.Skip("need a structurally different graph")
		}
		if _, err := ReadPortfolioFrom(bytes.NewReader(raw), other); !errors.Is(err, ErrSnapshotMismatch) && !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("wrong graph: %v, want mismatch sentinel", err)
		}
	})
	t.Run("Truncated", func(t *testing.T) {
		if _, err := ReadPortfolioFrom(bytes.NewReader(raw[:len(raw)/3]), c.G); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("truncated snapshot: %v, want ErrSnapshotCorrupt", err)
		}
	})
}

// TestPortfolioSnapshotV2Compat reads the committed v2 single-landmark
// fixture (grid_14x14, landmark 4, DiagExactCG, seed 1; written before the
// v2 writer was removed) through the portfolio loader: it must come back
// as a K=1 portfolio whose column is the fixture's stored diagonal bit for
// bit (the expected bits are decoded from the file itself), so
// pre-portfolio snapshot files keep serving the same values. The column is
// also checked against a fresh exact build to solver accuracy.
func TestPortfolioSnapshotV2Compat(t *testing.T) {
	const fixture = "testdata/snapshots/grid_14x14_exact_seed1.v2.snap"
	g, _, err := LoadEdgeList(corpusDir + "/grid_14x14.edges")
	if err != nil {
		t.Fatal(err)
	}
	p, err := LoadPortfolioIndex(fixture, g)
	if err != nil {
		t.Fatalf("LoadPortfolioIndex on the v2 fixture: %v", err)
	}
	if p.K() != 1 || p.Landmarks[0] != 4 || p.Mode != DiagExactCG {
		t.Fatalf("v2 upgrade: K=%d landmarks=%v mode=%v, want K=1 [4] exact-cg", p.K(), p.Landmarks, p.Mode)
	}
	// v2 layout: 8 magic + 4 version + 4 flags + landmark, mode, n and
	// fingerprint at 8 bytes each, then the n-entry diagonal and the CRC.
	raw, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	const header = 48
	n := g.N()
	if len(raw) != header+8*n+8 {
		t.Fatalf("fixture is %d bytes, want %d for n=%d", len(raw), header+8*n+8, n)
	}
	for i := 0; i < n; i++ {
		want := binary.LittleEndian.Uint64(raw[header+8*i:])
		if got := math.Float64bits(p.Cols[0][i]); got != want {
			t.Fatalf("v2 upgrade changed column entry %d: %#x, stored %#x", i, got, want)
		}
	}
	idx, err := BuildLandmarkIndexOpts(g, 4, IndexBuildOptions{Mode: DiagExactCG, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range idx.Diag {
		if math.Abs(p.Cols[0][i]-idx.Diag[i]) > 1e-9 {
			t.Fatalf("v2 column entry %d = %v, fresh build %v", i, p.Cols[0][i], idx.Diag[i])
		}
	}
}

// pathGraph builds an unweighted path 0—1—…—(n−1).
func pathGraph(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBatchEnginePortfolio covers the routed pair path: portfolio-routed
// batches must be byte-identical across worker counts, answer
// landmark-touching queries through the fallback chain (counted in the
// portfolio's and the engine's stats; exact only when every member
// conflicts), and reject invalid option combinations.
func TestBatchEnginePortfolio(t *testing.T) {
	g := pathGraph(t, 12)
	p, err := BuildPortfolioIndex(g, PortfolioBuildOptions{
		Landmarks: []int{0, 11}, Mode: DiagExactCG, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := []PairQuery{
		{S: 2, T: 7},
		{S: 0, T: 5},  // conflicts with landmark 0: must fall back to 11
		{S: 0, T: 11}, // conflicts with both: exact-fallback path
		{S: 9, T: 3},
	}
	var ref []PairResult
	for _, workers := range []int{1, 4} {
		eng, err := NewBatchEngine(g, AbWalk, BatchOptions{
			Portfolio: p, Workers: workers, Options: Options{Seed: 42, Walks: 128},
		})
		if err != nil {
			t.Fatal(err)
		}
		if eng.Landmark() != p.Primary() {
			t.Fatalf("engine landmark %d, want portfolio primary %d", eng.Landmark(), p.Primary())
		}
		res, err := eng.Pairs(queries)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("workers=%d query %d: %v", workers, i, r.Err)
			}
			want, err := Exact(g, r.S, r.T)
			if err != nil {
				t.Fatal(err)
			}
			// The path graph is where the landmark decomposition is exact
			// for walk estimates through an endpoint landmark; allow the
			// Monte Carlo noise its bound.
			if math.IsNaN(r.Estimate.Value) || r.Estimate.Value < 0 {
				t.Fatalf("query %d: bad estimate %v", i, r.Estimate.Value)
			}
			if math.Abs(r.Estimate.Value-want) > math.Max(2, want) {
				t.Fatalf("query %d: estimate %v wildly off exact %v", i, r.Estimate.Value, want)
			}
		}
		// The both-conflict query must be exact (fallback solver).
		if diff := math.Abs(res[2].Estimate.Value - 11); diff > 1e-6 {
			t.Fatalf("both-conflict query answered %v, want exact 11", res[2].Estimate.Value)
		}
		if ref == nil {
			ref = res
			continue
		}
		for i := range res {
			if math.Float64bits(res[i].Estimate.Value) != math.Float64bits(ref[i].Estimate.Value) {
				t.Fatalf("workers=%d: query %d value %v differs from workers=1 value %v",
					workers, i, res[i].Estimate.Value, ref[i].Estimate.Value)
			}
		}
	}

	path10 := pathGraph(t, 10)
	t.Run("Fallback", func(t *testing.T) {
		p, err := BuildPortfolioIndex(path10, PortfolioBuildOptions{
			Landmarks: []int{0, 9}, Mode: DiagExactCG, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewBatchEngine(path10, Push, BatchOptions{Portfolio: p})
		if err != nil {
			t.Fatal(err)
		}
		// (0, 3): landmark 0 is the cheapest column (cost r(0,0)+r(3,0) = 3
		// vs 9+6 = 15 for landmark 9) but is an endpoint, so landmark 9
		// must answer.
		res, err := eng.Pairs([]PairQuery{{S: 0, T: 3}})
		if err != nil {
			t.Fatal(err)
		}
		if r := res[0]; r.Err != nil || math.Abs(r.Estimate.Value-3) > 1e-3 {
			t.Fatalf("(0,3) = %v, %v, want 3", r.Estimate.Value, r.Err)
		}
		if st := p.Stats(); st.Routed[1] != 1 || st.Fallbacks < 1 {
			t.Fatalf("portfolio stats: routed %v, fallbacks %d; want landmark 9 (position 1) to answer after >= 1 fallback",
				st.Routed, st.Fallbacks)
		}
		if ms := eng.Stats(); ms.RouterFallbacks != 1 || ms.PortfolioQueries != 1 {
			t.Fatalf("engine stats: router fallbacks %d, portfolio queries %d; want 1 and 1",
				ms.RouterFallbacks, ms.PortfolioQueries)
		}
		if eng.Portfolio() != p {
			t.Fatal("Portfolio() does not return the routed portfolio")
		}
	})
	t.Run("AllMembersConflict", func(t *testing.T) {
		p, err := BuildPortfolioIndex(path10, PortfolioBuildOptions{
			Landmarks: []int{4}, Mode: DiagExactCG, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Pairs(path10, Push, []PairQuery{{S: 4, T: 7}}, BatchOptions{Portfolio: p, OnConflict: ConflictError})
		if err != nil {
			t.Fatalf("batch failed: %v", err)
		}
		if !errors.Is(res[0].Err, ErrLandmarkConflict) {
			t.Fatalf("all-conflict query: err %v, want ErrLandmarkConflict", res[0].Err)
		}
	})
	t.Run("RejectPinWithPortfolio", func(t *testing.T) {
		_, err := NewBatchEngine(g, Push, BatchOptions{Portfolio: p, PinLandmark: true, Landmark: 3})
		if err == nil {
			t.Fatal("PinLandmark + Portfolio accepted, want error")
		}
	})
	t.Run("RejectForeignGraph", func(t *testing.T) {
		other := pathGraph(t, 12)
		_, err := NewBatchEngine(other, Push, BatchOptions{Portfolio: p})
		if err == nil {
			t.Fatal("portfolio from a different graph accepted, want error")
		}
	})
}

// TestSelectPortfolioLandmarksSpread checks the selection objective where
// it is unambiguous: on a path, the second landmark must land far from the
// first (score × hop-distance can never prefer a neighbor of the primary
// over the far end's neighborhood).
func TestSelectPortfolioLandmarksSpread(t *testing.T) {
	g := pathGraph(t, 64)
	lms, err := SelectPortfolioLandmarks(g, 2, MaxDegree, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(lms) != 2 {
		t.Fatalf("got %d landmarks, want 2", len(lms))
	}
	hops := lms[0] - lms[1]
	if hops < 0 {
		hops = -hops
	}
	if hops < 16 {
		t.Fatalf("landmarks %v are %d hops apart on a 64-path, want spread >= 16", lms, hops)
	}
}

// TestSelectorsMatchConstructors: the public landmark selectors read seed 0
// as 1, as the constructors do, so at every seed each names the landmarks
// its constructor selects with the same strategy and seed.
func TestSelectorsMatchConstructors(t *testing.T) {
	ba, err := BarabasiAlbert(400, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := Grid(15, 15, 0.08, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{ba, grid} {
		for _, seed := range []uint64{0, 1, 7} {
			for _, s := range []Strategy{MaxDegree, RandomVertex} {
				lms, err := SelectPortfolioLandmarks(g, 4, s, seed)
				if err != nil {
					t.Fatal(err)
				}
				pf, err := BuildPortfolioIndex(g, PortfolioBuildOptions{K: 4, Strategy: s, Mode: DiagSketch, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(lms, pf.Landmarks) {
					t.Errorf("n=%d seed %d %v: SelectPortfolioLandmarks %v, BuildPortfolioIndex %v", g.N(), seed, s, lms, pf.Landmarks)
				}
			}
			v, err := SelectLandmark(g, RandomVertex, seed)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Strategy: RandomVertex, Seed: seed}
			est, err := NewEstimator(g, BiPush, opts)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewBatchEngine(g, BiPush, BatchOptions{Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			if est.Landmark() != v || eng.Landmark() != v {
				t.Errorf("n=%d seed %d: SelectLandmark %d, NewEstimator %d, NewBatchEngine %d", g.N(), seed, v, est.Landmark(), eng.Landmark())
			}
		}
	}
}

// TestPortfolioAccessors pins the thin surface of the public portfolio
// type: file save/load wrappers, the context single-source path, and the
// per-column index view.
func TestPortfolioAccessors(t *testing.T) {
	g := pathGraph(t, 16)
	p, err := BuildPortfolioIndex(g, PortfolioBuildOptions{K: 2, Mode: DiagExactCG, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("SaveLoadFile", func(t *testing.T) {
		path := t.TempDir() + "/pf.snap"
		if err := SavePortfolioIndex(p, path); err != nil {
			t.Fatal(err)
		}
		q, err := LoadPortfolioIndex(path, g)
		if err != nil {
			t.Fatal(err)
		}
		if q.K() != p.K() {
			t.Fatalf("loaded K=%d, want %d", q.K(), p.K())
		}
		for j := range p.Cols {
			for u := range p.Cols[j] {
				if math.Float64bits(q.Cols[j][u]) != math.Float64bits(p.Cols[j][u]) {
					t.Fatalf("column %d diverged at %d", j, u)
				}
			}
		}
	})

	t.Run("SingleSourceContext", func(t *testing.T) {
		want, served, err := PortfolioSingleSource(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, servedCtx, err := PortfolioSingleSourceContext(context.Background(), p, 2)
		if err != nil {
			t.Fatal(err)
		}
		if servedCtx != served {
			t.Fatalf("context path routed %d, plain path %d", servedCtx, served)
		}
		for u := range want {
			if math.Float64bits(got[u]) != math.Float64bits(want[u]) {
				t.Fatalf("context path diverged at %d: %g vs %g", u, got[u], want[u])
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, err := PortfolioSingleSourceContext(ctx, p, 2); !errors.Is(err, ErrCanceled) {
			t.Fatalf("canceled context: err=%v, want ErrCanceled", err)
		}
	})

	t.Run("ColumnViewAndFootprint", func(t *testing.T) {
		for j := range p.Landmarks {
			idx := p.Index(j)
			if idx.Landmark != p.Landmarks[j] {
				t.Fatalf("Index(%d).Landmark = %d, want %d", j, idx.Landmark, p.Landmarks[j])
			}
		}
		if want := int64(p.K()) * int64(g.N()) * 8; p.MemoryBytes() != want {
			t.Fatalf("MemoryBytes = %d, want %d", p.MemoryBytes(), want)
		}
	})
}

func TestParseLandmarkList(t *testing.T) {
	got, err := ParseLandmarkList(" 3, 17,42 ")
	if err != nil || len(got) != 3 || got[0] != 3 || got[1] != 17 || got[2] != 42 {
		t.Fatalf("ParseLandmarkList = %v, %v", got, err)
	}
	if got, err := ParseLandmarkList(""); err != nil || got != nil {
		t.Errorf("empty list = %v, %v, want nil, nil", got, err)
	}
	for _, bad := range []string{"1,x", "1,,2", "-4", "1,1"} {
		if _, err := ParseLandmarkList(bad); err == nil {
			t.Errorf("ParseLandmarkList(%q) accepted", bad)
		}
	}
}
