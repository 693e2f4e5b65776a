package landmarkrd

// Bit-level goldens for every absorbed-walk consumer on unweighted graphs.
// The walk kernel may be restructured freely, but on an unweighted graph
// each step must draw from the RNG exactly as before and every visit count
// must convert to the same float64, so these values are frozen: AbWalk and
// BiPush pairs, AdaptivePairs, and the DiagMC index diagonal, each on three
// unweighted corpus graphs. The K=3 portfolio columns of every diagonal
// mode are frozen alongside: the router reads them, so a column builder
// that drifts would move every routed answer. So are a single-landmark
// DiagSketch column and the rows of the public BuildSketch, which share
// the blocked sketch row solver with the portfolio's sketch columns.

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"landmarkrd/internal/lap"
)

// walkGoldens maps "graph/consumer" to the frozen record of that consumer:
// value bits and walk steps per pair, an FNV-64a digest of a single-landmark
// diagonal's bits, a portfolio's landmarks and the digest of its columns, or
// a sketch's row count and the digest of its serialized rows.
var walkGoldens = map[string]string{
	"ba_200_4/abwalk":               "3fd187d9c54a6921/133011 3fe13645a1cac083/115325 3fe07f62b6ae7d56/132075",
	"ba_200_4/bipush":               "3fd0b09b9af4d2ed/31641 3fe1954783280ea2/31038 3fe05bf2558d0ec4/31800",
	"ba_200_4/AdaptivePairs":        "3fd12287f5b6b841/14308 3fe0e8241c5f6f8f/24164 3fe0cc1d73ed817c/38595",
	"ba_200_4/DiagMC":               "ab6a59ecde1b1456",
	"ba_200_4/DiagSketch":           "cf1d2d726f63ac2f",
	"ba_200_4/BuildSketch":          "170/97dadbffe673d1a1",
	"ba_200_4/portfolio-exact-cg":   "[3 1 0]/abb7f7523120650b",
	"ba_200_4/portfolio-mc":         "[3 1 0]/50e29f169a92eecc",
	"ba_200_4/portfolio-sketch":     "[3 1 0]/a48697346d8db0eb",
	"cycle_48/abwalk":               "400d420c49ba5e36/374500 40264e147ae147ae/2070286 4023d6a7ef9db22c/1810516",
	"cycle_48/bipush":               "400d4c2f2f8a63a3/281956 4024dffc93f9956e/438103 4024ef7ca8e5298e/419638",
	"cycle_48/AdaptivePairs":        "401160b60b60b60b/9386 4026736b6ea08c95/694768 4025aed12ed12ed1/444744",
	"cycle_48/DiagMC":               "8c8f6ed962b801c1",
	"cycle_48/DiagSketch":           "7b9128b5a1135024",
	"cycle_48/BuildSketch":          "124/23507939a38aab86",
	"cycle_48/portfolio-exact-cg":   "[0 25 37]/c59d57846e36206c",
	"cycle_48/portfolio-mc":         "[0 25 37]/2da26e03492961de",
	"cycle_48/portfolio-sketch":     "[0 25 37]/b94f70d368b72785",
	"grid_14x14/abwalk":             "400e28f5c28f5c29/2238736 3ff928f5c28f5c26/3680784 400282d0e560418b/3331108",
	"grid_14x14/bipush":             "400da24a7efe26fb/685145 3ff87512e0c6d491/900526 400146d3fdbca4ae/860317",
	"grid_14x14/AdaptivePairs":      "400d665f215dda28/683814 3ffe6d9601cbe6d9/555969 4003141c4365a39d/549064",
	"grid_14x14/DiagMC":             "5d0e1d1657dab1e4",
	"grid_14x14/DiagSketch":         "7d634210f31c0988",
	"grid_14x14/BuildSketch":        "169/6d306c33f71a4750",
	"grid_14x14/portfolio-exact-cg": "[4 178 153]/6cc91ebaf4477618",
	"grid_14x14/portfolio-mc":       "[4 178 153]/e03423e179ac6190",
	"grid_14x14/portfolio-sketch":   "[4 178 153]/616932852e19d5e1",
}

// goldenPairs returns three fixed query pairs spread over [0, n) that avoid
// the landmark.
func goldenPairs(n, landmark int) []PairQuery {
	var out []PairQuery
	for _, p := range [][2]int{{1, n - 2}, {n / 3, 2 * n / 3}, {n / 5, n / 2}} {
		s, t := p[0], p[1]
		if s == landmark {
			s++
		}
		if t == landmark {
			t--
		}
		out = append(out, PairQuery{S: s, T: t})
	}
	return out
}

// columnsDigest is the FNV-64a digest of the columns' float64 bits, in
// order.
func columnsDigest(cols ...[]float64) string {
	h := fnv.New64a()
	for _, col := range cols {
		for _, d := range col {
			fmt.Fprintf(h, "%016x", math.Float64bits(d))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func estimateRecord(e Estimate) string {
	return fmt.Sprintf("%016x/%d", math.Float64bits(e.Value), e.WalkSteps)
}

func TestWalkConsumersUnweightedGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is not a -short test")
	}
	for _, name := range []string{"ba_200_4", "cycle_48", "grid_14x14"} {
		g, _, err := LoadEdgeList(corpusDir + "/" + name + ".edges")
		if err != nil {
			t.Fatal(err)
		}
		if g.Weighted() {
			t.Fatalf("%s: golden graphs must be unweighted", name)
		}
		landmark := g.MaxDegreeVertex()
		pairs := goldenPairs(g.N(), landmark)
		got := map[string]string{}

		for _, m := range []Method{AbWalk, BiPush} {
			est, err := NewEstimatorAt(g, m, landmark, Options{Seed: 17})
			if err != nil {
				t.Fatal(err)
			}
			var recs []string
			for _, q := range pairs {
				res, err := est.Pair(q.S, q.T)
				if err != nil {
					t.Fatalf("%s %v%v: %v", name, m, q, err)
				}
				recs = append(recs, estimateRecord(res))
			}
			got[name+"/"+m.String()] = strings.Join(recs, " ")
		}

		engine, err := NewBatchEngine(g, AbWalk, BatchOptions{
			Options: Options{Seed: 17}, Workers: 2, PinLandmark: true, Landmark: landmark,
		})
		if err != nil {
			t.Fatal(err)
		}
		ares, err := engine.AdaptivePairs(pairs, AdaptiveBatchOptions{TotalWalks: 1200, PilotWalks: 32})
		if err != nil {
			t.Fatal(err)
		}
		var recs []string
		for _, r := range ares {
			if r.Err != nil {
				t.Fatalf("%s AdaptivePairs%v: %v", name, r.PairQuery, r.Err)
			}
			recs = append(recs, estimateRecord(r.Estimate))
		}
		got[name+"/AdaptivePairs"] = strings.Join(recs, " ")

		idx, err := BuildLandmarkIndexOpts(g, landmark, IndexBuildOptions{Mode: DiagMC, Seed: 17, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		got[name+"/DiagMC"] = columnsDigest(idx.Diag)

		idx, err = BuildLandmarkIndexOpts(g, landmark, IndexBuildOptions{Mode: DiagSketch, Seed: 17, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		got[name+"/DiagSketch"] = columnsDigest(idx.Diag)

		sk, err := BuildSketch(g, 0.5, 17)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		if _, err := sk.WriteTo(h); err != nil {
			t.Fatal(err)
		}
		got[name+"/BuildSketch"] = fmt.Sprintf("%d/%016x", sk.K(), h.Sum64())

		for _, mode := range []DiagMode{DiagExactCG, DiagMC, DiagSketch} {
			pf, err := BuildPortfolioIndex(g, PortfolioBuildOptions{K: 3, Mode: mode, Seed: 17, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			got[name+"/portfolio-"+mode.String()] = fmt.Sprintf("%v/%s", pf.Landmarks, columnsDigest(pf.Cols...))
		}

		for key, rec := range got {
			if want := walkGoldens[key]; rec != want {
				t.Errorf("%s:\n  got  %q\n  want %q", key, rec, want)
			}
		}
	}
}

// weightedWalkGoldens freezes the same walk consumers on a weighted corpus
// graph, where every step draws through the alias table: live replicas
// serve weighted graphs after their first re-base.
var weightedWalkGoldens = map[string]string{
	"ba_120_2_weighted/abwalk":             "3fec71758e219654/58977 3ff2999999999999/46628 3fe504189374bc6a/51460",
	"ba_120_2_weighted/bipush":             "3fecc0f81983d60d/14242 3ff29490b9af7201/13828 3fe56c737077399d/13513",
	"ba_120_2_weighted/AdaptivePairs":      "3fec3aef6ca97076/16039 3ff3040b8ebc6365/10971 3fe46e61a525c8ce/4776",
	"ba_120_2_weighted/DiagMC":             "57b1c711fc730a3c",
	"ba_120_2_weighted/portfolio-exact-cg": "[3 111 51]/b0773d617c5c983d",
	"ba_120_2_weighted/portfolio-sketch":   "[3 111 51]/59718ce1595ff793",
}

func TestWalkConsumersWeightedGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is not a -short test")
	}
	const name = "ba_120_2_weighted"
	g, _, err := LoadEdgeList(corpusDir + "/" + name + ".edges")
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatalf("%s: graph must be weighted", name)
	}
	landmark := g.MaxDegreeVertex()
	pairs := goldenPairs(g.N(), landmark)
	got := map[string]string{}
	for _, m := range []Method{AbWalk, BiPush} {
		est, err := NewEstimatorAt(g, m, landmark, Options{Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		var recs []string
		for _, q := range pairs {
			res, err := est.Pair(q.S, q.T)
			if err != nil {
				t.Fatalf("%v%v: %v", m, q, err)
			}
			recs = append(recs, estimateRecord(res))
		}
		got[name+"/"+m.String()] = strings.Join(recs, " ")
	}
	engine, err := NewBatchEngine(g, AbWalk, BatchOptions{
		Options: Options{Seed: 17}, Workers: 2, PinLandmark: true, Landmark: landmark,
	})
	if err != nil {
		t.Fatal(err)
	}
	ares, err := engine.AdaptivePairs(pairs, AdaptiveBatchOptions{TotalWalks: 1200, PilotWalks: 32})
	if err != nil {
		t.Fatal(err)
	}
	var recs []string
	for _, r := range ares {
		if r.Err != nil {
			t.Fatalf("AdaptivePairs%v: %v", r.PairQuery, r.Err)
		}
		recs = append(recs, estimateRecord(r.Estimate))
	}
	got[name+"/AdaptivePairs"] = strings.Join(recs, " ")
	idx, err := BuildLandmarkIndexOpts(g, landmark, IndexBuildOptions{Mode: DiagMC, Seed: 17, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got[name+"/DiagMC"] = columnsDigest(idx.Diag)
	for _, mode := range []DiagMode{DiagExactCG, DiagSketch} {
		pf, err := BuildPortfolioIndex(g, PortfolioBuildOptions{K: 3, Mode: mode, Seed: 17, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		got[name+"/portfolio-"+mode.String()] = fmt.Sprintf("%v/%s", pf.Landmarks, columnsDigest(pf.Cols...))
	}

	if len(got) != len(weightedWalkGoldens) {
		t.Errorf("%d records, %d goldens", len(got), len(weightedWalkGoldens))
	}
	for key, rec := range got {
		if want := weightedWalkGoldens[key]; rec != want {
			t.Errorf("%s:\n  got  %q\n  want %q", key, rec, want)
		}
	}
}

// blockSolveGoldens freezes the block-CG consumers at the shapes the
// interleaved solver must keep bit for bit: a K=4 DiagSketch portfolio at
// rdload's size, built by one worker (whose Laplacian sweeps row-parallelize
// above the work threshold) and by two; a chol-preconditioned DiagExact
// column, whose preconditioner runs per column; and one grounded batch of
// twelve pairs, more than one block wide, whose columns converge at
// different iterations.
var blockSolveGoldens = map[string]string{
	"ba_5000_4/portfolio-sketch/workers=1": "[3 8 11 22]/3b67d695b66b9db7",
	"ba_5000_4/portfolio-sketch/workers=2": "[3 8 11 22]/3b67d695b66b9db7",
	"grid_14x14/DiagExact-chol":            "8be4b6ab77d8029f",
	"ws_180_4/ResistanceBatchCG-12":        "13f9018d9db88412",
}

func TestBlockSolveGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is not a -short test")
	}
	got := map[string]string{}
	ba, err := BarabasiAlbert(5000, 4, 2023)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		pf, err := BuildPortfolioIndex(ba, PortfolioBuildOptions{K: 4, Mode: DiagSketch, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("ba_5000_4/portfolio-sketch/workers=%d", workers)] = fmt.Sprintf("%v/%s", pf.Landmarks, columnsDigest(pf.Cols...))
	}

	grid, _, err := LoadEdgeList(corpusDir + "/grid_14x14.edges")
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildLandmarkIndexOpts(grid, grid.MaxDegreeVertex(), IndexBuildOptions{
		Mode: DiagExactCG, Precond: PrecondChol, Seed: 17, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	got["grid_14x14/DiagExact-chol"] = columnsDigest(idx.Diag)

	ws, _, err := LoadEdgeList(corpusDir + "/ws_180_4.edges")
	if err != nil {
		t.Fatal(err)
	}
	// Twelve pairs that all ground at vertex 0, from neighbours to
	// far-apart vertices, so the block is wider than eight columns and
	// its columns leave it at different iterations.
	var pairs [][2]int
	iters := map[int]bool{}
	for i := 0; i < 12; i++ {
		s, tv := 1+i, 2+i*14
		pairs = append(pairs, [2]int{s, tv})
		b := make([]float64, ws.N())
		b[s], b[tv] = 1, -1
		_, res, err := lap.GroundedSolve(ws, lap.GroundVertex(ws, s, tv), b, lap.ExactTol)
		if err != nil {
			t.Fatal(err)
		}
		iters[res.Iterations] = true
	}
	if len(iters) < 2 {
		t.Fatal("test is vacuous: every pair converges at the same iteration")
	}
	values, errs, err := lap.ResistanceBatchCG(context.Background(), ws, 0, pairs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("pair %v: %v", pairs[i], e)
		}
	}
	got["ws_180_4/ResistanceBatchCG-12"] = columnsDigest(values)

	if len(got) != len(blockSolveGoldens) {
		t.Errorf("%d records, %d goldens", len(got), len(blockSolveGoldens))
	}
	for key, rec := range got {
		if want := blockSolveGoldens[key]; rec != want {
			t.Errorf("%s:\n  got  %q\n  want %q", key, rec, want)
		}
	}
}
