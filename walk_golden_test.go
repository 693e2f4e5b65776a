package landmarkrd

// Bit-level goldens for every absorbed-walk consumer on unweighted graphs.
// The walk kernel and its scheduling may be restructured freely, but each
// walk must draw from its own stream (keyed by seed, pair or vertex, side
// and walk index) exactly as before and every visit count must convert to
// the same float64, so these values are frozen: AbWalk and BiPush pairs,
// AdaptivePairs, and the DiagMC index diagonal, each on three unweighted
// corpus graphs. The K=3 portfolio columns of every diagonal
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
	"ba_200_4/abwalk":               "3fd1497858b76123/133214 3fe14dd2f1a9fbe7/117581 3fe0a786c226809d/129938",
	"ba_200_4/bipush":               "3fd1fb42dfb17b90/32788 3fe1627944b68799/32549 3fe025243004e7e4/31536",
	"ba_200_4/AdaptivePairs":        "3fd118305c296a7b/14134 3fe0ff2920bc035b/18238 3fe0ce9a0ce9a0a4/46689",
	"ba_200_4/DiagMC":               "521964a022d86b3c",
	"ba_200_4/DiagSketch":           "cf1d2d726f63ac2f",
	"ba_200_4/BuildSketch":          "170/97dadbffe673d1a1",
	"ba_200_4/portfolio-exact-cg":   "[3 1 0]/abb7f7523120650b",
	"ba_200_4/portfolio-mc":         "[3 1 0]/a15052716129e045",
	"ba_200_4/portfolio-sketch":     "[3 1 0]/a48697346d8db0eb",
	"cycle_48/abwalk":               "400d7a5e353f7ced/403844 40256126e978d4fd/2082014 40244083126e978e/1770352",
	"cycle_48/bipush":               "400d9eea5c969944/269887 4025ad410fca7040/425675 40237d38a3290e68/395208",
	"cycle_48/AdaptivePairs":        "400ba2e8ba2e8ba3/10294 40258ebaebaebaec/521690 402461729ef39e8d/589469",
	"cycle_48/DiagMC":               "ddd2b21656cc4cd0",
	"cycle_48/DiagSketch":           "7b9128b5a1135024",
	"cycle_48/BuildSketch":          "124/23507939a38aab86",
	"cycle_48/portfolio-exact-cg":   "[0 25 37]/c59d57846e36206c",
	"cycle_48/portfolio-mc":         "[0 25 37]/5925082539721ee0",
	"cycle_48/portfolio-sketch":     "[0 25 37]/b94f70d368b72785",
	"grid_14x14/abwalk":             "400ccf87d9c54a69/2349418 3ffa5f3b645a1ca8/3681752 40023126e978d4fe/3404178",
	"grid_14x14/bipush":             "400cac8d0cdb504a/691473 3ff923275ba81c42/895649 4000ebb12cd7446d/839563",
	"grid_14x14/AdaptivePairs":      "40095d600e4bf37d/430926 3ff80214d0214d02/888408 4000427c98ddf8ae/530048",
	"grid_14x14/DiagMC":             "451e5b7cc895186a",
	"grid_14x14/DiagSketch":         "7d634210f31c0988",
	"grid_14x14/BuildSketch":        "169/6d306c33f71a4750",
	"grid_14x14/portfolio-exact-cg": "[4 178 153]/6cc91ebaf4477618",
	"grid_14x14/portfolio-mc":       "[4 178 153]/2120066cefa4f7b6",
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
	"ba_120_2_weighted/abwalk":             "3fec10cb295e9e1b/58457 3ff2d2f1a9fbe76c/46399 3fe59af72015d868/52328",
	"ba_120_2_weighted/bipush":             "3fec1a1dad2bb904/13294 3ff2c2a7d3a76acc/13317 3fe548afdee58eac/13465",
	"ba_120_2_weighted/AdaptivePairs":      "3fec237c32b16d43/23656 3ff2d593bfa2608c/3935 3fe5e60bcc17982d/6069",
	"ba_120_2_weighted/DiagMC":             "e025b98314d86e9c",
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
