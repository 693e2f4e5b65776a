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
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
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
