package sketch

import (
	"fmt"
	"math"
	"testing"

	"landmarkrd/internal/graph"
	"landmarkrd/internal/lap"
	"landmarkrd/internal/linalg"
	"landmarkrd/internal/randx"
)

func TestSketchRelativeError(t *testing.T) {
	rng := randx.New(1)
	g, err := graph.BarabasiAlbert(200, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := Build(g, Options{Epsilon: 0.15}, rng)
	if err != nil {
		t.Fatal(err)
	}
	maxRel := 0.0
	for _, pair := range [][2]int{{0, 100}, {5, 150}, {33, 77}, {1, 199}} {
		want, err := lap.ResistanceCG(g, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.Resistance(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(got-want) / want
		if rel > maxRel {
			maxRel = rel
		}
	}
	// JL bounds are probabilistic; allow 2.5x the target on 4 pairs.
	if maxRel > 0.4 {
		t.Errorf("sketch max relative error %v at eps=0.15", maxRel)
	}
}

func TestSketchSingleSourceMatchesPairQueries(t *testing.T) {
	rng := randx.New(2)
	g, err := graph.WattsStrogatz(120, 3, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := Build(g, Options{K: 200}, rng)
	if err != nil {
		t.Fatal(err)
	}
	src := 7
	all, err := sk.ResistancesFrom(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{0, 40, 119} {
		pair, err := sk.Resistance(src, u)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(all[u]-pair) > 1e-12 {
			t.Errorf("ResistancesFrom[%d] = %v, pair query = %v", u, all[u], pair)
		}
	}
	if all[src] != 0 {
		t.Errorf("self distance = %v", all[src])
	}
}

func TestSketchValidation(t *testing.T) {
	rng := randx.New(3)
	// Disconnected graph must be rejected.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(g, Options{K: 8}, rng); err == nil {
		t.Error("disconnected graph accepted")
	}
	// Tiny graphs rejected.
	b1 := graph.NewBuilder(1)
	g1, _ := b1.Build()
	if _, err := Build(g1, Options{K: 8}, rng); err == nil {
		t.Error("single-vertex graph accepted")
	}
	// Query validation.
	g2, _ := graph.Cycle(6)
	sk, err := Build(g2, Options{K: 16}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sk.Resistance(0, 9); err == nil {
		t.Error("out-of-range query accepted")
	}
	if r, err := sk.Resistance(3, 3); err != nil || r != 0 {
		t.Errorf("self query = %v, %v", r, err)
	}
	if _, err := sk.ResistancesFrom(17); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestRowsFor(t *testing.T) {
	if RowsFor(1000, 0.5) >= RowsFor(1000, 0.25) {
		t.Error("rows should grow as epsilon shrinks")
	}
	if RowsFor(100, 0) < 4 {
		t.Error("defaulted epsilon yields too few rows")
	}
	if k := RowsFor(2, 10); k < 4 {
		t.Errorf("minimum row count violated: %d", k)
	}
}

func TestSketchMemoryBytes(t *testing.T) {
	g, _ := graph.Cycle(50)
	sk, err := Build(g, Options{K: 10}, randx.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if sk.K() != 10 {
		t.Errorf("K = %d", sk.K())
	}
	if sk.MemoryBytes() != 10*50*8 {
		t.Errorf("MemoryBytes = %d", sk.MemoryBytes())
	}
}

func TestSketchOnWeightedGraph(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(1, 2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sk, err := Build(g, Options{K: 400}, randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Resistance(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 + 1.0/3
	if math.Abs(got-want)/want > 0.25 {
		t.Errorf("weighted sketch r = %v, want ~%v", got, want)
	}
}

func TestBuildDeterministicAcrossWorkerCounts(t *testing.T) {
	g, err := graph.BarabasiAlbert(150, 3, randx.New(40))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Build(g, Options{K: 24, Workers: 1}, randx.New(41))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Build(g, Options{K: 24, Workers: 8}, randx.New(41))
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{0, 100}, {7, 77}} {
		a, _ := seq.Resistance(pair[0], pair[1])
		b, _ := par.Resistance(pair[0], pair[1])
		if a != b {
			t.Errorf("worker count changed sketch at %v: %v vs %v", pair, a, b)
		}
	}
}

// weightedTestGraph returns a connected weighted small-world graph.
func weightedTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	ws, err := graph.WattsStrogatz(90, 3, 0.2, randx.New(60))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(ws.N())
	rng := randx.New(61)
	ws.ForEachEdge(func(u, v int32, _ float64) {
		b.AddWeightedEdge(int(u), int(v), 0.25+2*rng.Float64())
	})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRowsMatchCG pins every blocked row to the row-at-a-time solve it
// replaced: rhs Bᵀ W^{1/2} q / √k from the row's own RNG, split off the
// build RNG in row order, then one linalg.CG with ProjectConstant and the
// operator's default Jacobi preconditioner. The row count, 21, leaves a
// partial last block.
func TestRowsMatchCG(t *testing.T) {
	ba, err := graph.BarabasiAlbert(150, 3, randx.New(62))
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{"ba": ba, "ws_w": weightedTestGraph(t)} {
		const k = 21
		n := g.N()
		rng := randx.New(63)
		scale := 1 / math.Sqrt(k)
		want := make([][]float64, k)
		for i := range want {
			rowRNG := rng.Split()
			b := make([]float64, n)
			g.ForEachEdge(func(u, v int32, w float64) {
				sgn := rowRNG.Rademacher() * math.Sqrt(w) * scale
				b[u] += sgn
				b[v] -= sgn
			})
			linalg.ProjectOutConstant(b)
			want[i] = make([]float64, n)
			if _, err := linalg.CG(&lap.Laplacian{G: g}, want[i], b, linalg.CGOptions{Tol: 1e-8, ProjectConstant: true}); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 2} {
			sk, err := Build(g, Options{K: k, Workers: workers}, randx.New(63))
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				for u := range want[i] {
					if math.Float64bits(sk.rows[i][u]) != math.Float64bits(want[i][u]) {
						t.Fatalf("%s workers=%d row %d: [%d] = %v, CG solve %v",
							name, workers, i, u, sk.rows[i][u], want[i][u])
					}
				}
			}
		}
	}
}

// TestColumnsMatchBuild: the streamed columns must equal Build followed by
// ResistancesFrom bit for bit, at several worker counts, for a row count
// (43) that is not a multiple of the block width.
func TestColumnsMatchBuild(t *testing.T) {
	ba, err := graph.BarabasiAlbert(160, 3, randx.New(64))
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{"ba": ba, "ws_w": weightedTestGraph(t)} {
		n := g.N()
		landmarks := []int{g.MaxDegreeVertex(), 0, n - 1, n / 2}
		const k = 43
		sk, err := Build(g, Options{K: k, Workers: 1}, randx.New(65))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3} {
			par, err := Build(g, Options{K: k, Workers: workers}, randx.New(65))
			if err != nil {
				t.Fatal(err)
			}
			for i := range sk.rows {
				for u := range sk.rows[i] {
					if math.Float64bits(par.rows[i][u]) != math.Float64bits(sk.rows[i][u]) {
						t.Fatalf("%s workers=%d: row %d differs at %d", name, workers, i, u)
					}
				}
			}
			cols, err := Columns(g, landmarks, Options{K: k, Workers: workers}, randx.New(65))
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range landmarks {
				want, err := sk.ResistancesFrom(v)
				if err != nil {
					t.Fatal(err)
				}
				for u := range want {
					if math.Float64bits(cols[j][u]) != math.Float64bits(want[u]) {
						t.Fatalf("%s workers=%d landmark %d: column[%d] = %v, sketch %v",
							name, workers, v, u, cols[j][u], want[u])
					}
				}
			}
		}
	}
	g, _ := graph.Cycle(12)
	if _, err := Columns(g, []int{3, 12}, Options{K: 8}, randx.New(66)); err == nil {
		t.Error("out-of-range landmark accepted")
	}
}

func BenchmarkBuildWorkers(b *testing.B) {
	g, err := graph.BarabasiAlbert(3000, 4, randx.New(50))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Build(g, Options{K: 32, Workers: workers, Tol: 1e-6}, randx.New(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
