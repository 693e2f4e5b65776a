package landmarkrd_test

import (
	"math"
	"strings"
	"testing"

	landmarkrd "landmarkrd"
)

func TestPublicAPIQuickstartFlow(t *testing.T) {
	g, err := landmarkrd.BarabasiAlbert(500, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	s, u := 17, 420
	exact, err := landmarkrd.Exact(g, s, u)
	if err != nil {
		t.Fatal(err)
	}
	if exact <= 0 {
		t.Fatalf("exact r = %v", exact)
	}
	for _, m := range []landmarkrd.Method{landmarkrd.AbWalk, landmarkrd.Push, landmarkrd.BiPush} {
		est, err := landmarkrd.NewEstimator(g, m, landmarkrd.Options{Seed: 7})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if est.Method() != m {
			t.Errorf("Method() = %v, want %v", est.Method(), m)
		}
		qs, qu := s, u
		if est.Landmark() == s || est.Landmark() == u {
			qs, qu = s+1, u+1
		}
		res, err := est.Pair(qs, qu)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		want, _ := landmarkrd.Exact(g, qs, qu)
		tol := 0.05 * math.Max(want, 0.2)
		if m == landmarkrd.Push {
			tol = 1e-3
		}
		if math.Abs(res.Value-want) > tol {
			t.Errorf("%v: %v, want %v", m, res.Value, want)
		}
	}
}

func TestMethodString(t *testing.T) {
	if landmarkrd.AbWalk.String() != "abwalk" ||
		landmarkrd.Push.String() != "push" ||
		landmarkrd.BiPush.String() != "bipush" {
		t.Error("Method.String() mismatch")
	}
	if landmarkrd.Method(9).String() == "" {
		t.Error("unknown method empty string")
	}
}

func TestNewEstimatorUnknownMethod(t *testing.T) {
	g, _ := landmarkrd.BarabasiAlbert(100, 3, 1)
	if _, err := landmarkrd.NewEstimator(g, landmarkrd.Method(42), landmarkrd.Options{}); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestEstimatorLandmarkConflict(t *testing.T) {
	g, _ := landmarkrd.BarabasiAlbert(100, 3, 1)
	est, err := landmarkrd.NewEstimatorAt(g, landmarkrd.Push, 5, landmarkrd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Landmark() != 5 {
		t.Errorf("Landmark() = %d", est.Landmark())
	}
	if _, err := est.Pair(5, 10); err != landmarkrd.ErrLandmarkConflict {
		t.Errorf("Pair(landmark,.) = %v", err)
	}
}

func TestGenerators(t *testing.T) {
	cases := []struct {
		name string
		gen  func() (*landmarkrd.Graph, error)
	}{
		{"ba", func() (*landmarkrd.Graph, error) { return landmarkrd.BarabasiAlbert(300, 3, 1) }},
		{"er", func() (*landmarkrd.Graph, error) { return landmarkrd.ErdosRenyi(300, 900, 1) }},
		{"grid", func() (*landmarkrd.Graph, error) { return landmarkrd.Grid(15, 20, 0.05, 1) }},
		{"ws", func() (*landmarkrd.Graph, error) { return landmarkrd.WattsStrogatz(300, 3, 0.1, 1) }},
	}
	for _, c := range cases {
		g, err := c.gen()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !g.IsConnected() {
			t.Errorf("%s not connected", c.name)
		}
	}
}

func TestConditionNumberAPI(t *testing.T) {
	ba, _ := landmarkrd.BarabasiAlbert(500, 4, 1)
	grid, _ := landmarkrd.Grid(25, 25, 0, 1)
	kBA, err := landmarkrd.ConditionNumber(ba, 1)
	if err != nil {
		t.Fatal(err)
	}
	kGrid, err := landmarkrd.ConditionNumber(grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	if kGrid < 3*kBA {
		t.Errorf("grid kappa %v not much larger than BA kappa %v", kGrid, kBA)
	}
}

func TestCommuteTimeAPI(t *testing.T) {
	g, err := landmarkrd.ErdosRenyi(100, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := landmarkrd.Exact(g, 0, 50)
	c, err := landmarkrd.CommuteTime(g, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-g.Volume()*r) > 1e-6 {
		t.Errorf("commute = %v, want %v", c, g.Volume()*r)
	}
}

func TestLandmarkIndexAPI(t *testing.T) {
	g, _ := landmarkrd.BarabasiAlbert(200, 4, 5)
	v, err := landmarkrd.SelectLandmark(g, landmarkrd.MaxDegree, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := landmarkrd.BuildLandmarkIndex(g, v, landmarkrd.DiagExactCG, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := (v + 3) % g.N()
	all, err := landmarkrd.SingleSource(idx, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{0, 100, 199} {
		if u == s {
			continue
		}
		want, _ := landmarkrd.Exact(g, s, u)
		if math.Abs(all[u]-want) > 1e-5 {
			t.Errorf("single-source[%d] = %v, want %v", u, all[u], want)
		}
	}
}

func TestSketchAPI(t *testing.T) {
	g, _ := landmarkrd.BarabasiAlbert(200, 4, 6)
	sk, err := landmarkrd.BuildSketch(g, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := landmarkrd.Exact(g, 3, 150)
	got, err := sk.Resistance(3, 150)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want)/want > 0.5 {
		t.Errorf("sketch r = %v, want ~%v", got, want)
	}
}

func TestLoadEdgeListAPI(t *testing.T) {
	g, idOf, err := landmarkrd.ReadEdgeList(strings.NewReader("1 2\n2 3\n3 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 || len(idOf) != 3 {
		t.Errorf("n=%d m=%d ids=%d", g.N(), g.M(), len(idOf))
	}
	if _, _, err := landmarkrd.LoadEdgeList("/nonexistent/file.txt"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestBuilderAPI(t *testing.T) {
	b := landmarkrd.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddWeightedEdge(1, 2, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + 0.5
	r, _ := landmarkrd.Exact(g, 0, 2)
	if math.Abs(r-want) > 1e-8 {
		t.Errorf("series r = %v, want %v", r, want)
	}
}

func TestOptionsSeedZeroIsUsable(t *testing.T) {
	g, _ := landmarkrd.BarabasiAlbert(100, 3, 9)
	est, err := landmarkrd.NewEstimator(g, landmarkrd.BiPush, landmarkrd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, u := 1, 50
	if est.Landmark() == s || est.Landmark() == u {
		s, u = 2, 51
	}
	if _, err := est.Pair(s, u); err != nil {
		t.Fatal(err)
	}
}

func TestElectricFlowAPI(t *testing.T) {
	g, _ := landmarkrd.ErdosRenyi(150, 600, 21)
	f, err := landmarkrd.ComputeElectricFlow(g, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := landmarkrd.Exact(g, 3, 100)
	if math.Abs(f.Energy()-want) > 1e-6 {
		t.Errorf("flow energy %v, want r = %v", f.Energy(), want)
	}
	phi, err := landmarkrd.Potential(g, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((phi[3]-phi[100])-want) > 1e-6 {
		t.Errorf("potential difference %v, want %v", phi[3]-phi[100], want)
	}
}

func TestLapSolverAPI(t *testing.T) {
	g, _ := landmarkrd.Grid(20, 20, 0, 31)
	solver, err := landmarkrd.NewLapSolver(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]int{{0, 399}, {10, 200}} {
		want, _ := landmarkrd.Exact(g, p[0], p[1])
		got, err := solver.Resistance(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("lapsolver r%v = %v, want %v", p, got, want)
		}
	}
}

func TestPairWithinEpsAPI(t *testing.T) {
	g, _ := landmarkrd.BarabasiAlbert(300, 4, 23)
	est, err := landmarkrd.NewEstimator(g, landmarkrd.Push, landmarkrd.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, u := 5, 200
	if est.Landmark() == s || est.Landmark() == u {
		s, u = 6, 201
	}
	res, err := est.PairWithinEps(s, u, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := landmarkrd.Exact(g, s, u)
	if math.Abs(res.Value-want) > 0.01 {
		t.Errorf("PairWithinEps error %v exceeds 0.01", math.Abs(res.Value-want))
	}
	bad, _ := landmarkrd.NewEstimator(g, landmarkrd.BiPush, landmarkrd.Options{Seed: 1})
	if _, err := bad.PairWithinEps(s, u, 0.01); err == nil {
		t.Error("PairWithinEps on BiPush accepted")
	}
}

func TestDynamicUpdaterAPI(t *testing.T) {
	g, _ := landmarkrd.BarabasiAlbert(100, 3, 24)
	u, err := landmarkrd.NewDynamic(g)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := u.Resistance(3, 90)
	if err := u.AddEdge(3, 90, 5); err != nil {
		t.Fatal(err)
	}
	after, err := u.Resistance(3, 90)
	if err != nil {
		t.Fatal(err)
	}
	// Parallel law: 1/r' = 1/r + 5.
	want := 1 / (1/before + 5)
	if math.Abs(after-want) > 1e-6 {
		t.Errorf("after = %v, want %v", after, want)
	}
}
