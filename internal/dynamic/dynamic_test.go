package dynamic

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"landmarkrd/internal/graph"
	"landmarkrd/internal/lap"
	"landmarkrd/internal/randx"
)

func TestAddEdgeMatchesRebuild(t *testing.T) {
	rng := randx.New(1)
	g, err := graph.BarabasiAlbert(150, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	u, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	// Apply a sequence of insertions, checking against a full rebuild
	// after each.
	adds := [][3]float64{{3, 120, 1}, {7, 99, 2.5}, {3, 120, 1}, {0, 149, 0.5}}
	for step, e := range adds {
		if err := u.AddEdge(int(e[0]), int(e[1]), e[2]); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		mat, err := u.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]int{{5, 100}, {3, 120}, {0, 149}} {
			want, err := lap.ResistanceCG(mat, pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			got, err := u.Resistance(pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-6 {
				t.Errorf("step %d pair %v: dynamic %v vs rebuild %v", step, pair, got, want)
			}
		}
	}
	if u.Updates() != len(adds) {
		t.Errorf("Updates() = %d", u.Updates())
	}
}

func TestAddEdgeDecreasesResistance(t *testing.T) {
	g, _ := graph.Path(20)
	u, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := u.Resistance(0, 19)
	if math.Abs(before-19) > 1e-7 {
		t.Fatalf("path resistance %v, want 19", before)
	}
	if err := u.AddEdge(0, 19, 1); err != nil {
		t.Fatal(err)
	}
	after, _ := u.Resistance(0, 19)
	want := 19.0 / 20 // 19 Ω parallel with 1 Ω
	if math.Abs(after-want) > 1e-7 {
		t.Errorf("after shortcut r = %v, want %v", after, want)
	}
}

func TestRemoveConductanceMatchesRebuild(t *testing.T) {
	rng := randx.New(2)
	g, err := graph.ErdosRenyiGNM(100, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	u, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	// Remove an existing (non-bridge) edge entirely.
	var ea, eb int = -1, -1
	g.ForEachEdge(func(a, b int32, w float64) {
		if ea < 0 && g.Degree(int(a)) > 3 && g.Degree(int(b)) > 3 {
			ea, eb = int(a), int(b)
		}
	})
	if ea < 0 {
		t.Skip("no removable edge found")
	}
	if err := u.RemoveConductance(ea, eb, 1); err != nil {
		t.Fatal(err)
	}
	mat, err := u.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{ea, eb}, {0, 99}} {
		want, err := lap.ResistanceCG(mat, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := u.Resistance(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("pair %v: dynamic %v vs rebuild %v", pair, got, want)
		}
	}
}

func TestRemoveBridgeRejected(t *testing.T) {
	g, _ := graph.Path(5) // every edge is a bridge
	u, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.RemoveConductance(2, 3, 1); err == nil {
		t.Error("bridge removal accepted")
	}
	if u.Updates() != 0 {
		t.Error("failed update was recorded")
	}
}

func TestValidation(t *testing.T) {
	g, _ := graph.Cycle(6)
	u, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.AddEdge(1, 1, 1); err == nil {
		t.Error("self loop accepted")
	}
	if err := u.AddEdge(0, 9, 1); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	if err := u.AddEdge(0, 2, -1); err == nil {
		t.Error("negative weight accepted")
	}
	if err := u.RemoveConductance(0, 2, 0); err == nil {
		t.Error("zero removal accepted")
	}
	if err := u.AddEdge(0, 2, math.Inf(1)); err == nil {
		t.Error("infinite weight accepted")
	}
	if u.Updates() != 0 {
		t.Errorf("rejected updates left %d patches", u.Updates())
	}
	if r, err := u.Resistance(3, 3); err != nil || r != 0 {
		t.Errorf("r(3,3) = %v, %v", r, err)
	}
	// Disconnected base graph rejected.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	dg, _ := b.Build()
	if _, err := New(dg); err == nil {
		t.Error("disconnected base accepted")
	}
}

func TestInsertionThenDeletionRoundTrip(t *testing.T) {
	rng := randx.New(3)
	g, err := graph.WattsStrogatz(80, 2, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	u, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := u.Resistance(5, 60)
	if err := u.AddEdge(5, 60, 2); err != nil {
		t.Fatal(err)
	}
	if err := u.RemoveConductance(5, 60, 2); err != nil {
		t.Fatal(err)
	}
	back, _ := u.Resistance(5, 60)
	if math.Abs(back-base) > 1e-6 {
		t.Errorf("insert+delete did not round-trip: %v vs %v", back, base)
	}
}

// TestRandomUpdateSequencesMatchRebuild is the property test of the whole
// module: arbitrary interleavings of insertions and (legal) deletions must
// agree with a full rebuild.
func TestRandomUpdateSequencesMatchRebuild(t *testing.T) {
	err := quick.Check(func(seedRaw uint16) bool {
		rng := randx.New(uint64(seedRaw) + 500)
		g, err := graph.ErdosRenyiGNM(40, 140, rng)
		if err != nil || g.N() < 10 {
			return true
		}
		u, err := New(g)
		if err != nil {
			return false
		}
		type applied struct {
			a, b int
			w    float64
		}
		var inserted []applied
		for step := 0; step < 6; step++ {
			if rng.Float64() < 0.7 || len(inserted) == 0 {
				a, b := rng.Intn(g.N()), rng.Intn(g.N())
				if a == b {
					continue
				}
				w := 0.5 + 2*rng.Float64()
				if err := u.AddEdge(a, b, w); err != nil {
					return false
				}
				inserted = append(inserted, applied{a, b, w})
			} else {
				// Delete a previously inserted edge (always legal: its
				// conductance exists and removal restores a connected state).
				i := rng.Intn(len(inserted))
				e := inserted[i]
				if err := u.RemoveConductance(e.a, e.b, e.w); err != nil {
					return false
				}
				inserted = append(inserted[:i], inserted[i+1:]...)
			}
		}
		mat, err := u.Materialize()
		if err != nil {
			return false
		}
		s, x := rng.Intn(g.N()), rng.Intn(g.N())
		if s == x {
			return true
		}
		want, err := lap.ResistanceCG(mat, s, x)
		if err != nil {
			return false
		}
		got, err := u.Resistance(s, x)
		if err != nil {
			return false
		}
		return math.Abs(got-want) < 1e-6
	}, &quick.Config{MaxCount: 15})
	if err != nil {
		t.Error(err)
	}
}

// TestPatchedPairMatchesRebuild: after each streamed mutation the patched
// pair path must agree with a CG solve on the materialized graph, for
// insertions, a full removal of an insertion, a base edge thickened then
// thinned, and pairs on either side of a mutated edge.
func TestPatchedPairMatchesRebuild(t *testing.T) {
	rng := randx.New(11)
	g, err := graph.BarabasiAlbert(120, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	u, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	e := int(g.Neighbors(5)[0]) // a base edge (5, e) of conductance 1
	muts := []Patch{
		{3, 110, 1.5},  // plain insertion
		{7, 42, 2.0},   // a second insertion
		{3, 110, -1.5}, // full removal of the first insertion
		{0, 119, 0.25},
		{5, e, 1},    // more conductance on a base edge
		{e, 5, -1.5}, // and a removal that leaves half the base edge
	}
	for step, mu := range muts {
		if mu.W > 0 {
			err = u.AddEdge(mu.A, mu.B, mu.W)
		} else {
			err = u.RemoveConductance(mu.A, mu.B, -mu.W)
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		mat, err := u.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]int{{5, 100}, {3, 110}, {7, 42}, {42, 7}, {0, 119}, {5, e}} {
			want, err := lap.ResistanceCG(mat, pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			got, err := u.Resistance(pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9*want {
				t.Errorf("step %d pair %v: patched %v vs rebuild %v", step, pair, got, want)
			}
		}
	}
	if u.Updates() != len(muts) {
		t.Errorf("Updates() = %d, want %d", u.Updates(), len(muts))
	}
}

// TestPatchedDisconnectingRemovalRejected: a bridge removal fails with the
// typed sentinel, leaves the log empty, and the updater still answers.
func TestPatchedDisconnectingRemovalRejected(t *testing.T) {
	g, _ := graph.Path(6) // every edge is a bridge
	u, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.RemoveConductance(3, 4, 1); !errors.Is(err, ErrDisconnecting) {
		t.Fatalf("bridge removal error = %v, want ErrDisconnecting", err)
	}
	if u.Updates() != 0 {
		t.Error("failed patch was recorded")
	}
	r, err := u.Resistance(0, 5)
	if err != nil || math.Abs(r-5) > 1e-9 {
		t.Errorf("r(0,5) = %v, %v; want 5", r, err)
	}
}

// TestErrDisconnectingTyped: the bridge check matches its typed sentinel
// through errors.Is, and an over-removal matches its own.
func TestErrDisconnectingTyped(t *testing.T) {
	g, _ := graph.Path(5)
	u, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	err = u.RemoveConductance(2, 3, 1)
	if !errors.Is(err, ErrDisconnecting) {
		t.Fatalf("bridge removal error = %v, want ErrDisconnecting", err)
	}
	// Over-removal (more conductance than the pair carries) has its own
	// sentinel, on a bridge and off one.
	for _, g2 := range []*graph.Graph{g, mustCycle(t, 6)} {
		u2, _ := New(g2)
		err = u2.RemoveConductance(0, 1, 5)
		if !errors.Is(err, ErrExceedsConductance) || errors.Is(err, ErrDisconnecting) {
			t.Fatalf("over-removal error = %v, want ErrExceedsConductance only", err)
		}
	}
}

func mustCycle(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.Cycle(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCheckMatchesMaterialize: the update check accepts a delta exactly
// when MaterializeGraph of the log with the delta succeeds and is
// connected, on a stream that adds, removes exactly what was added,
// over-removes, removes from non-edges, and takes whole base edges
// (bridges among them) out of a sparse graph.
func TestCheckMatchesMaterialize(t *testing.T) {
	rng := randx.New(21)
	g, err := graph.WattsStrogatz(40, 1, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	u, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	var edges [][2]int
	g.ForEachEdge(func(a, b int32, _ float64) { edges = append(edges, [2]int{int(a), int(b)}) })
	accepted, exceeds, disconnects := 0, 0, 0
	for step := 0; step < 400; step++ {
		var p Patch
		switch rng.Intn(4) {
		case 0: // add
			p = Patch{rng.Intn(g.N()), rng.Intn(g.N()), 0.5 + rng.Float64()}
		case 1: // take a base edge out whole
			e := edges[rng.Intn(len(edges))]
			p = Patch{e[0], e[1], -1}
		case 2: // remove exactly what an earlier patch added, or more
			log := u.Patches()
			if len(log) == 0 {
				continue
			}
			q := log[rng.Intn(len(log))]
			p = Patch{q.B, q.A, -math.Abs(q.W) * float64(1+rng.Intn(2))}
		case 3: // any pair, often a non-edge
			p = Patch{rng.Intn(g.N()), rng.Intn(g.N()), -0.5}
		}
		if p.A == p.B {
			continue
		}
		mat, merr := MaterializeGraph(g, append(u.Patches(), p))
		want := merr == nil && mat.IsConnected()
		if p.W > 0 {
			err = u.AddEdge(p.A, p.B, p.W)
		} else {
			err = u.RemoveConductance(p.A, p.B, -p.W)
		}
		if got := err == nil; got != want {
			t.Fatalf("step %d: patch %+v: check accepted=%v (%v), materialize ok=%v (%v)", step, p, got, err, want, merr)
		}
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrExceedsConductance):
			exceeds++
		case errors.Is(err, ErrDisconnecting):
			disconnects++
		default:
			t.Fatalf("step %d: untyped rejection %v", step, err)
		}
	}
	t.Logf("%d accepted, %d over-removals, %d bridge removals", accepted, exceeds, disconnects)
	if accepted < 50 || exceeds < 20 || disconnects < 20 {
		t.Fatalf("stream too one-sided: %d accepted, %d over-removals, %d bridge removals", accepted, exceeds, disconnects)
	}
	if _, err := u.Materialize(); err != nil {
		t.Fatalf("accepted log does not materialize: %v", err)
	}
}

// TestUpdaterQueriesRaceMutations exercises the copy-on-write update log:
// concurrent Resistance calls against a serialized mutation stream must be
// race-free and always observe a consistent prefix. Run with -race.
func TestUpdaterQueriesRaceMutations(t *testing.T) {
	rng := randx.New(13)
	g, err := graph.ErdosRenyiGNM(60, 240, rng)
	if err != nil {
		t.Fatal(err)
	}
	u, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			a, b := (i*7)%g.N(), (i*13+1)%g.N()
			if a == b {
				continue
			}
			if err := u.AddEdge(a, b, 1); err != nil {
				t.Errorf("AddEdge: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 40; i++ {
		r, err := u.Resistance(i%g.N(), (i*3+1)%g.N())
		if err != nil {
			t.Fatalf("Resistance: %v", err)
		}
		if math.IsNaN(r) || r < 0 {
			t.Fatalf("Resistance returned %v", r)
		}
	}
	<-done
}
