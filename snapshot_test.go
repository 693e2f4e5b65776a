package landmarkrd_test

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"testing"

	landmarkrd "landmarkrd"
)

// TestSnapshotRoundTripCorpus: for every conformance corpus graph and every
// diagonal mode, a single-landmark index — a K=1 portfolio — written with
// WriteTo and read back with ReadPortfolioFrom is Float64bits-identical to
// the freshly built one, both in the stored column and in the single-source
// answers derived from it.
func TestSnapshotRoundTripCorpus(t *testing.T) {
	graphs, err := filepath.Glob("testdata/corpus/*.edges")
	if err != nil {
		t.Fatal(err)
	}
	if len(graphs) == 0 {
		t.Fatal("empty conformance corpus")
	}
	modes := []landmarkrd.DiagMode{landmarkrd.DiagExactCG, landmarkrd.DiagMC}
	for _, path := range graphs {
		for _, mode := range modes {
			t.Run(filepath.Base(path)+"/"+mode.String(), func(t *testing.T) {
				g, _, err := landmarkrd.LoadEdgeList(path)
				if err != nil {
					t.Fatal(err)
				}
				pf, err := landmarkrd.BuildPortfolioIndex(g, landmarkrd.PortfolioBuildOptions{
					Landmarks: []int{g.MaxDegreeVertex()}, Mode: mode, Seed: 7,
				})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if _, err := pf.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				got, err := landmarkrd.ReadPortfolioFrom(&buf, g)
				if err != nil {
					t.Fatal(err)
				}
				if got.K() != 1 || got.Primary() != pf.Primary() || got.Mode != pf.Mode {
					t.Fatalf("header changed: landmarks %v mode %v, want %v %v",
						got.Landmarks, got.Mode, pf.Landmarks, pf.Mode)
				}
				for i := range pf.Cols[0] {
					if math.Float64bits(got.Cols[0][i]) != math.Float64bits(pf.Cols[0][i]) {
						t.Fatalf("Cols[0][%d]: %x, want %x", i,
							math.Float64bits(got.Cols[0][i]), math.Float64bits(pf.Cols[0][i]))
					}
				}
				s := (pf.Primary() + 1) % g.N()
				a, _, err := landmarkrd.PortfolioSingleSource(pf, s)
				if err != nil {
					t.Fatal(err)
				}
				b, _, err := landmarkrd.PortfolioSingleSource(got, s)
				if err != nil {
					t.Fatal(err)
				}
				for i := range a {
					if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
						t.Fatalf("single-source diverged at vertex %d: %g vs %g", i, b[i], a[i])
					}
				}
			})
		}
	}
}

// TestSnapshotGraphBinding: a snapshot only loads against the graph it was
// built from; a different corpus graph is rejected with the typed mismatch
// sentinel through the public API.
func TestSnapshotGraphBinding(t *testing.T) {
	g, _, err := landmarkrd.LoadEdgeList("testdata/corpus/grid_14x14.edges")
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := landmarkrd.LoadEdgeList("testdata/corpus/er_150.edges")
	if err != nil {
		t.Fatal(err)
	}
	pf, err := landmarkrd.BuildPortfolioIndex(g, landmarkrd.PortfolioBuildOptions{Landmarks: []int{0}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := pf.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := landmarkrd.ReadPortfolioFrom(bytes.NewReader(buf.Bytes()), other); !errors.Is(err, landmarkrd.ErrSnapshotMismatch) {
		t.Errorf("foreign graph: err = %v, want ErrSnapshotMismatch", err)
	}
	if _, err := landmarkrd.ReadPortfolioFrom(bytes.NewReader(buf.Bytes()[:40]), g); !errors.Is(err, landmarkrd.ErrSnapshotCorrupt) {
		t.Errorf("truncated: err = %v, want ErrSnapshotCorrupt", err)
	}
}
