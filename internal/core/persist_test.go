package core

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"landmarkrd/internal/graph"
	"landmarkrd/internal/randx"
)

// v2Fixture is a snapshot in the retired v2 single-landmark format, written
// before the v2 writer was removed: grid_14x14, landmark 4, DiagExactCG,
// seed 1. It keeps the read-only v2 path tested.
const (
	v2Fixture      = "../../testdata/snapshots/grid_14x14_exact_seed1.v2.snap"
	v2FixtureGraph = "../../testdata/corpus/grid_14x14.edges"
)

// loadV2Fixture returns the fixture's graph and raw snapshot bytes.
func loadV2Fixture(t *testing.T) (*graph.Graph, []byte) {
	t.Helper()
	g, _, err := graph.LoadEdgeList(v2FixtureGraph)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(v2Fixture)
	if err != nil {
		t.Fatal(err)
	}
	return g, raw
}

// asPortfolio wraps a built index as the K=1 portfolio it is saved as.
func asPortfolio(idx *Index) *Portfolio {
	return NewPortfolio(idx.G, idx.Mode, []int{idx.Landmark}, [][]float64{idx.Diag})
}

func TestIndexRoundTrip(t *testing.T) {
	g := testBA(t, 100, 95)
	v := g.MaxDegreeVertex()
	idx, err := BuildIndex(g, v, IndexOptions{Mode: DiagExactCG}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := asPortfolio(idx).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := ReadPortfolio(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if p.K() != 1 || p.Primary() != idx.Landmark || p.Mode != idx.Mode {
		t.Errorf("header mismatch: K=%d landmarks %v mode %v", p.K(), p.Landmarks, p.Mode)
	}
	got := p.Index(0)
	for i := range idx.Diag {
		if math.Float64bits(got.Diag[i]) != math.Float64bits(idx.Diag[i]) {
			t.Fatalf("diag[%d] changed: %v vs %v", i, got.Diag[i], idx.Diag[i])
		}
	}
	// Loaded index must answer single-source queries identically.
	s := (v + 1) % g.N()
	a, err := idx.SingleSource(s, SingleSourceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.SingleSource(s, SingleSourceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("single-source diverged at %d", i)
		}
	}
}

func TestIndexSaveLoadFile(t *testing.T) {
	g := testBA(t, 60, 96)
	idx, err := BuildIndex(g, 0, IndexOptions{Mode: DiagMC, WalksPerVertex: 8}, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.bin")
	if err := SavePortfolio(asPortfolio(idx), path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPortfolio(path, g)
	if err != nil {
		t.Fatal(err)
	}
	if got.K() != 1 || got.Primary() != 0 || got.Mode != DiagMC {
		t.Errorf("loaded header: K=%d landmarks %v mode %v", got.K(), got.Landmarks, got.Mode)
	}
	if _, err := LoadPortfolio(filepath.Join(t.TempDir(), "missing.bin"), g); err == nil {
		t.Error("missing file accepted")
	}
	// A v2 file loads from disk as a K=1 portfolio.
	fg, _ := loadV2Fixture(t)
	v2, err := LoadPortfolio(v2Fixture, fg)
	if err != nil {
		t.Fatal(err)
	}
	if v2.K() != 1 || v2.Primary() != 4 || v2.Mode != DiagExactCG {
		t.Errorf("v2 fixture: K=%d landmarks %v mode %v, want K=1 [4] exact-cg", v2.K(), v2.Landmarks, v2.Mode)
	}
}

func TestIndexReadRejectsBadInput(t *testing.T) {
	g, snap := loadV2Fixture(t)
	if _, err := ReadPortfolio(strings.NewReader("not an index!"), g); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("garbage: err = %v, want ErrSnapshotCorrupt", err)
	}
	if _, err := ReadPortfolio(bytes.NewReader(snap), g); err != nil {
		t.Fatalf("pristine fixture: %v", err)
	}

	// Wrong graph size.
	other := testBA(t, 50, 98)
	if _, err := ReadPortfolio(bytes.NewReader(snap), other); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("size mismatch: err = %v, want ErrSnapshotMismatch", err)
	}
	// Same size, different graph: the fingerprint must catch it.
	sameSize := testBA(t, g.N(), 99)
	if sameSize.N() != g.N() {
		t.Fatalf("same-size graph has n=%d, want %d", sameSize.N(), g.N())
	}
	if _, err := ReadPortfolio(bytes.NewReader(snap), sameSize); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("fingerprint mismatch: err = %v, want ErrSnapshotMismatch", err)
	}
	// Truncation anywhere in the stream.
	for _, cut := range []int{4, len(snap) / 2, len(snap) - 3} {
		if _, err := ReadPortfolio(bytes.NewReader(snap[:cut]), g); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("truncated at %d: err = %v, want ErrSnapshotCorrupt", cut, err)
		}
	}
	// A flipped payload bit must fail the checksum.
	bad := append([]byte(nil), snap...)
	bad[len(bad)/2] ^= 0x40
	if _, err := ReadPortfolio(bytes.NewReader(bad), g); !errors.Is(err, ErrSnapshotChecksum) {
		t.Errorf("bit flip: err = %v, want ErrSnapshotChecksum", err)
	}
	// The retired v1 magic and unknown future versions are version errors;
	// any other magic is corruption.
	v1 := append([]byte(nil), snap...)
	v1[6] = '1'
	if _, err := ReadPortfolio(bytes.NewReader(v1), g); !errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("v1 magic: err = %v, want ErrSnapshotVersion", err)
	}
	magic := append([]byte(nil), snap...)
	magic[0] = 'X'
	if _, err := ReadPortfolio(bytes.NewReader(magic), g); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("bad magic: err = %v, want ErrSnapshotCorrupt", err)
	}
	future := append([]byte(nil), snap...)
	future[8] = 99 // version field, little endian low byte
	if _, err := ReadPortfolio(bytes.NewReader(future), g); !errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("future version: err = %v, want ErrSnapshotVersion", err)
	}
}
