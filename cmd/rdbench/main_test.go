package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	landmarkrd "landmarkrd"
	"landmarkrd/internal/eval"
	"landmarkrd/internal/graph"
)

func TestRunExperimentsStats(t *testing.T) {
	var out bytes.Buffer
	cfg := eval.ExpConfig{Scale: eval.Tiny, Seed: 7, Queries: 3}
	if err := runExperiments([]string{"stats", "", " e8 "}, cfg, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"### experiment stats", "### stats done", "Foster"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunExperimentsUnknownID(t *testing.T) {
	var out bytes.Buffer
	if err := runExperiments([]string{"nope"}, eval.ExpConfig{Scale: eval.Tiny}, &out); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

func TestRunSnapshotUtility(t *testing.T) {
	g, err := graph.Grid2D(8, 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.txt")
	if err := g.SaveEdgeList(graphPath); err != nil {
		t.Fatal(err)
	}

	t.Run("SingleLandmark", func(t *testing.T) {
		snap := filepath.Join(dir, "idx.snap")
		var out bytes.Buffer
		if err := runSnapshot(snap, graphPath, "exact", 0, 7, 1, landmarkrd.PrecondJacobi, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "saved to") {
			t.Errorf("build run missing save line:\n%s", out.String())
		}
		out.Reset()
		if err := runSnapshot(snap, graphPath, "exact", 0, 7, 1, landmarkrd.PrecondJacobi, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "k=1") || !strings.Contains(out.String(), "checksum and graph binding OK") {
			t.Errorf("second run did not verify a K=1 portfolio:\n%s", out.String())
		}
	})

	t.Run("Portfolio", func(t *testing.T) {
		snap := filepath.Join(dir, "pf.snap")
		var out bytes.Buffer
		if err := runSnapshot(snap, graphPath, "exact", 3, 7, 1, landmarkrd.PrecondJacobi, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "built exact portfolio") {
			t.Errorf("build run missing portfolio line:\n%s", out.String())
		}
		out.Reset()
		if err := runSnapshot(snap, graphPath, "exact", 3, 7, 1, landmarkrd.PrecondJacobi, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "k=3") || !strings.Contains(out.String(), "checksum and graph binding OK") {
			t.Errorf("second run did not verify the portfolio:\n%s", out.String())
		}
	})

	t.Run("Errors", func(t *testing.T) {
		var out bytes.Buffer
		if err := runSnapshot(filepath.Join(dir, "x.snap"), "", "exact", 0, 7, 1, landmarkrd.PrecondJacobi, &out); err == nil {
			t.Error("missing -snapshot-graph accepted")
		}
		if err := runSnapshot(filepath.Join(dir, "x.snap"), graphPath, "bogus", 0, 7, 1, landmarkrd.PrecondJacobi, &out); err == nil {
			t.Error("unknown -snapshot-mode accepted")
		}
	})
}
