package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	landmarkrd "landmarkrd"
	"landmarkrd/internal/graph"
	"landmarkrd/internal/randx"
)

func writeTestGraph(t *testing.T) string {
	t.Helper()
	g, err := graph.BarabasiAlbert(300, 3, randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := g.SaveEdgeList(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunExactQuery(t *testing.T) {
	path := writeTestGraph(t)
	var out bytes.Buffer
	err := run(config{graphPath: path, s: 3, t: 250, method: "exact", topk: 5, source: -1}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "r(3,250)") {
		t.Errorf("output missing result line: %s", out.String())
	}
}

// TestRunEstimatorMethods: every method prints the answer of a one-query
// landmarkrd.Pairs batch with the same method and seed.
func TestRunEstimatorMethods(t *testing.T) {
	path := writeTestGraph(t)
	g, _, err := landmarkrd.LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"abwalk", "push", "bipush", "auto"} {
		var out bytes.Buffer
		err := run(config{graphPath: path, s: 3, t: 250, method: m, seed: 1, topk: 5, source: -1}, &out)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		method, err := landmarkrd.ParseMethod(m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := landmarkrd.Pairs(g, method, []landmarkrd.PairQuery{{S: 3, T: 250}},
			landmarkrd.BatchOptions{Options: landmarkrd.Options{Seed: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("r(3,250) = %.8f", res[0].Estimate.Value); !strings.Contains(out.String(), want) {
			t.Errorf("%s: output missing %q:\n%s", m, want, out.String())
		}
	}
}

// TestRunPairLandmarkEndpoint: a pair whose endpoint is every landmark the
// engine has — the index-free landmark, or a K=1 portfolio's — is answered
// exactly, bit for bit as landmarkrd.Exact, and says so.
func TestRunPairLandmarkEndpoint(t *testing.T) {
	path := writeTestGraph(t)
	g, _, err := landmarkrd.LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	landmark, err := landmarkrd.SelectLandmark(g, landmarkrd.MaxDegree, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := landmarkrd.Exact(g, landmark, 250)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []config{
		{method: "bipush"},
		{method: "push", portfolio: 1},
	} {
		cfg.s, cfg.t, cfg.seed = landmark, 250, 1
		var out bytes.Buffer
		got, err := runPair(g, cfg, &out)
		if err != nil {
			t.Fatalf("%s -portfolio %d: %v", cfg.method, cfg.portfolio, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s -portfolio %d: r(%d,250) = %v, want Exact's %v", cfg.method, cfg.portfolio, landmark, got, want)
		}
		if !strings.Contains(out.String(), "answered exactly") {
			t.Errorf("%s -portfolio %d: no answered-exactly note:\n%s", cfg.method, cfg.portfolio, out.String())
		}
		if cfg.portfolio > 0 && !strings.Contains(out.String(), fmt.Sprintf("landmarks=[%d]", landmark)) {
			t.Errorf("the K=1 portfolio's landmark is not %d:\n%s", landmark, out.String())
		}
	}
}

func TestRunSingleSourceMode(t *testing.T) {
	path := writeTestGraph(t)
	var out bytes.Buffer
	err := run(config{graphPath: path, source: 7, topk: 3, s: -1, t: -1, seed: 1}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "closest 3 vertices") {
		t.Errorf("output missing ranking: %s", out.String())
	}
}

func TestRunStatsFlag(t *testing.T) {
	path := writeTestGraph(t)
	var out bytes.Buffer
	err := run(config{graphPath: path, s: 3, t: 250, method: "bipush", seed: 1, topk: 5, source: -1, stats: true}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"estimator stats:", "solver stats:", "push_ops", "cg_solves"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-stats output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunDebugEndpoint(t *testing.T) {
	path := writeTestGraph(t)
	var out bytes.Buffer
	err := run(config{graphPath: path, s: 3, t: 250, method: "push", seed: 1, topk: 5, source: -1, debugAddr: "127.0.0.1:0"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`debug endpoint on http://(\S+)/debug/vars`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no debug endpoint line in output:\n%s", out.String())
	}
	// run closes its debug server on the way out, so the listener must be
	// released by now: the port rebinds cleanly instead of leaking.
	ln, err := net.Listen("tcp", m[1])
	if err != nil {
		t.Fatalf("debug listener leaked — rebinding %s: %v", m[1], err)
	}
	ln.Close()
}

func TestRunValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run(config{}, &out); err == nil {
		t.Error("missing -graph accepted")
	}
	path := writeTestGraph(t)
	if err := run(config{graphPath: path, s: -1, t: -1, source: -1}, &out); err == nil {
		t.Error("missing endpoints accepted")
	}
	if err := run(config{graphPath: path, s: 1, t: 2, method: "bogus", source: -1}, &out); err == nil {
		t.Error("unknown method accepted")
	}
	if err := run(config{graphPath: "/nonexistent", s: 1, t: 2, source: -1}, &out); err == nil {
		t.Error("missing graph file accepted")
	}
}

func TestRunPortfolioPair(t *testing.T) {
	path := writeTestGraph(t)
	var out bytes.Buffer
	err := run(config{graphPath: path, s: 3, t: 250, method: "push", seed: 1,
		topk: 5, source: -1, portfolio: 3, stats: true}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"r(3,250)", "portfolio k=3", "estimator stats:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunPortfolioSingleSource(t *testing.T) {
	graphPath := writeTestGraph(t)
	snap := filepath.Join(t.TempDir(), "pf.snap")
	cfg := config{graphPath: graphPath, source: 7, topk: 3, s: -1, t: -1,
		seed: 1, portfolio: 2, snapshot: snap}

	// First run builds the portfolio and saves the v3 snapshot.
	var first bytes.Buffer
	if err := run(cfg, &first); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"saved portfolio snapshot", "routed landmark=", "closest 3 vertices"} {
		if !strings.Contains(first.String(), want) {
			t.Errorf("first run missing %q:\n%s", want, first.String())
		}
	}

	// Second run must load it instead of rebuilding, and agree.
	var second bytes.Buffer
	if err := run(cfg, &second); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second.String(), "loaded portfolio snapshot") {
		t.Errorf("second run rebuilt instead of loading:\n%s", second.String())
	}
	ranked := regexp.MustCompile(`vertex \d+`)
	if a, b := ranked.FindAllString(first.String(), -1), ranked.FindAllString(second.String(), -1); len(a) == 0 || strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("snapshot-loaded ranking diverged:\n%v\n%v", a, b)
	}
}
