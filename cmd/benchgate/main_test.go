package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const baseline = `goos: linux
goarch: amd64
pkg: landmarkrd
BenchmarkBuildIndex/exact       3  1852000021 ns/op  133792 B/op  13 allocs/op
BenchmarkBuildIndex/exact-4     3  1849163942 ns/op  486816 B/op  53 allocs/op
BenchmarkGroundedApply/small  100       66537 ns/op  5408.11 MB/s
PASS
ok  	landmarkrd	22.917s
`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseLine(t *testing.T) {
	name, ns, ok := parseLine("BenchmarkGroundedApply/small-4  100  66649 ns/op  5399.04 MB/s")
	if !ok || name != "BenchmarkGroundedApply/small-4" || ns != 66649 {
		t.Fatalf("parseLine: got %q %v %v", name, ns, ok)
	}
	for _, bad := range []string{
		"goos: linux",
		"PASS",
		"ok  	landmarkrd	22.917s",
		"BenchmarkNoResult 3",
		"BenchmarkNaN 3 xyz ns/op",
	} {
		if _, _, ok := parseLine(bad); ok {
			t.Errorf("parseLine accepted %q", bad)
		}
	}
}

func TestParseFileAveragesRepeats(t *testing.T) {
	p := writeTemp(t, "b.txt", "BenchmarkX 1 100 ns/op\nBenchmarkX 1 300 ns/op\n")
	got, err := parseFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkX"].ns != 200 {
		t.Fatalf("mean of repeats = %v, want 200", got["BenchmarkX"].ns)
	}
}

// TestBytesPerOpInTable: rows whose lines report B/op in both files show
// old → new B/op beside ns/op; rows without it (here GroundedApply, which
// reports MB/s) leave the cell empty; and B/op never enters the gate, so a
// 24x memory drop at equal ns/op still reads geomean 1.000.
func TestBytesPerOpInTable(t *testing.T) {
	got, err := parseFile(writeTemp(t, "b.txt", baseline+"BenchmarkBuildIndex/exact 3 1852000021 ns/op 133808 B/op 13 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if r := got["BenchmarkBuildIndex/exact"]; !r.hasBytes || r.bytes != 133800 {
		t.Errorf("BuildIndex/exact B/op = %+v, want the mean 133800", r)
	}
	if r := got["BenchmarkGroundedApply/small"]; r.hasBytes {
		t.Errorf("GroundedApply/small reports no B/op, parsed %+v", r)
	}

	smaller := strings.NewReplacer("133792 B/op", "5575 B/op").Replace(baseline)
	var out strings.Builder
	code, err := run(writeTemp(t, "old.txt", baseline), writeTemp(t, "new.txt", smaller), 1.20, "", &out)
	if err != nil {
		t.Fatal(err)
	}
	table := out.String()
	if code != 0 || !strings.Contains(table, "Geomean ratio: 1.000") {
		t.Fatalf("B/op change moved the gate: exit %d\n%s", code, table)
	}
	for _, want := range []string{
		"| BenchmarkBuildIndex/exact | 1.85s | 1.85s | +0.0% | 133.8kB → 5.575kB |",
		"| BenchmarkBuildIndex/exact-4 | 1.85s | 1.85s | +0.0% | 486.8kB → 486.8kB |",
		"| BenchmarkGroundedApply/small | 66.54µs | 66.54µs | +0.0% |  |",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("table lacks %q:\n%s", want, table)
		}
	}
}

func TestGatePassesOnIdenticalOutput(t *testing.T) {
	oldP := writeTemp(t, "old.txt", baseline)
	newP := writeTemp(t, "new.txt", baseline)
	var out strings.Builder
	code, err := run(oldP, newP, 1.20, "", &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("identical outputs: exit %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Fatalf("missing PASS verdict:\n%s", out.String())
	}
}

func TestGateFailsOnTwoXSlowdown(t *testing.T) {
	slow := strings.NewReplacer(
		"1852000021", "3704000042",
		"1849163942", "3698327884",
		"66537", "133074",
	).Replace(baseline)
	oldP := writeTemp(t, "old.txt", baseline)
	newP := writeTemp(t, "new.txt", slow)
	var out strings.Builder
	code, err := run(oldP, newP, 1.20, "", &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("2x slowdown: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Fatalf("missing FAIL verdict:\n%s", out.String())
	}
}

func TestGateIgnoresUnmatchedBenchmarks(t *testing.T) {
	added := baseline + "BenchmarkOnlyNew 10 999999999 ns/op\n"
	oldP := writeTemp(t, "old.txt", baseline)
	newP := writeTemp(t, "new.txt", added)
	var out strings.Builder
	code, err := run(oldP, newP, 1.20, "", &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("added benchmark tripped the gate: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkOnlyNew") {
		t.Fatalf("added benchmark not listed:\n%s", out.String())
	}
}

func TestSummaryFileAppended(t *testing.T) {
	oldP := writeTemp(t, "old.txt", baseline)
	newP := writeTemp(t, "new.txt", baseline)
	sum := filepath.Join(t.TempDir(), "summary.md")
	if err := os.WriteFile(sum, []byte("existing\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if _, err := run(oldP, newP, 1.20, sum, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(sum)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "existing\n") || !strings.Contains(string(data), "Benchmark gate") {
		t.Fatalf("summary not appended:\n%s", data)
	}
}

func TestNoCommonBenchmarksErrors(t *testing.T) {
	oldP := writeTemp(t, "old.txt", "BenchmarkA 1 100 ns/op\n")
	newP := writeTemp(t, "new.txt", "BenchmarkB 1 100 ns/op\n")
	var out strings.Builder
	if _, err := run(oldP, newP, 1.20, "", &out); err == nil {
		t.Fatal("disjoint benchmark sets: want error")
	}
}
