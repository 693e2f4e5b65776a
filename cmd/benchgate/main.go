// Command benchgate compares two `go test -bench` outputs and fails when
// the geometric-mean ns/op ratio regresses past a threshold. It is the
// CI benchmark-regression gate: the repository commits a baseline bench
// output under results/, CI re-runs the same benchmarks, and benchgate
// turns "the numbers drifted" into a red build with a per-benchmark delta
// table instead of an artifact nobody reads.
//
// Usage:
//
//	benchgate -old results/bench_parallel_baseline.txt -new bench-new.txt \
//	          -threshold 1.20 -summary "$GITHUB_STEP_SUMMARY"
//
// Exit status: 0 when the geomean ratio (new/old, matched benchmarks
// only) is at or below the threshold, 1 when it regresses, 2 on usage or
// parse errors. Benchmarks present in only one file are listed but do not
// affect the gate, so adding a benchmark does not require updating the
// baseline atomically. Rows whose lines report B/op (-benchmem or
// b.ReportAllocs) in both files also show old → new B/op, so a memory
// regression is visible in the table; it does not enter the gate.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		oldFlag   = flag.String("old", "", "baseline bench output file (required)")
		newFlag   = flag.String("new", "", "candidate bench output file (required)")
		threshold = flag.Float64("threshold", 1.20, "max allowed geomean ns/op ratio new/old")
		summary   = flag.String("summary", "", "append the markdown delta table to this file (e.g. $GITHUB_STEP_SUMMARY)")
	)
	flag.Parse()
	if *oldFlag == "" || *newFlag == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -old and -new are required")
		os.Exit(2)
	}
	code, err := run(*oldFlag, *newFlag, *threshold, *summary, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run executes the comparison and returns the process exit code.
func run(oldPath, newPath string, threshold float64, summaryPath string, out io.Writer) (int, error) {
	if threshold <= 0 {
		return 0, fmt.Errorf("threshold must be positive, got %v", threshold)
	}
	oldRes, err := parseFile(oldPath)
	if err != nil {
		return 0, err
	}
	newRes, err := parseFile(newPath)
	if err != nil {
		return 0, err
	}
	rep := compare(oldRes, newRes)
	if len(rep.rows) == 0 {
		return 0, fmt.Errorf("no benchmarks in common between %s and %s", oldPath, newPath)
	}
	pass := rep.geomean <= threshold
	table := rep.markdown(threshold, pass)
	fmt.Fprint(out, table)
	if summaryPath != "" {
		f, err := os.OpenFile(summaryPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return 0, fmt.Errorf("writing summary: %w", err)
		}
		if _, err := f.WriteString(table); err != nil {
			f.Close()
			return 0, fmt.Errorf("writing summary: %w", err)
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
	}
	if !pass {
		return 1, nil
	}
	return 0, nil
}

// result is one benchmark's mean ns/op and, when its lines report it, mean
// B/op.
type result struct {
	ns       float64
	bytes    float64
	hasBytes bool
}

// parseFile reads one `go test -bench` output file into name → result.
// Repeated lines for the same benchmark (e.g. -count=N) are averaged.
func parseFile(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	type sum struct {
		ns, bytes    float64
		runs, nBytes int
	}
	sums := map[string]*sum{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		name, ns, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		s := sums[name]
		if s == nil {
			s = &sum{}
			sums[name] = s
		}
		s.ns += ns
		s.runs++
		if b, ok := lineValue(strings.Fields(sc.Text()), "B/op"); ok && b >= 0 {
			s.bytes += b
			s.nBytes++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	if len(sums) == 0 {
		return nil, fmt.Errorf("%s: no benchmark result lines found", path)
	}
	out := make(map[string]result, len(sums))
	for name, s := range sums {
		r := result{ns: s.ns / float64(s.runs)}
		if s.nBytes > 0 {
			r.bytes, r.hasBytes = s.bytes/float64(s.nBytes), true
		}
		out[name] = r
	}
	return out, nil
}

// parseLine extracts (benchmark name, ns/op) from one output line of the
// form "BenchmarkName-8   123   4567 ns/op   ...". The bool reports
// whether the line is a benchmark result.
func parseLine(line string) (string, float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", 0, false
	}
	ns, ok := lineValue(fields, "ns/op")
	if !ok || ns <= 0 {
		return "", 0, false
	}
	return fields[0], ns, true
}

// lineValue returns the number a benchmark result line's fields report
// in unit ("ns/op", "B/op", ...), the field just before the unit.
func lineValue(fields []string, unit string) (float64, bool) {
	for i := 2; i+1 < len(fields); i++ {
		if fields[i+1] != unit {
			continue
		}
		v, err := strconv.ParseFloat(fields[i], 64)
		return v, err == nil
	}
	return 0, false
}

type row struct {
	name     string
	old, new result
	ratio    float64
}

type report struct {
	rows    []row
	geomean float64
	onlyOld []string
	onlyNew []string
}

// compare matches benchmarks by name and computes per-benchmark ns/op
// ratios and their geometric mean.
func compare(oldRes, newRes map[string]result) report {
	var rep report
	var logSum float64
	for name, o := range oldRes {
		n, ok := newRes[name]
		if !ok {
			rep.onlyOld = append(rep.onlyOld, name)
			continue
		}
		r := n.ns / o.ns
		rep.rows = append(rep.rows, row{name: name, old: o, new: n, ratio: r})
		logSum += math.Log(r)
	}
	for name := range newRes {
		if _, ok := oldRes[name]; !ok {
			rep.onlyNew = append(rep.onlyNew, name)
		}
	}
	sort.Slice(rep.rows, func(i, j int) bool { return rep.rows[i].name < rep.rows[j].name })
	sort.Strings(rep.onlyOld)
	sort.Strings(rep.onlyNew)
	if len(rep.rows) > 0 {
		rep.geomean = math.Exp(logSum / float64(len(rep.rows)))
	}
	return rep
}

// markdown renders the delta table (GitHub-flavored) plus the gate verdict.
func (r report) markdown(threshold float64, pass bool) string {
	var b strings.Builder
	b.WriteString("### Benchmark gate\n\n")
	b.WriteString("| benchmark | old ns/op | new ns/op | delta | B/op old → new |\n")
	b.WriteString("|---|---:|---:|---:|---:|\n")
	for _, row := range r.rows {
		var mem string
		if row.old.hasBytes && row.new.hasBytes {
			mem = fmtBytes(row.old.bytes) + " → " + fmtBytes(row.new.bytes)
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %+.1f%% | %s |\n",
			row.name, fmtNs(row.old.ns), fmtNs(row.new.ns), (row.ratio-1)*100, mem)
	}
	verdict := "PASS"
	if !pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "\n**Geomean ratio: %.3f** (threshold %.2f) — %s\n", r.geomean, threshold, verdict)
	if len(r.onlyOld) > 0 {
		fmt.Fprintf(&b, "\nOnly in baseline (not gated): %s\n", strings.Join(r.onlyOld, ", "))
	}
	if len(r.onlyNew) > 0 {
		fmt.Fprintf(&b, "\nNew benchmarks (not gated): %s\n", strings.Join(r.onlyNew, ", "))
	}
	return b.String()
}

// fmtNs prints ns/op compactly with unit scaling.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3gs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.4gms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.4gµs", ns/1e3)
	default:
		return fmt.Sprintf("%.4gns", ns)
	}
}

// fmtBytes prints B/op compactly with decimal unit scaling.
func fmtBytes(b float64) string {
	switch {
	case b >= 1e9:
		return fmt.Sprintf("%.3gGB", b/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.4gMB", b/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.4gkB", b/1e3)
	default:
		return fmt.Sprintf("%.4gB", b)
	}
}
