package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json at the checkout's root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) (benchmarkFile, string) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf, root
}

// TestBenchmarkFileMatchesRdload keeps BENCHMARK.json and rdload's own
// tables of workloads and metrics the same.
func TestBenchmarkFileMatchesRdload(t *testing.T) {
	bf, _ := loadBenchmarkFile(t)
	if got := strings.Join(bf.Command, " "); got != "bash bench/run.sh" {
		t.Errorf("command %q", got)
	}
	if got := strings.Join(bf.Paths, " "); got != "cmd/rdload bench" {
		t.Errorf("paths %q", got)
	}
	if time.Duration(bf.RunSeconds)*time.Second != fullSizes.seconds {
		t.Errorf("run_seconds %d, rdload's default phase is %v", bf.RunSeconds, fullSizes.seconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, rdload has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, rdload has %s: %s", i, bf.Workloads[i], w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, rdload has %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if e := bf.EndToEnd[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, rdload has %+v", i, e, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, rdload has %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if e := bf.PerLayer[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, rdload has %+v", i, e, d)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append(append([]metricDef(nil), endToEnd...), liveExtra...), perLayer...) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
			t.Errorf("metric %q (unit %q) is malformed or repeated", d.name, d.unit)
		}
		seen[d.name] = true
		if d.better != "lower" && d.better != "higher" || d.bound < 0 || d.bound > 0.25 {
			t.Errorf("metric %q: better %q, bound %v", d.name, d.better, d.bound)
		}
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: malformed name or why", w.name)
		}
	}
}

// TestSmoke builds rdload and runs every workload in -quick mode, untraced
// and traced, checking that each BENCH file carries every metric
// BENCHMARK.json names, finite, with no failed op.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the servers and runs every workload")
	}
	bf, root := loadBenchmarkFile(t)
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "rdload")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building rdload: %v\n%s", err, out)
	}
	for _, trace := range []string{"0", "1"} {
		var want []string
		if trace == "0" {
			for _, m := range bf.EndToEnd {
				want = append(want, m.Name)
			}
		} else {
			for _, m := range bf.PerLayer {
				want = append(want, m.Name)
			}
		}
		out := filepath.Join(tmp, "out"+trace)
		cmd := exec.Command(bin, "-quick", "-trace", trace, "-out", out, "-build", filepath.Join(tmp, "build"))
		cmd.Dir = root
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("rdload -quick -trace %s: %v\n%s\n%s", trace, err, stdout, stderr.Bytes())
		}
		var lastLine string
		for sc := bufio.NewScanner(bytes.NewReader(stdout)); sc.Scan(); {
			lastLine = sc.Text()
		}
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lastLine), &last); err != nil || len(last) != 4 ||
			last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
			t.Fatalf("last line %q is not the result object (%v)", lastLine, err)
		}
		for _, w := range workloads {
			b, err := os.ReadFile(filepath.Join(out, "BENCH_"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var res result
			if err := json.Unmarshal(b, &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %s: correct %v, %d of %d failed, problems %q", w.name, trace, res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			for _, name := range want {
				if v, ok := res.Metrics[name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace %s: metric %s is %v (present %v)", w.name, trace, name, v.Value, ok)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
		}
	}
}
