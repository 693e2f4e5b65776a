// Command rdload is the end-to-end benchmark of landmarkrd. It generates
// the benchmark graphs, builds rdserver and rdproxy from the checkout,
// starts them on loopback ports, drives a named workload from one process
// with at most nproc connections, checks every answer, and reports each
// metric by name with its unit.
//
// Usage, from anywhere in a landmarkrd checkout:
//
//	go run . [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-quick]
//	go run . compare -base DIR -head DIR
//	go run . summary -in DIR [-out DIR]
//
// A run prints one "name value unit" line per metric, writes
// BENCH_<workload>.json (and, traced, TRACE_<workload>.jsonl) to -out, and
// ends its output with one JSON line: {"correct", "attempted", "failed",
// "metrics"}. With -trace 0 the metrics are the end-to-end ones; -trace 1
// reruns the same workload with the same seed, records spans around every
// call rdload makes into a layer, and reports the per-layer metrics. A run
// whose answers or checks fail exits 1. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "compare":
		err = compareMain(args[1:], os.Stdout)
	case len(args) > 0 && args[0] == "summary":
		err = summaryMain(args[1:], os.Stdout)
	default:
		err = runMain(args, os.Stdout)
	}
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "rdload:", err)
		}
		os.Exit(1)
	}
}

// errIncorrect ends a run whose answers or checks failed; its result is
// still printed.
var errIncorrect = errors.New("the run's answers or checks failed")

func runMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rdload", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: "+workloadNames()+", or all")
	seed := fs.Uint64("seed", 2023, "seed of the workload's traffic")
	seconds := fs.Int("seconds", 0, "length of the timed phase in seconds (0: 12, or 2 with -quick)")
	trace := fs.Int("trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
	quick := fs.Bool("quick", false, "smoke mode: short phases, one cold start, small samples, percentiles without the sample-count rule")
	out := fs.String("out", "", "directory for BENCH_*.json and TRACE_*.jsonl (default bench/out in the checkout)")
	build := fs.String("build", "", "directory for the server binaries, graphs and logs (default .bench_build/rdload in the checkout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	cfg := config{seed: *seed, trace: *trace == 1, quick: *quick, conns: runtime.NumCPU(), size: fullSizes}
	if cfg.quick {
		cfg.size = quickSizes
	}
	cfg.seconds = cfg.size.seconds
	if *seconds > 0 {
		cfg.seconds = time.Duration(*seconds) * time.Second
	}
	todo := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		todo = []workload{w}
	}

	var err error
	if cfg.root, err = findRoot(); err != nil {
		return err
	}
	cfg.out = defaultDir(*out, cfg.root, "bench", "out")
	cfg.build = defaultDir(*build, cfg.root, ".bench_build", "rdload")
	for _, dir := range []string{cfg.out, filepath.Join(cfg.build, "bin")} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := buildServers(ctx, cfg.root, filepath.Join(cfg.build, "bin")); err != nil {
		return err
	}

	var results []*result
	for _, w := range todo {
		res, err := runWorkload(ctx, cfg, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := writeJSON(filepath.Join(cfg.out, "BENCH_"+w.name+".json"), res); err != nil {
			return err
		}
		results = append(results, res)
	}
	return report(stdout, results)
}

// report prints every metric as "name value unit", any problems, and the
// closing JSON line. Several workloads' metrics are prefixed with the
// workload's name.
func report(w io.Writer, results []*result) error {
	type line struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	last := line{Correct: true, Metrics: map[string]value{}}
	for _, res := range results {
		prefix := ""
		if len(results) > 1 {
			prefix = res.Workload + "/"
		}
		fmt.Fprintf(w, "# %s seed %d: %d ops, %d failed, correct %v\n", res.Workload, res.Seed, res.Attempted, res.Failed, res.Correct)
		for _, m := range []map[string]value{res.Metrics, res.Extra} {
			for _, k := range sortedKeys(m) {
				fmt.Fprintf(w, "%s%s %v %s\n", prefix, k, m[k].Value, m[k].Unit)
			}
		}
		for _, p := range res.Problems {
			fmt.Fprintf(w, "# problem: %s\n", p)
		}
		last.Correct = last.Correct && res.Correct
		last.Attempted += res.Attempted
		last.Failed += res.Failed
		for k, v := range res.Metrics {
			last.Metrics[prefix+k] = v
		}
	}
	b, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", b)
	if !last.Correct {
		return errIncorrect
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func defaultDir(flagValue, root string, elem ...string) string {
	if flagValue != "" {
		return flagValue
	}
	return filepath.Join(append([]string{root}, elem...)...)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// env records the conditions a run was measured under.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Conns      int    `json:"conns"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	LoadAvg    string `json:"loadavg"`
	Time       string `json:"time"`
}

func currentEnv(cfg config) env {
	e := env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Conns: cfg.conns,
		Go: runtime.Version(), Commit: "unknown", Time: time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		e.LoadAvg = strings.TrimSpace(string(b))
	}
	if _, err := os.Stat(filepath.Join(cfg.root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	return e
}
