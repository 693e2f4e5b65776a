package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// loadRuns reads every BENCH_*.json at or below dir, keyed by workload and
// split into untraced and traced runs. Quick runs are skipped: their
// samples are too small to judge.
func loadRuns(dir string) (untraced, traced map[string][]*result, err error) {
	untraced, traced = map[string][]*result{}, map[string][]*result{}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasPrefix(d.Name(), "BENCH_") || filepath.Ext(path) != ".json" {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var res result
		if err := json.Unmarshal(b, &res); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if res.Quick {
			return nil
		}
		if res.Trace {
			traced[res.Workload] = append(traced[res.Workload], &res)
		} else {
			untraced[res.Workload] = append(untraced[res.Workload], &res)
		}
		return nil
	})
	if err == nil && len(untraced)+len(traced) == 0 {
		err = fmt.Errorf("no BENCH_*.json runs in %s", dir)
	}
	return untraced, traced, err
}

// judged lists the metrics a comparison judges, each with its bound.
func judged() []metricDef { return slices.Concat(endToEnd, liveExtra) }

// values returns metric name's value in each run that has it.
func values(runs []*result, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v.Value)
		} else if v, ok := r.Extra[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// beats reports whether a reads better than b in d's direction.
func (d metricDef) beats(a, b float64) bool {
	if d.better == "higher" {
		return a > b
	}
	return a < b
}

// verdict applies the comparison rules to one metric of one workload:
//   - improved: at least 10 same-seed pairs, the change wins at least nine
//     tenths of them (ties count for neither), and the medians differ, in
//     the better direction, by more than the parent's interquartile range;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: the parent's own spread is wider than the bound, unless
//     every run of the change reads better than every run of the parent;
//   - unchanged: otherwise.
func verdict(d metricDef, base, head []*result) (string, string) {
	bv, hv := values(base, d.name), values(head, d.name)
	if len(bv) == 0 || len(hv) == 0 {
		return "", ""
	}
	pairs, wins := 0, 0
	for _, b := range base {
		for _, h := range head {
			if b.Seed != h.Seed {
				continue
			}
			x, okb := b.Metrics[d.name]
			y, okh := h.Metrics[d.name]
			if !okb || !okh {
				x, okb = b.Extra[d.name]
				y, okh = h.Extra[d.name]
			}
			if okb && okh {
				pairs++
				if d.beats(y.Value, x.Value) {
					wins++
				}
			}
			break
		}
	}
	q1, mb, q3 := quartiles(bv)
	_, mh, _ := quartiles(hv)
	iqr := q3 - q1
	worse := mb - mh
	if d.better == "lower" {
		worse = mh - mb
	}
	allBetter := true
	for _, y := range hv {
		for _, x := range bv {
			allBetter = allBetter && d.beats(y, x)
		}
	}
	detail := fmt.Sprintf("%-22s base %.6g [%.6g, %.6g]  head %.6g  wins %d/%d", d.name, mb, q1, q3, mh, wins, pairs)
	switch {
	case pairs >= 10 && wins*10 >= 9*pairs && -worse > iqr:
		return "improved", detail
	case worse > d.bound*math.Abs(mb):
		return "regressed", detail
	case iqr > d.bound*math.Abs(mb) && !allBetter:
		return "unresolved", detail
	default:
		return "unchanged", detail
	}
}

var verdicts = []string{"improved", "unchanged", "regressed", "unresolved"}

func compareMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rdload compare", flag.ContinueOnError)
	baseDir := fs.String("base", "", "directory holding the parent commit's BENCH_*.json runs")
	headDir := fs.String("head", "", "directory holding the change's BENCH_*.json runs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *baseDir == "" || *headDir == "" {
		return errors.New("compare needs -base and -head")
	}
	base, _, err := loadRuns(*baseDir)
	if err != nil {
		return err
	}
	head, _, err := loadRuns(*headDir)
	if err != nil {
		return err
	}
	for _, w := range workloads {
		b, h := base[w.name], head[w.name]
		if len(b) == 0 || len(h) == 0 {
			continue
		}
		got := map[string][]string{}
		var details []string
		for _, d := range judged() {
			v, detail := verdict(d, b, h)
			if v != "" {
				got[v] = append(got[v], d.name)
				details = append(details, fmt.Sprintf("    %-10s %s", v, detail))
			}
		}
		fmt.Fprintf(stdout, "%-13s runs %d/%d", w.name, len(b), len(h))
		for _, v := range verdicts {
			names := strings.Join(got[v], ",")
			if names == "" {
				names = "-"
			}
			fmt.Fprintf(stdout, "  %s: %s", v, names)
		}
		fmt.Fprintln(stdout)
		for _, line := range details {
			fmt.Fprintln(stdout, line)
		}
	}
	return nil
}

// summaryMain reports, per workload and metric, the median, quartiles and
// spread of a set of runs, and with -out writes a median BENCH file per
// workload (traced runs as LAYERS_<workload>.json).
func summaryMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rdload summary", flag.ContinueOnError)
	in := fs.String("in", "", "directory holding BENCH_*.json runs")
	out := fs.String("out", "", "directory for the median files (none if empty)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return errors.New("summary needs -in")
	}
	untraced, traced, err := loadRuns(*in)
	if err != nil {
		return err
	}
	for _, set := range []struct {
		runs   map[string][]*result
		defs   []metricDef
		prefix string
	}{{untraced, judged(), "BENCH_"}, {traced, perLayer, "LAYERS_"}} {
		for _, w := range workloads {
			runs := set.runs[w.name]
			if len(runs) == 0 {
				continue
			}
			defs := withExtras(set.defs, runs)
			med := mediansOf(runs, defs)
			fmt.Fprintf(stdout, "%s%s: %d runs, seeds %v\n", set.prefix, w.name, med.Runs, seedsOf(runs))
			fmt.Fprintf(stdout, "  %-30s %12s %12s %12s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
			for _, d := range defs {
				xs := values(runs, d.name)
				if len(xs) == 0 {
					continue
				}
				q1, m, q3 := quartiles(xs)
				bound, spread := "-", "-"
				if d.bound > 0 {
					bound = fmt.Sprintf("%.2f", d.bound)
				}
				if sp, ok := med.Spread[d.name]; ok {
					spread = fmt.Sprintf("%.4f", sp)
				}
				fmt.Fprintf(stdout, "  %-30s %12.6g %12.6g %12.6g %8s %6s\n", d.name, m, q1, q3, spread, bound)
			}
			if *out != "" {
				if err := writeJSON(filepath.Join(*out, set.prefix+w.name+".json"), med); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// withExtras appends to defs the workload-specific numbers the runs
// carry in Extra, unbounded.
func withExtras(defs []metricDef, runs []*result) []metricDef {
	out := slices.Clone(defs)
	for _, r := range runs {
		for _, name := range sortedKeys(r.Extra) {
			if !slices.ContainsFunc(out, func(d metricDef) bool { return d.name == name }) {
				out = append(out, metricDef{name: name, unit: r.Extra[name].Unit})
			}
		}
	}
	return out
}

// mediansOf folds runs into one result holding each metric's median and
// its spread, the interquartile range as a share of the median.
func mediansOf(runs []*result, defs []metricDef) *result {
	first := runs[0]
	med := &result{
		Workload: first.Workload, Seconds: first.Seconds, Trace: first.Trace, Correct: true,
		Metrics: map[string]value{}, Extra: map[string]value{}, Samples: first.Samples,
		Env: first.Env, Runs: len(runs), Spread: map[string]float64{},
	}
	for _, r := range runs {
		med.Correct = med.Correct && r.Correct
		med.Attempted += r.Attempted
		med.Failed += r.Failed
	}
	for _, d := range defs {
		xs := values(runs, d.name)
		if len(xs) == 0 {
			continue
		}
		q1, m, q3 := quartiles(xs)
		if _, ok := first.Metrics[d.name]; ok {
			med.Metrics[d.name] = value{m, d.unit}
		} else {
			med.Extra[d.name] = value{m, d.unit}
		}
		if m != 0 {
			med.Spread[d.name] = (q3 - q1) / math.Abs(m)
		}
	}
	return med
}

func seedsOf(runs []*result) []uint64 {
	var seeds []uint64
	for _, r := range runs {
		seeds = append(seeds, r.Seed)
	}
	slices.Sort(seeds)
	return seeds
}
