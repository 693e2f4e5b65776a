package main

import (
	"testing"
)

// runsOf builds one run per value of pair_ms_p50, seeds 1, 2, ...
func runsOf(vals ...float64) []*result {
	var runs []*result
	for i, v := range vals {
		runs = append(runs, &result{Seed: uint64(i + 1), Metrics: map[string]value{"pair_ms_p50": {v, "ms"}}})
	}
	return runs
}

func TestVerdict(t *testing.T) {
	d := metricDef{"pair_ms_p50", "ms", "lower", 0.1}
	base := runsOf(10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 10.05, 9.95)
	for _, c := range []struct {
		name string
		base []*result
		head []*result
		want string
	}{
		{"same", base, runsOf(10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 10.05, 9.95), "unchanged"},
		{"faster everywhere", base, runsOf(9, 9.1, 8.9, 9.2, 8.8, 9, 9.1, 8.9, 9.05, 8.95), "improved"},
		{"faster in 8 of 10 pairs", base, runsOf(9, 9.1, 8.9, 9.2, 8.8, 9, 9.1, 8.9, 11, 11), "unchanged"},
		{"faster, too few pairs", runsOf(10, 10.1, 9.9), runsOf(9, 9.1, 8.9), "unchanged"},
		{"slower beyond the bound", base, runsOf(11.5, 11.6, 11.4, 11.7, 11.3, 11.5, 11.6, 11.4, 11.55, 11.45), "regressed"},
		{"slower within the bound", base, runsOf(10.5, 10.6, 10.4, 10.7, 10.3, 10.5, 10.6, 10.4, 10.55, 10.45), "unchanged"},
		{"parent too noisy", runsOf(8, 12, 9, 11, 8, 12, 9, 11, 10, 10), runsOf(10, 10, 10, 10, 10, 10, 10, 10, 10, 10), "unresolved"},
	} {
		if got, _ := verdict(d, c.base, c.head); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestVerdictHigherIsBetter(t *testing.T) {
	d := metricDef{"pair_ms_p50", "frac", "higher", 0.05}
	base := runsOf(0.9, 0.91, 0.89, 0.9, 0.9, 0.91, 0.89, 0.9, 0.9, 0.9)
	if got, _ := verdict(d, base, runsOf(0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8)); got != "regressed" {
		t.Errorf("lower ratio: %s, want regressed", got)
	}
	if got, _ := verdict(d, base, runsOf(0.99, 0.99, 0.99, 0.99, 0.99, 0.99, 0.99, 0.99, 0.99, 0.99)); got != "improved" {
		t.Errorf("higher ratio: %s, want improved", got)
	}
}
