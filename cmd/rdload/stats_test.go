package main

import (
	"errors"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestPercentileRefusesWithoutTenBeyond(t *testing.T) {
	for _, c := range []struct {
		q    float64
		need int // smallest sample the percentile is reported on
	}{{0.5, 20}, {0.9, 100}, {0.95, 200}, {0.99, 1000}} {
		if v, err := percentile(seq(c.need), c.q, false); err != nil {
			t.Errorf("p%g of %d samples: %v", c.q*100, c.need, err)
		} else if want := float64(c.need) * c.q; v != want {
			t.Errorf("p%g of 1..%d = %v, want %v", c.q*100, c.need, v, want)
		}
		if _, err := percentile(seq(c.need-1), c.q, false); !errors.Is(err, errTooFewSamples) {
			t.Errorf("p%g of %d samples: err %v, want errTooFewSamples", c.q*100, c.need-1, err)
		}
		if _, err := percentile(seq(c.need-1), c.q, true); err != nil {
			t.Errorf("relaxed p%g of %d samples: %v", c.q*100, c.need-1, err)
		}
	}
	if _, err := percentile(nil, 0.5, true); !errors.Is(err, errTooFewSamples) {
		t.Errorf("percentile of no samples: err %v, want errTooFewSamples", err)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// the rule a run set's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 4}, 1.8125, 3.75, 7.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
		if m != median(c.xs) {
			t.Errorf("median(%v) = %v, quartiles give %v", c.xs, median(c.xs), m)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	parent := span{Start: 0, End: 100 * ms}
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100 * ms},
		{"disjoint", []span{{Start: 10 * ms, End: 30 * ms}, {Start: 50 * ms, End: 60 * ms}}, 70 * ms},
		{"overlapping counted once", []span{{Start: 10 * ms, End: 40 * ms}, {Start: 20 * ms, End: 50 * ms}}, 60 * ms},
		{"nested", []span{{Start: 10 * ms, End: 90 * ms}, {Start: 20 * ms, End: 30 * ms}}, 20 * ms},
		{"replay after the parent", []span{{Start: 200 * ms, End: 230 * ms}}, 70 * ms},
		{"child longer than the parent", []span{{Start: 200 * ms, End: 400 * ms}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTracerLinksSpans(t *testing.T) {
	var tr tracer
	a := tr.root("rdload.pair", 0, 10, nil)
	b := tr.child(a, "rdproxy.pair", 1, 9, nil)
	c := tr.root("rdload.pair", 20, 30, nil)
	if a.Trace == c.Trace || b.Trace != a.Trace || b.Parent != a.ID || a.Parent != 0 {
		t.Fatalf("spans %+v %+v %+v: want b in a's trace under a, c in its own trace", a, b, c)
	}
	if a.ID == b.ID || b.ID == c.ID || a.ID == 0 {
		t.Fatalf("span ids %d %d %d are not distinct and nonzero", a.ID, b.ID, c.ID)
	}
}
