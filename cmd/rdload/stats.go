package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// p99 needs 1000 samples, a p95 200, a p90 100 and a median 20.
const minBeyond = 10

// errTooFewSamples marks a percentile the sample cannot support.
var errTooFewSamples = errors.New("too few samples beyond the percentile")

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank. It
// refuses, with an error wrapping errTooFewSamples, when fewer than
// minBeyond samples lie beyond the rank, unless relaxed is set (the -quick
// smoke mode, whose runs are too short for the rule).
func percentile(xs []float64, q float64, relaxed bool) (float64, error) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), fmt.Errorf("p%g of no samples: %w", q*100, errTooFewSamples)
	}
	k := max(int(math.Ceil(q*float64(n))), 1)
	if n-k < minBeyond && !relaxed {
		return math.NaN(), fmt.Errorf("p%g of %d samples leaves %d beyond it, want %d: %w",
			q*100, n, n-k, minBeyond, errTooFewSamples)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[k-1], nil
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4), which is how a run
// set's spread is judged.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	// The exclusive method, in Python's integer arithmetic: cut point i
	// sits at 1-based position i*(n+1)/4, interpolated (or extrapolated)
	// from the clamped neighbouring pair.
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// median returns the middle of xs (the mean of the two middle values for an
// even count); NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
