package core

import (
	"fmt"
	"testing"

	"landmarkrd/internal/graph"
	"landmarkrd/internal/randx"
)

// Ablation: the BiPush deterministic/stochastic split. With a looser push
// threshold the Monte Carlo phase must compensate with longer walks; the
// sweet spot (the design choice BiPush embodies) is visible as a minimum
// in time-at-equal-error across these settings.

func benchBA(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := graph.BarabasiAlbert(5000, 4, randx.New(1))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkBiPushSplitAblation(b *testing.B) {
	g := benchBA(b)
	v := g.MaxDegreeVertex()
	for _, theta := range []float64{1e-1, 1e-2, 1e-3} {
		b.Run(fmt.Sprintf("theta=%g", theta), func(b *testing.B) {
			bp, err := NewBiPushEstimator(g, v, BiPushOptions{PushTheta: theta, Walks: 256}, 2)
			if err != nil {
				b.Fatal(err)
			}
			rng := randx.New(3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, t := rng.Intn(g.N()), rng.Intn(g.N())
				if s == t || s == v || t == v {
					continue
				}
				if _, err := bp.Pair(s, t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPushThetaSweep(b *testing.B) {
	g := benchBA(b)
	v := g.MaxDegreeVertex()
	for _, theta := range []float64{1e-3, 1e-4, 1e-5} {
		b.Run(fmt.Sprintf("theta=%g", theta), func(b *testing.B) {
			pe, err := NewPushEstimator(g, v, PushOptions{Theta: theta})
			if err != nil {
				b.Fatal(err)
			}
			rng := randx.New(4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, t := rng.Intn(g.N()), rng.Intn(g.N())
				if s == t || s == v || t == v {
					continue
				}
				if _, err := pe.Pair(s, t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLandmarkSelection(b *testing.B) {
	g := benchBA(b)
	for _, strat := range AllStrategies() {
		b.Run(strat.String(), func(b *testing.B) {
			rng := randx.New(5)
			for i := 0; i < b.N; i++ {
				if _, err := SelectLandmark(g, strat, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
