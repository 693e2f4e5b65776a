package walk

import (
	"context"
	"fmt"
	"testing"

	"landmarkrd/internal/graph"
	"landmarkrd/internal/randx"
)

// benchSocial returns the BA(5000, 4) social stand-in, unweighted or with
// 500 extra weight-0.5 edges — the shape a live replica's graph takes after
// its first re-base, when streamed edge insertions make it weighted.
func benchSocial(b *testing.B, weighted bool) *graph.Graph {
	b.Helper()
	g, err := graph.BarabasiAlbert(5000, 4, randx.New(2023))
	if err != nil {
		b.Fatal(err)
	}
	if !weighted {
		return g
	}
	rng := randx.New(7)
	gb := graph.NewBuilder(g.N())
	g.ForEachEdge(func(u, v int32, w float64) { gb.AddWeightedEdge(int(u), int(v), w) })
	for added := 0; added < 500; {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		if u != v && !g.HasEdge(u, v) {
			gb.AddWeightedEdge(u, v, 0.5)
			added++
		}
	}
	wg, err := gb.Build()
	if err != nil {
		b.Fatal(err)
	}
	return wg
}

// BenchmarkWalkStep reports the cost of one random-walk step (ns/op is
// ns/step) on the social stand-in, unweighted and weighted. The Step rows
// take one step at a time, wandering the whole graph, so hubs are visited
// at their stationary rate. The lanes rows run absorbed walks to the hub
// through RunJobs, one job at a time (jobs=1) or four in lockstep
// (jobs=4): each job walks from uniform starts until it has taken its
// share of b.N steps.
func BenchmarkWalkStep(b *testing.B) {
	for _, weighted := range []bool{false, true} {
		name := map[bool]string{false: "unweighted", true: "weighted"}[weighted]
		b.Run(name, func(b *testing.B) {
			g := benchSocial(b, weighted)
			if g.Weighted() != weighted {
				b.Fatalf("graph weighted = %v", g.Weighted())
			}
			s := NewSampler(g)
			rng := randx.New(1)
			u := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u = s.Step(u, rng)
			}
		})
	}
	for _, weighted := range []bool{false, true} {
		for _, jobs := range []int{1, Lanes} {
			name := fmt.Sprintf("lanes/%s/jobs=%d", map[bool]string{false: "unweighted", true: "weighted"}[weighted], jobs)
			b.Run(name, func(b *testing.B) {
				g := benchSocial(b, weighted)
				s := NewSampler(g)
				hub := g.MaxDegreeVertex()
				queue := make([]*stepJob, jobs)
				for i := range queue {
					queue[i] = &stepJob{n: g.N(), v: hub, budget: b.N / jobs, seed: uint64(i + 1)}
				}
				b.ResetTimer()
				if err := s.RunJobs(context.Background(), jobQueue(queue)); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				steps := 0
				for _, j := range queue {
					steps += j.steps
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(steps, 1)), "ns/step")
			})
		}
	}
}

// stepJob walks from uniform starts to v until it has taken budget steps,
// each walk on its own stream. It hands out a walk while its reported
// steps fall short of budget, so with several walks in flight it may
// overshoot by their length; the benchmark divides by the steps taken.
type stepJob struct {
	n, v          int
	budget, steps int
	seed          uint64
	walks         int
}

func (j *stepJob) Next(rng *randx.RNG) (Walk, bool) {
	if j.steps >= j.budget {
		return Walk{}, false
	}
	rng.Seed(randx.Derive(j.seed, uint64(j.walks)))
	j.walks++
	return Walk{Src: rng.Intn(j.n), V: j.v, A: -1, B: -1, MaxSteps: 1 << 30}, true
}

func (j *stepJob) Done(_, _, _, steps int, _ bool) { j.steps += steps }
func (j *stepJob) Over()                           {}

// jobQueue hands out the jobs in order, then nil.
func jobQueue[J Job](jobs []J) func() Job {
	return func() Job {
		if len(jobs) == 0 {
			return nil
		}
		j := jobs[0]
		jobs = jobs[1:]
		return j
	}
}
