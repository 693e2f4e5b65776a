package walk

import (
	"context"
	"errors"
	"testing"

	"landmarkrd/internal/cancel"
	"landmarkrd/internal/graph"
	"landmarkrd/internal/randx"
)

// laneSpec is one job of the lane property test: walks absorbed walks to
// v watching a and b, each from src, or, with drawSrc, from a start the job
// draws from its own stream right before the walk (as BiPush does).
type laneSpec struct {
	src, v, a, b    int
	maxSteps, walks int
	drawSrc         bool
	seed            uint64
}

type walkOutcome struct {
	na, nb, steps int
	absorbed      bool
}

// specJob runs a laneSpec through RunJobs, recording every outcome.
type specJob struct {
	spec  laneSpec
	n     int
	rng   *randx.RNG
	begun int
	got   []walkOutcome
}

func (j *specJob) Next() (Walk, bool) {
	if j.begun == j.spec.walks {
		return Walk{}, false
	}
	j.begun++
	src := j.spec.src
	if j.spec.drawSrc {
		src = j.rng.Intn(j.n)
	}
	return Walk{Src: src, V: j.spec.v, A: j.spec.a, B: j.spec.b, MaxSteps: j.spec.maxSteps, RNG: j.rng}, true
}

func (j *specJob) Done(na, nb, steps int, absorbed bool) {
	j.got = append(j.got, walkOutcome{na, nb, steps, absorbed})
}

// sequential runs spec's walks one at a time through AbsorbedCounts on its
// own copy of the job's stream, returning the outcomes and the stream.
func sequential(s *Sampler, spec laneSpec) ([]walkOutcome, *randx.RNG) {
	rng := randx.New(spec.seed)
	var out []walkOutcome
	for i := 0; i < spec.walks; i++ {
		src := spec.src
		if spec.drawSrc {
			src = rng.Intn(s.Graph().N())
		}
		na, nb, steps, absorbed, _ := s.AbsorbedCounts(context.Background(), src, spec.v, spec.a, spec.b, spec.maxSteps, rng)
		out = append(out, walkOutcome{na, nb, steps, absorbed})
	}
	return out, rng
}

func loadLaneCorpus(t *testing.T, name string) *graph.Graph {
	t.Helper()
	g, _, err := graph.LoadEdgeList("../../testdata/corpus/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRunJobsMatchesSequential pins the lane kernel to the sequential
// one: random mixes of 1–9 jobs with distinct streams, landmarks and
// watched pairs, on unweighted and weighted corpus graphs and a graph
// whose degrees are all powers of two, with step budgets small enough to
// truncate, walks that start at their landmark, and a == b. Every job's
// per-walk counts, steps and absorbed flags, and the draws it leaves in
// its stream, must equal a one-walk-at-a-time AbsorbedCounts run on a copy
// of the stream.
func TestRunJobsMatchesSequential(t *testing.T) {
	regular, err := graph.RandomRegular(128, 8, randx.New(3))
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"ba_200_4":          loadLaneCorpus(t, "ba_200_4.edges"),
		"grid_14x14":        loadLaneCorpus(t, "grid_14x14.edges"),
		"ba_120_2_weighted": loadLaneCorpus(t, "ba_120_2_weighted.edges"),
		"regular_128_8":     regular,
	}
	if !graphs["ba_120_2_weighted"].Weighted() {
		t.Fatal("weighted corpus graph loaded unweighted")
	}
	rng := randx.New(99)
	seed := uint64(1)
	for name, g := range graphs {
		s := NewSampler(g)
		n := g.N()
		for trial := 0; trial < 40; trial++ {
			specs := make([]laneSpec, 1+rng.Intn(9))
			for i := range specs {
				sp := laneSpec{
					v: rng.Intn(n), a: rng.Intn(n), b: rng.Intn(n),
					maxSteps: 1 << 20, walks: rng.Intn(7), drawSrc: rng.Intn(2) == 0, seed: seed,
				}
				seed++
				sp.src = rng.Intn(n)
				switch rng.Intn(6) {
				case 0:
					sp.src = sp.v // absorbed before the first step
				case 1:
					sp.b = sp.a // a == b counts into na only
				case 2:
					sp.maxSteps = 1 + rng.Intn(40) // truncates most walks
				case 3:
					sp.a, sp.b = -1, -1
				}
				specs[i] = sp
			}
			jobs := make([]*specJob, len(specs))
			for i, sp := range specs {
				jobs[i] = &specJob{spec: sp, n: n, rng: randx.New(sp.seed)}
			}
			if err := s.RunJobs(context.Background(), jobQueue(jobs)); err != nil {
				t.Fatal(err)
			}
			for i, j := range jobs {
				want, wantRNG := sequential(s, j.spec)
				if len(j.got) != len(want) {
					t.Fatalf("%s trial %d job %d: %d walks, want %d", name, trial, i, len(j.got), len(want))
				}
				for k := range want {
					if j.got[k] != want[k] {
						t.Fatalf("%s trial %d job %d (%+v) walk %d: %+v, want %+v", name, trial, i, j.spec, k, j.got[k], want[k])
					}
				}
				if j.rng.Uint64() != wantRNG.Uint64() {
					t.Fatalf("%s trial %d job %d: stream consumed differently", name, trial, i)
				}
			}
		}
	}
}

// cancelingJob is a specJob that cancels its context as it begins walk
// number at (counting from 1).
type cancelingJob struct {
	*specJob
	at   int
	stop context.CancelFunc
}

func (j cancelingJob) Next() (Walk, bool) {
	if j.begun+1 == j.at {
		j.stop()
	}
	return j.specJob.Next()
}

// TestRunJobsCanceled: a canceled context stops RunJobs before any step,
// with every walk in flight reported to its job; a lone walk, which
// finishes in AbsorbedCounts, is stopped and reported the same way.
func TestRunJobsCanceled(t *testing.T) {
	g := loadLaneCorpus(t, "grid_14x14.edges")
	s := NewSampler(g)
	ctx, stop := context.WithCancel(context.Background())
	stop()
	jobs := make([]*specJob, 6)
	for i := range jobs {
		jobs[i] = &specJob{spec: laneSpec{src: i + 1, v: 0, a: -1, b: -1, maxSteps: 1 << 20, walks: 3}, n: g.N(), rng: randx.New(uint64(i))}
	}
	err := s.RunJobs(ctx, jobQueue(jobs))
	if !errors.Is(err, cancel.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	for i, j := range jobs {
		wantWalks := 0
		if i < Lanes {
			wantWalks = 1
		}
		if len(j.got) != wantWalks || (wantWalks == 1 && j.got[0] != walkOutcome{}) {
			t.Errorf("job %d reported %+v, want %d empty walk(s)", i, j.got, wantWalks)
		}
	}

	ctx, stop = context.WithCancel(context.Background())
	defer stop()
	lone := &specJob{spec: laneSpec{src: 1, v: 0, a: 1, b: 2, maxSteps: 1 << 20, walks: 3, seed: 7}, n: g.N(), rng: randx.New(7)}
	err = s.RunJob(ctx, cancelingJob{specJob: lone, at: 2, stop: stop})
	if !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("lone job: err = %v, want ErrCanceled", err)
	}
	want, _ := sequential(s, lone.spec)
	if len(lone.got) != 2 || lone.got[0] != want[0] || lone.got[1] != (walkOutcome{}) {
		t.Errorf("lone job reported %+v, want its first walk %+v and one empty walk", lone.got, want[0])
	}
}
