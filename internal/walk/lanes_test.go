package walk

import (
	"context"
	"errors"
	"sync"
	"testing"

	"landmarkrd/internal/cancel"
	"landmarkrd/internal/graph"
	"landmarkrd/internal/randx"
)

// laneSpec is one job of the lane property test: walks absorbed walks to
// v watching a and b, each from src, or, with drawSrc, from a start the job
// draws from the walk's own stream before its first step (as BiPush does).
// Walk k draws from the stream keyed randx.Derive(seed, k).
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

// specRun records every walk of one laneSpec, whichever shard ran it.
type specRun struct {
	spec laneSpec
	n    int
	got  []walkOutcome
	seen []int // reports per walk
}

func newSpecRun(spec laneSpec, n int) *specRun {
	return &specRun{spec: spec, n: n, got: make([]walkOutcome, spec.walks), seen: make([]int, spec.walks)}
}

// specJob is shard first of stride of a specRun: walks first, first+stride,
// ... Shards of one run may run in concurrent RunJobs calls; each writes
// only its own walks' entries.
type specJob struct {
	run           *specRun
	next, stride  int
	inFlight, ran int  // walks begun and not reported; walks reported
	exhausted     bool // Next has returned false
	overs         int  // Over calls
	bad           string
}

func (r *specRun) shard(first, stride int) *specJob {
	return &specJob{run: r, next: first, stride: stride}
}

func (j *specJob) Next(rng *randx.RNG) (Walk, bool) {
	sp := j.run.spec
	if j.exhausted {
		j.bad = "Next called after it returned false"
	}
	if j.next >= sp.walks {
		j.exhausted = true
		return Walk{}, false
	}
	id := j.next
	j.next += j.stride
	j.inFlight++
	rng.Seed(randx.Derive(sp.seed, uint64(id)))
	src := sp.src
	if sp.drawSrc {
		src = rng.Intn(j.run.n)
	}
	return Walk{ID: id, Src: src, V: sp.v, A: sp.a, B: sp.b, MaxSteps: sp.maxSteps}, true
}

func (j *specJob) Done(id, na, nb, steps int, absorbed bool) {
	j.inFlight--
	j.ran++
	j.run.got[id] = walkOutcome{na, nb, steps, absorbed}
	j.run.seen[id]++
}

func (j *specJob) Over() {
	if !j.exhausted || j.inFlight != 0 {
		j.bad = "Over before every walk was reported"
	}
	j.overs++
}

// sequential runs spec's walks one at a time through AbsorbedCounts, each
// on its own stream, returning the outcomes.
func sequential(s *Sampler, spec laneSpec) []walkOutcome {
	var rng randx.RNG
	var out []walkOutcome
	for k := 0; k < spec.walks; k++ {
		rng.Seed(randx.Derive(spec.seed, uint64(k)))
		src := spec.src
		if spec.drawSrc {
			src = rng.Intn(s.Graph().N())
		}
		na, nb, steps, absorbed, _ := s.AbsorbedCounts(context.Background(), src, spec.v, spec.a, spec.b, spec.maxSteps, &rng)
		out = append(out, walkOutcome{na, nb, steps, absorbed})
	}
	return out
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
// truncate, walks that start at their landmark, and a == b. Each job's
// walks are dealt as shards to 1–3 concurrent RunJobs callers, and within
// a caller one job's walks spread over 1–4 lanes (0–9 walks per job). Every
// walk must be reported once, with the counts, steps and absorbed flag a
// one-walk-at-a-time AbsorbedCounts run on its own stream gives, and every
// shard must be over exactly once, after its last walk.
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
					maxSteps: 1 << 20, walks: rng.Intn(10), drawSrc: rng.Intn(2) == 0, seed: seed,
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
			callers := 1 + rng.Intn(3)
			runs := make([]*specRun, len(specs))
			shards := make([][]*specJob, callers)
			for i, sp := range specs {
				runs[i] = newSpecRun(sp, n)
				for c := range shards {
					shards[c] = append(shards[c], runs[i].shard(c, callers))
				}
			}
			var wg sync.WaitGroup
			errs := make([]error, callers)
			for c := range shards {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[c] = s.RunJobs(context.Background(), jobQueue(shards[c]))
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			for c := range shards {
				for i, j := range shards[c] {
					if j.bad != "" || j.overs != 1 {
						t.Fatalf("%s trial %d job %d shard %d/%d: %s, Over called %d times", name, trial, i, c, callers, j.bad, j.overs)
					}
				}
			}
			for i, r := range runs {
				want := sequential(s, r.spec)
				for k := range want {
					if r.seen[k] != 1 || r.got[k] != want[k] {
						t.Fatalf("%s trial %d job %d (%+v) walk %d: reported %d times, %+v, want %+v", name, trial, i, r.spec, k, r.seen[k], r.got[k], want[k])
					}
				}
			}
		}
	}
}

// cancelingJob is a specJob that cancels its context as its walks are
// reported.
type cancelingJob struct {
	*specJob
	stop context.CancelFunc
}

func (j cancelingJob) Done(id, na, nb, steps int, absorbed bool) {
	j.stop()
	j.specJob.Done(id, na, nb, steps, absorbed)
}

// TestRunJobsCanceled: a canceled context stops RunJobs before any step,
// with every walk in flight reported to its job and no job over; a lone
// walk, which finishes in AbsorbedCounts, is stopped and reported the same
// way.
func TestRunJobsCanceled(t *testing.T) {
	g := loadLaneCorpus(t, "grid_14x14.edges")
	s := NewSampler(g)
	ctx, stop := context.WithCancel(context.Background())
	stop()
	jobs := make([]*specJob, 3)
	for i := range jobs {
		jobs[i] = newSpecRun(laneSpec{src: i + 1, v: 0, a: -1, b: -1, maxSteps: 1 << 20, walks: 3, seed: uint64(i)}, g.N()).shard(0, 1)
	}
	err := s.RunJobs(ctx, jobQueue(jobs))
	if !errors.Is(err, cancel.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	// One job fills the lanes: its three walks, then the next job's first.
	for i, want := range []int{3, 1, 0} {
		j := jobs[i]
		if j.ran != want || j.inFlight != 0 || j.overs != 0 {
			t.Errorf("job %d: %d walks reported, %d in flight, over %d times; want %d, 0, 0", i, j.ran, j.inFlight, j.overs, want)
		}
		for k := 0; k < want; k++ {
			if j.run.got[k] != (walkOutcome{}) {
				t.Errorf("job %d walk %d reported %+v, want an empty walk", i, k, j.run.got[k])
			}
		}
	}

	// A one-step walk ends in the first round, after the long walk's first
	// step, and cancels; the long walk, left alone, goes on in
	// AbsorbedCounts, which sees the cancellation at its first poll.
	ctx, stop = context.WithCancel(context.Background())
	defer stop()
	short := newSpecRun(laneSpec{src: 1, v: 0, a: -1, b: -1, maxSteps: 1, walks: 1, seed: 7}, g.N()).shard(0, 1)
	long := newSpecRun(laneSpec{src: 150, v: 0, a: 150, b: 151, maxSteps: 1 << 20, walks: 1, seed: 8}, g.N()).shard(0, 1)
	err = s.RunJobs(ctx, jobQueue([]Job{long, cancelingJob{specJob: short, stop: stop}}))
	if !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("lone walk: err = %v, want ErrCanceled", err)
	}
	if short.ran != 1 || short.overs != 1 || short.bad != "" {
		t.Errorf("short job: %d walks reported, over %d times (%s); want 1, 1", short.ran, short.overs, short.bad)
	}
	if got := long.run.got[0]; long.ran != 1 || got.steps != 1 || got.absorbed || long.overs != 0 {
		t.Errorf("lone walk reported %d times as %+v, over %d times; want once, after its one lane step, not over", long.ran, got, long.overs)
	}
}
