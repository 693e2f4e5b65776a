package core

import (
	"context"

	"landmarkrd/internal/faultinject"
	"landmarkrd/internal/randx"
	"landmarkrd/internal/walk"
)

// PairJob is a pair query split at its walks. The estimator's StartPair
// runs the deterministic part (validation and, for BiPush, both pushes,
// with their residuals copied out), so the job holds none of the
// estimator's scratch and the estimator can start the next query while
// this one walks. The job's walks then run through walk.Sampler.RunJobs,
// as one job or split into shards that run on several workers at once,
// and Finish turns their counts into the answer. Every walk draws from a
// stream of its own, keyed by the estimator's seed, the pair (as min, max)
// and the walk's side and index, and the counts add up as integers, so a
// query's Estimate keeps its bits however its walks are scheduled, split
// or oriented.
type PairJob interface {
	// Shards splits the query's walks into n jobs: job k runs walks k,
	// k+n, k+2n, … of the query's walk order (side 0's walks, then side
	// 1's). Call it once, before any walk runs; the jobs may then run at
	// once, in different RunJobs calls. Shards(1) is all the walks as one
	// job.
	Shards(n int) []walk.Job
	// Finish returns the query's answer once RunJobs is done with every
	// shard; runErr is RunJobs' error (a cancellation), nil if the shards
	// ran out of walks. It records the query in the estimator's metrics.
	Finish(runErr error) (Estimate, error)
}

// CIJob is a PairJob whose Finish also computes a 95% confidence
// half-width for its estimate (AbWalkEstimator.StartPairWithCI), which
// HalfWidth returns after Finish.
type CIJob interface {
	PairJob
	HalfWidth() float64
}

// answered is a PairJob with no walks left to run: Start answered the
// query outright (s == t, or a method without walks).
type answered struct{ est Estimate }

func (answered) Shards(n int) []walk.Job {
	jobs := make([]walk.Job, n)
	for k := range jobs {
		jobs[k] = noWalks{}
	}
	return jobs
}

func (answered) HalfWidth() float64 { return 0 }

func (a answered) Finish(runErr error) (Estimate, error) {
	if runErr != nil {
		return Estimate{}, runErr
	}
	return a.est, nil
}

// noWalks is a walk.Job without walks.
type noWalks struct{}

func (noWalks) Next(*randx.RNG) (walk.Walk, bool) { return walk.Walk{}, false }
func (noWalks) Done(_, _, _, _ int, _ bool)       {}
func (noWalks) Over()                             {}

// Answered wraps an estimate that needs no walks as a PairJob, so a lane
// scheduler can treat every method alike.
func Answered(est Estimate) PairJob { return answered{est} }

// runPair runs the walks of job j as one job and returns its answer: the
// case every single-pair estimator query takes.
func runPair(ctx context.Context, s *walk.Sampler, j PairJob) (Estimate, error) {
	return j.Finish(s.RunJob(ctx, j.Shards(1)[0]))
}

// canonical orders a pair as (min, max): every estimator answers that
// orientation, so (s, t) and (t, s) get one answer.
func canonical(s, t int) (int, int) {
	if s > t {
		return t, s
	}
	return s, t
}

// pairKey is the stream key of the pair (s, t), s < t, under seed.
func pairKey(seed uint64, s, t int) uint64 {
	return randx.Derive(randx.Derive(seed, uint64(s)), uint64(t))
}

// walkKey is the stream key of walk k of side (0 or 1) of the pair whose
// key is pair.
func walkKey(pair uint64, side, k int) uint64 {
	return randx.Derive(pair, uint64(k)<<1|uint64(side))
}

// pairWalk is walk k of side of AbWalk's walk-pairs for the pair s < t
// keyed key: from s watching s then t (side 0, which fires the fault hook
// fi once per walk-pair), or from t watching t then s (side 1). It seeds
// rng with the walk's stream.
func pairWalk(s, t, landmark, maxSteps int, key uint64, fi *faultinject.Hook, side, k int, rng *randx.RNG) (walk.Walk, error) {
	w := walk.Walk{Src: s, V: landmark, A: s, B: t, MaxSteps: maxSteps}
	if side == 0 {
		if err := fi.Fire(); err != nil {
			return walk.Walk{}, err
		}
	} else {
		w.Src, w.A, w.B = t, t, s
	}
	rng.Seed(walkKey(key, side, k))
	return w, nil
}

// tally sums the outcomes of one side's walks. Its fields are integers,
// which add exactly in any order.
type tally struct {
	na, nb, steps int64 // visits to the watched A and B; steps taken
	walks, hits   int   // walks reported; walks absorbed
}

func (t *tally) add(o tally) {
	t.na += o.na
	t.nb += o.nb
	t.steps += o.steps
	t.walks += o.walks
	t.hits += o.hits
}

// walkSource hands out a pair query's walks by side and index.
type walkSource interface {
	// walk returns walk k of side, seeding rng with its own stream. An
	// error (an injected fault) ends the shard that asked for it.
	walk(side, k int, rng *randx.RNG) (walk.Walk, error)
}

// pairWalks is the walk half of a pair query: n[0] walks from side 0, then
// n[1] from side 1, dealt out by its shards. With parts set, each walk also
// stores its part of the per-walk-pair statistic
//
//	x_k = (a_k/d_s − b_k/d_t) + (a'_k/d_t − b'_k/d_s),
//
// where walk k of side 0 (from s) visits s a_k and t b_k times and walk k
// of side 1 (from t) visits t a'_k and s b'_k times: the two parts, indexed
// like the walks, are added and folded in walk-pair order (fold), so the
// statistic's floating-point sums do not depend on the order walks end in.
type pairWalks struct {
	n      [2]int
	parts  []float64
	deg    [2][2]float64 // the degrees each side's part divides A's and B's visits by
	shards []*shard
}

// withParts allocates the per-walk parts for the statistic above, for a
// query with weighted degrees ds and dt: side 0 watches s then t, side 1 t
// then s.
func (pw *pairWalks) withParts(ds, dt float64) {
	pw.parts = make([]float64, pw.n[0]+pw.n[1])
	pw.deg = [2][2]float64{{ds, dt}, {dt, ds}}
}

// split makes the n shards of src's walks.
func (pw *pairWalks) split(src walkSource, n int) []walk.Job {
	jobs := make([]walk.Job, n)
	pw.shards = make([]*shard, n)
	for k := range jobs {
		sh := &shard{pw: pw, src: src, next: k, stride: n}
		pw.shards[k], jobs[k] = sh, sh
	}
	return jobs
}

// totals adds up the shards' tallies per side, and returns the error of
// the first shard (in shard order) that a fault ended.
func (pw *pairWalks) totals() (t [2]tally, err error) {
	for _, sh := range pw.shards {
		t[0].add(sh.tally[0])
		t[1].add(sh.tally[1])
		if err == nil {
			err = sh.err
		}
	}
	return t, err
}

// fold sums the per-walk-pair statistic over walk pairs 0…n[0]−1, in that
// order, into sum and sumSq.
func (pw *pairWalks) fold(sum, sumSq *float64) {
	w := pw.n[0]
	for k, a := range pw.parts[:w] {
		x := a + pw.parts[w+k]
		*sum += x
		*sumSq += x * x
	}
}

// shard is one share of a pairWalks as a walk.Job. Shards of one query may
// run at once: each tallies its own walks and writes only their parts.
type shard struct {
	pw           *pairWalks
	src          walkSource
	next, stride int // the next walk index to deal, and the shard count
	tally        [2]tally
	err          error // the fault that ended the shard
}

// side returns the side and index within it of walk id.
func (sh *shard) side(id int) (int, int) {
	if id < sh.pw.n[0] {
		return 0, id
	}
	return 1, id - sh.pw.n[0]
}

// Next implements walk.Job.
func (sh *shard) Next(rng *randx.RNG) (walk.Walk, bool) {
	if sh.err != nil || sh.next >= sh.pw.n[0]+sh.pw.n[1] {
		return walk.Walk{}, false
	}
	id := sh.next
	sh.next += sh.stride
	side, k := sh.side(id)
	w, err := sh.src.walk(side, k, rng)
	if err != nil {
		sh.err = err
		return walk.Walk{}, false
	}
	w.ID = id
	return w, true
}

// Done implements walk.Job.
func (sh *shard) Done(id, na, nb, steps int, absorbed bool) {
	side, _ := sh.side(id)
	t := &sh.tally[side]
	t.na += int64(na)
	t.nb += int64(nb)
	t.steps += int64(steps)
	t.walks++
	if absorbed {
		t.hits++
	}
	if pw := sh.pw; pw.parts != nil {
		d := &pw.deg[side]
		pw.parts[id] = float64(na)/d[0] - float64(nb)/d[1]
	}
}

// Over implements walk.Job.
func (*shard) Over() {}
