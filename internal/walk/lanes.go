package walk

import (
	"context"

	"landmarkrd/internal/cancel"
	"landmarkrd/internal/randx"
)

// Lanes is how many walks RunJobs advances in lockstep. One walk step is a
// serial chain (RNG draw, offset load, neighbor load), so a single walk
// leaves most of a core's pipeline idle; four independent chains fill it.
// It is a constant, not an option: results never depend on it.
const Lanes = 4

// Walk is one absorbed walk: from Src until it first reaches V, counting
// the occupancies of A and B before absorption exactly as AbsorbedCounts
// does, truncated after MaxSteps steps. ID is the job's name for the walk,
// which Done hands back.
type Walk struct {
	ID           int
	Src, V, A, B int
	MaxSteps     int
}

// Job is a set of absorbed walks, each drawing from a random stream of its
// own: Next seeds the lane's generator with the walk's stream, so neither
// the lane a walk runs in nor the walks beside it can change its outcome.
// RunJobs deals a job's walks to every free lane, so several walks of one
// job are in flight at once and Done reports them in the order they end,
// which a job must not depend on. Next may draw from the walk's stream
// itself (BiPush draws each walk's start there) and may end the job early,
// e.g. on an injected fault.
type Job interface {
	// Next returns the job's next walk, seeding rng with that walk's own
	// stream, or false once the job has no walk left to hand out.
	Next(rng *randx.RNG) (Walk, bool)
	// Done reports the outcome of walk id. On cancellation RunJobs reports
	// every walk in flight with its partial counts and absorbed false
	// before it returns the error.
	Done(id, na, nb, steps int, absorbed bool)
	// Over is called once the job is over: Next has returned false and
	// every walk it handed out has been reported. It is never called for a
	// job whose walks a cancellation cut short.
	Over()
}

// lane is one walk in flight, of the job the dealer numbered seq.
type lane struct {
	job                     Job
	seq, id                 int
	rng                     randx.RNG
	u, v, a, b              int
	na, nb, steps, maxSteps int
}

// start loads job j's next walk into l, seeding l's generator with the
// walk's stream. Walks that end before their first step (src == v, or no
// step budget) go straight to Done, with the result AbsorbedCounts gives
// them. It reports false once j has no walk left.
func (l *lane) start(j Job) bool {
	for {
		w, ok := j.Next(&l.rng)
		if !ok {
			return false
		}
		if w.Src == w.V {
			j.Done(w.ID, 0, 0, 0, true)
			continue
		}
		if w.MaxSteps <= 0 {
			j.Done(w.ID, 0, 0, 0, false)
			continue
		}
		l.job, l.id = j, w.ID
		l.u, l.v, l.a, l.b = w.Src, w.V, w.A, w.B
		l.na, l.nb, l.steps, l.maxSteps = 0, 0, 0, w.MaxSteps
		return true
	}
}

// dealer hands out walks to free lanes: every walk of the current job,
// then the next job's, until next has no job left. It numbers the jobs in
// the order next hands them out, so it can tell them apart without
// comparing them.
type dealer struct {
	ls   *[Lanes]lane
	k    int // lanes in flight: ls[:k]
	cur  Job // the job lanes are filled from; nil once next ran dry
	seq  int // cur's number
	next func() Job
}

// held reports whether a lane in flight runs a walk of job number seq.
func (d *dealer) held(seq int) bool {
	for i := range d.ls[:d.k] {
		if d.ls[i].job != nil && d.ls[i].seq == seq {
			return true
		}
	}
	return false
}

// fill loads the next walk into lane l (empty, or holding a reported
// walk), moving on to the next job whenever the current one has no walk
// left; a job that runs out with none of its walks in flight is over. It
// reports false once next has no job left.
func (d *dealer) fill(l *lane) bool {
	for d.cur != nil {
		if l.start(d.cur) {
			l.seq = d.seq
			return true
		}
		if !d.held(d.seq) {
			d.cur.Over()
		}
		d.cur, d.seq = d.next(), d.seq+1
	}
	return false
}

// RunJobs runs jobs until next returns nil, with up to Lanes walks in
// flight: every round advances each walk in flight by one step, and a lane
// whose walk is over takes the current job's next walk, or, once that job
// has none left, the first walk of the next job next hands out. So one job
// fills every lane, and jobs begin one after another. Each step is
// AbsorbedCounts' step, drawn from the walk's own stream, so every walk's
// counts, steps and absorbed flag are the ones a sequential loop would
// produce; only wall time is shared. Once a single walk is left in flight,
// it finishes in AbsorbedCounts itself. next is not called again once it
// has returned nil.
//
// RunJobs polls ctx every walkCheckEvery rounds (a lone walk, every
// walkCheckEvery steps) and, once it is done, reports the walks in flight
// to their jobs (see Job.Done) and returns a cancel.Error. A context that
// can never cancel is never polled. A panic in a job's callbacks
// propagates to the caller, abandoning the walks in flight; callers that
// need a panic confined to one job recover inside it.
func (s *Sampler) RunJobs(ctx context.Context, next func() Job) error {
	done := cancel.Done(ctx)
	var ls [Lanes]lane
	d := dealer{ls: &ls, cur: next(), next: next}
	for d.k < Lanes && d.fill(&ls[d.k]) {
		d.k++
	}
	budget := -1 // rounds until the next poll; never with no done channel
	if done != nil {
		budget = 0
	}
	for d.k > 0 {
		if budget == 0 {
			select {
			case <-done:
				for i := range ls[:d.k] {
					l := &ls[i]
					l.job.Done(l.id, l.na, l.nb, l.steps, false)
				}
				return cancel.Wrap(ctx.Err())
			default:
			}
			budget = walkCheckEvery
		}
		i, absorbed := 0, false
		if d.k == 1 {
			// A lone walk has no other lanes to hide the store and reload
			// of its state behind, so it finishes in AbsorbedCounts, which
			// keeps that state in registers.
			l := &ls[0]
			na, nb, steps, abs, err := s.AbsorbedCounts(ctx, l.u, l.v, l.a, l.b, l.maxSteps-l.steps, &l.rng)
			l.na, l.nb, l.steps, absorbed = l.na+na, l.nb+nb, l.steps+steps, abs
			if err != nil {
				l.job.Done(l.id, l.na, l.nb, l.steps, false)
				return err
			}
		} else {
			if i, budget = s.advance(&ls, d.k, budget); i < 0 {
				continue
			}
			absorbed = ls[i].u == ls[i].v
		}
		l := &ls[i]
		j, seq := l.job, l.seq
		j.Done(l.id, l.na, l.nb, l.steps, absorbed)
		l.job = nil
		dealt := seq == d.seq // j may still hand out walks
		if !d.fill(l) {
			// No job left to take the lane: retire it.
			d.k--
			ls[i], ls[d.k] = ls[d.k], lane{}
		}
		if !dealt && !d.held(seq) {
			j.Over()
		}
	}
	return nil
}

// RunJob runs the single job j: RunJobs' one-job case.
func (s *Sampler) RunJob(ctx context.Context, j Job) error {
	return s.RunJobs(ctx, func() Job {
		next := j
		j = nil
		return next
	})
}

// advance steps the walks in ls[:k] round by round until one of them ends,
// returning its lane and the rounds left of budget, or −1 once budget
// rounds have passed (a negative budget never runs out).
func (s *Sampler) advance(ls *[Lanes]lane, k, budget int) (int, int) {
	off, adj, cut, alias := s.off, s.adj, s.cut, s.alias
	for ; budget != 0; budget-- {
		for i := 0; i < k; i++ {
			l := &ls[i]
			u := l.u
			if u == l.a {
				l.na++
			} else if u == l.b {
				l.nb++
			}
			lo, hi := off[u], off[u+1]
			if lo == hi {
				isolated(u)
			}
			if cut == nil {
				u = int(adj[lo+int64(l.rng.Intn(int(hi-lo)))])
			} else {
				u = int(adj[aliasSlot(cut, alias, lo, uint64(hi-lo), l.rng.Uint64())])
			}
			l.u = u
			l.steps++
			if u == l.v || l.steps == l.maxSteps {
				return i, budget - 1
			}
		}
	}
	return -1, 0
}
