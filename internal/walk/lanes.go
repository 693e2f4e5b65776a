package walk

import (
	"context"

	"landmarkrd/internal/cancel"
	"landmarkrd/internal/randx"
)

// Lanes is how many walk jobs RunJobs advances in lockstep. One walk step
// is a serial chain (RNG draw, offset load, neighbor load), so a single
// walk leaves most of a core's pipeline idle; four independent chains fill
// it. It is a constant, not an option: results never depend on it.
const Lanes = 4

// Walk is one absorbed walk: from Src until it first reaches V, counting
// the occupancies of A and B before absorption exactly as AbsorbedCounts
// does, truncated after MaxSteps steps, drawing from RNG.
type Walk struct {
	Src, V, A, B int
	MaxSteps     int
	RNG          *randx.RNG
}

// Job is a run of absorbed walks that draws only from its own random
// stream. RunJobs calls Next for a job's next walk and Done with that
// walk's outcome, strictly alternating, so a job consumes its stream in
// the order a sequential loop over AbsorbedCounts would, whichever other
// jobs share the lanes. Next may draw from the stream itself (BiPush draws
// each walk's start there) and may end the job early, e.g. on an injected
// fault.
type Job interface {
	// Next returns the job's next walk, or false once the job is over.
	Next() (Walk, bool)
	// Done reports the outcome of the walk the last Next returned. On
	// cancellation RunJobs reports every walk in flight with its partial
	// counts and absorbed false before it returns the error.
	Done(na, nb, steps int, absorbed bool)
}

// lane is one walk in flight.
type lane struct {
	job                     Job
	rng                     *randx.RNG
	u, v, a, b              int
	na, nb, steps, maxSteps int
}

// start loads job j's next walk into l. Walks that end before their first
// step (src == v, or no step budget) go straight to Done, with the result
// AbsorbedCounts gives them. It reports false once j is over.
func (l *lane) start(j Job) bool {
	for {
		w, ok := j.Next()
		if !ok {
			return false
		}
		if w.Src == w.V {
			j.Done(0, 0, 0, true)
			continue
		}
		if w.MaxSteps <= 0 {
			j.Done(0, 0, 0, false)
			continue
		}
		*l = lane{job: j, rng: w.RNG, u: w.Src, v: w.V, a: w.A, b: w.B, maxSteps: w.MaxSteps}
		return true
	}
}

// refill loads the lane's next walk: its own job's while that job lasts,
// then the first walk of the next job next hands out. It reports false once
// next has no job left.
func (l *lane) refill(next func() Job) bool {
	if l.job != nil && l.start(l.job) {
		return true
	}
	for j := next(); j != nil; j = next() {
		if l.start(j) {
			return true
		}
	}
	return false
}

// RunJobs runs jobs until next returns nil, with up to Lanes of them in
// flight: every round advances each walk in flight by one step, and a lane
// whose job is over takes the next job from next. Each step is
// AbsorbedCounts' step, drawn from the walk's own stream, so every job's
// counts, steps and absorbed flags are the ones a sequential loop would
// produce; only wall time is shared. Once a single walk is left in flight,
// it finishes in AbsorbedCounts itself.
//
// RunJobs polls ctx every walkCheckEvery rounds (a lone walk, every
// walkCheckEvery steps) and, once it is done, reports the walks in flight
// to their jobs (see Job.Done) and returns a cancel.Error. A context that
// can never cancel is never polled. A panic in a job's Next or Done
// propagates to the caller, abandoning the jobs in flight; callers that
// need a panic confined to one job recover inside it.
func (s *Sampler) RunJobs(ctx context.Context, next func() Job) error {
	done := cancel.Done(ctx)
	var ls [Lanes]lane
	k := 0 // lanes in flight: ls[:k]
	for k < Lanes && ls[k].refill(next) {
		k++
	}
	budget := -1 // rounds until the next poll; never with no done channel
	if done != nil {
		budget = 0
	}
	for k > 0 {
		if budget == 0 {
			select {
			case <-done:
				for i := range ls[:k] {
					l := &ls[i]
					l.job.Done(l.na, l.nb, l.steps, false)
				}
				return cancel.Wrap(ctx.Err())
			default:
			}
			budget = walkCheckEvery
		}
		i, absorbed := 0, false
		if k == 1 {
			// A lone walk has no other lanes to hide the store and reload
			// of its state behind, so it finishes in AbsorbedCounts, which
			// keeps that state in registers.
			l := &ls[0]
			na, nb, steps, abs, err := s.AbsorbedCounts(ctx, l.u, l.v, l.a, l.b, l.maxSteps-l.steps, l.rng)
			l.na, l.nb, l.steps, absorbed = l.na+na, l.nb+nb, l.steps+steps, abs
			if err != nil {
				l.job.Done(l.na, l.nb, l.steps, false)
				return err
			}
		} else {
			if i, budget = s.advance(&ls, k, budget); i < 0 {
				continue
			}
			absorbed = ls[i].u == ls[i].v
		}
		l := &ls[i]
		l.job.Done(l.na, l.nb, l.steps, absorbed)
		if !l.refill(next) {
			// No job left to take the lane: retire it.
			k--
			ls[i], ls[k] = ls[k], lane{}
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
