package landmarkrd

import (
	"context"
	"time"

	"landmarkrd/internal/cancel"
	"landmarkrd/internal/core"
	"landmarkrd/internal/elim"
	"landmarkrd/internal/lap"
)

// ErrCanceled is returned (wrapped — test with errors.Is) by every
// context-aware query path once its context is done. The error also
// matches the underlying context cause, so
//
//	errors.Is(err, ErrCanceled)                 // "the query was aborted"
//	errors.Is(err, context.DeadlineExceeded)    // "…because it timed out"
//	errors.Is(err, context.Canceled)            // "…because the caller gave up"
//
// all hold as appropriate. The iterative kernels poll their context every
// few iterations (CG, Lanczos) or every few thousand steps/relaxations
// (walks, pushes), so an abort lands within microseconds of cancellation
// while costing under 1% on the uncancelled hot paths. Non-context APIs
// delegate with context.Background(), whose nil Done channel short-circuits
// every poll — their results stay byte-identical.
var ErrCanceled = cancel.ErrCanceled

// ExactContext is Exact with cancellation. A label answer returns an
// error matching ErrCanceled and the context cause when ctx is already
// done (a label build that has started runs to completion: its cost is
// bounded and its result is shared). The grounded CG solve aborts within
// a few matvecs once ctx is done. Either abort is counted in
// SolverStats().Canceled, the solve's with its partial iteration work.
func ExactContext(ctx context.Context, g *Graph, s, t int) (float64, error) {
	if err := requireGraph(g); err != nil {
		return 0, err
	}
	if err := validPair(g, s, t); err != nil || s == t {
		return 0, err
	}
	// The one exact path (DESIGN.md §10): g's labels, built on first use,
	// or else the grounded CG solve.
	m := lap.SolverMetrics()
	lab, err := elim.For(g, m)
	if err != nil {
		return 0, err
	}
	if lab == nil {
		return lap.ResistanceCGContext(ctx, g, s, t)
	}
	if err := cancel.Check(ctx); err != nil {
		m.Canceled.Inc()
		return 0, err
	}
	return labelAnswer(lab, s, t, m), nil
}

// labelPair answers r(s,t) from g's labels lab for a batch engine,
// recording the answer in m.
func labelPair(lab *elim.Labels, g *Graph, s, t int, m *Metrics) (float64, error) {
	if err := validPair(g, s, t); err != nil || s == t {
		return 0, err
	}
	return labelAnswer(lab, s, t, m), nil
}

// labelAnswer reads r(s,t) off lab, for valid s ≠ t, and records it in m.
func labelAnswer(lab *elim.Labels, s, t int, m *Metrics) float64 {
	start := time.Now()
	r := lab.Resistance(s, t)
	m.ObserveLabelAnswer(time.Since(start))
	return r
}

// validPair reports an out-of-range s or t.
func validPair(g *Graph, s, t int) error {
	if err := g.ValidateVertex(s); err != nil {
		return err
	}
	return g.ValidateVertex(t)
}

// PairContext is Pair with cancellation: the estimator's iterative kernels
// (walk loops, push queues) poll ctx and abort with an error matching
// ErrCanceled once the context is done. The partial work done before the
// abort is recorded in the estimator's Metrics as a canceled observation.
// With a context that can never cancel the result is byte-identical to
// Pair, including the consumed random stream.
func (e *Estimator) PairContext(ctx context.Context, s, t int) (Estimate, error) {
	switch e.method {
	case AbWalk:
		return e.ab.PairContext(ctx, s, t)
	case Push:
		return e.push.PairContext(ctx, s, t)
	default:
		return e.bipush.PairContext(ctx, s, t)
	}
}

// startPair begins a pair query and returns it as a job whose walks are
// still to run (see core.PairJob). Push has no walks: it answers here.
func (e *Estimator) startPair(ctx context.Context, s, t int) (core.PairJob, error) {
	switch e.method {
	case AbWalk:
		return e.ab.StartPair(ctx, s, t)
	case Push:
		est, err := e.push.PairContext(ctx, s, t)
		if err != nil {
			return nil, err
		}
		return core.Answered(est), nil
	default:
		return e.bipush.StartPair(ctx, s, t)
	}
}
