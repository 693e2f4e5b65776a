package core

import (
	"errors"
	"fmt"
	"time"

	"landmarkrd/internal/graph"
	"landmarkrd/internal/obs"
)

// Estimate is the result of a pairwise resistance query.
type Estimate struct {
	// Value is the estimated resistance distance.
	Value float64
	// ErrBound is an a-posteriori additive error bound when the algorithm
	// provides one (Push); 0 means "no deterministic bound".
	ErrBound float64
	// Walks is the number of absorbed random walks sampled.
	Walks int
	// WalkSteps is the total number of random-walk steps taken.
	WalkSteps int64
	// PushOps is the number of push edge-relaxations performed.
	PushOps int64
	// LandmarkHits is the number of walks absorbed at the landmark (the
	// rest were truncated by MaxSteps).
	LandmarkHits int
	// ResidualL1 is the total ‖res‖₁ left by the push phase(s) at
	// termination; 0 for pure Monte Carlo estimators.
	ResidualL1 float64
	// Duration is the query wall time. A batched query's walks share its
	// worker's lanes with the last walks of the query before it, so its
	// Duration is its time in flight, partly shared with that query's; in
	// a batch smaller than the worker pool it also waits for the slowest
	// worker's share of every query's walks.
	Duration time.Duration
	// Converged is false when a budget (MaxOps / MaxSteps) was exhausted
	// before the accuracy target was met; Value is still the best
	// available estimate.
	Converged bool
}

// observation converts the estimate into a metrics record.
func (e Estimate) observation() obs.QueryObservation {
	return obs.QueryObservation{
		Duration:       e.Duration,
		PushOps:        e.PushOps,
		Walks:          int64(e.Walks),
		WalkSteps:      e.WalkSteps,
		LandmarkHits:   int64(e.LandmarkHits),
		TruncatedWalks: int64(e.Walks - e.LandmarkHits),
		ResidualL1:     e.ResidualL1,
	}
}

// Common errors returned by query validation.
var (
	ErrSameVertex       = errors.New("core: s == t (resistance is 0)")
	ErrLandmarkConflict = errors.New("core: landmark coincides with a query vertex")
)

// ErrDisconnected is returned by estimator and index constructors when the
// graph is not connected. Resistance to an unreachable vertex is infinite,
// and the landmark machinery would otherwise fail silently: absorbed walks
// from a component without the landmark never absorb (they truncate into a
// biased estimate), and grounded pushes there never drain their residual.
// It aliases graph.ErrNotConnected so errors.Is matches across layers.
var ErrDisconnected = graph.ErrNotConnected

// requireConnected rejects graphs the landmark estimators cannot answer
// on. The connectivity answer is memoized on the immutable graph, so the
// check costs one BFS for the first constructor and nothing afterwards.
func requireConnected(g *graph.Graph) error {
	if !g.IsConnected() {
		return ErrDisconnected
	}
	return nil
}

// validateQuery checks a pair query against graph and landmark.
func validateQuery(g *graph.Graph, landmark, s, t int) error {
	if err := g.ValidateVertex(s); err != nil {
		return err
	}
	if err := g.ValidateVertex(t); err != nil {
		return err
	}
	if err := g.ValidateVertex(landmark); err != nil {
		return fmt.Errorf("core: invalid landmark: %w", err)
	}
	if s == landmark || t == landmark {
		return ErrLandmarkConflict
	}
	return nil
}
