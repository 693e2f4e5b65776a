package core

import (
	"context"

	"landmarkrd/internal/walk"
)

// PairJob is a pair query split at its walks. The estimator's StartPair
// runs the deterministic part (validation and, for BiPush, both pushes,
// with their residuals copied out), so the job holds none of the
// estimator's scratch and the estimator can start the next query while
// this one walks. The job's walks then run through walk.Sampler.RunJobs,
// possibly in lockstep with other queries' walks, and Finish turns its
// counts into the answer. A query runs the same walks from the same stream
// however it is scheduled, so its Estimate keeps its bits.
type PairJob interface {
	walk.Job
	// Finish returns the query's answer once RunJobs is done with the
	// job; runErr is RunJobs' error (a cancellation), nil if the job ran
	// out of walks. It records the query in the estimator's metrics.
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

func (answered) Next() (walk.Walk, bool)  { return walk.Walk{}, false }
func (answered) Done(_, _, _ int, _ bool) {}

func (answered) HalfWidth() float64 { return 0 }

func (a answered) Finish(runErr error) (Estimate, error) {
	if runErr != nil {
		return Estimate{}, runErr
	}
	return a.est, nil
}

// Answered wraps an estimate that needs no walks as a PairJob, so a lane
// scheduler can treat every method alike.
func Answered(est Estimate) PairJob { return answered{est} }

// runPair runs the walks of job j alone and returns its answer: the one-job
// case of the lane scheduler, which every single-pair query takes.
func runPair(ctx context.Context, s *walk.Sampler, j PairJob) (Estimate, error) {
	return j.Finish(s.RunJob(ctx, j))
}
