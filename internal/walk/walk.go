// Package walk provides the random-walk machinery the landmark framework
// is built on: v-absorbed walk sampling (with visit counting), run by
// RunJobs up to four walks at a time in lockstep, hitting-time estimation,
// and Wilson's loop-erased-walk algorithm for sampling uniform spanning
// trees.
package walk

import (
	"context"
	"fmt"
	"math/bits"

	"landmarkrd/internal/cancel"
	"landmarkrd/internal/graph"
	"landmarkrd/internal/randx"
)

// Sampler draws random-walk steps on a graph in O(1) per step: a uniform
// neighbor pick on unweighted graphs, and one alias-table lookup
// (graph.AliasTable) on weighted ones. It holds the graph's CSR and alias
// arrays so the walk loops index them directly. A Sampler is read-only and
// may be shared; the RNG passed to each call is not.
type Sampler struct {
	g     *graph.Graph
	off   []int64
	adj   []int32
	cut   []uint64 // nil for unweighted graphs
	alias []int32
}

// NewSampler returns a sampler for g, building the graph's alias table on
// first use (under a sync.Once, so concurrent construction is safe).
func NewSampler(g *graph.Graph) *Sampler {
	off, adj, _ := g.RawCSR()
	cut, alias := g.AliasTable()
	return &Sampler{g: g, off: off, adj: adj, cut: cut, alias: alias}
}

// Graph returns the underlying graph.
func (s *Sampler) Graph() *graph.Graph { return s.g }

// Step returns a random neighbor of u, chosen proportionally to edge
// weight. u must have at least one neighbor.
//
// Unweighted graphs draw rng.Intn(deg). Weighted graphs draw exactly one
// rng.Uint64() x and split the 128-bit product x·deg: the high word is the
// alias column, the low word the acceptance coin. The coin is uniform up to
// deg/2⁶⁴ per neighbor, finer than a float64 in [0, 1) can resolve.
func (s *Sampler) Step(u int, rng *randx.RNG) int {
	lo, hi := s.off[u], s.off[u+1]
	if lo == hi {
		isolated(u)
	}
	if s.cut == nil {
		return int(s.adj[lo+int64(rng.Intn(int(hi-lo)))])
	}
	return int(s.adj[aliasSlot(s.cut, s.alias, lo, uint64(hi-lo), rng.Uint64())])
}

// aliasSlot returns the CSR slot that the random word x picks among the deg
// neighbors starting at slot lo, using the alias table (cut, alias). It is
// small enough for the compiler to inline into both walk loops.
func aliasSlot(cut []uint64, alias []int32, lo int64, deg, x uint64) int64 {
	col, coin := bits.Mul64(x, deg)
	k := lo + int64(col)
	if coin >= cut[k] {
		k = lo + int64(alias[k])
	}
	return k
}

//go:noinline
func isolated(u int) {
	panic(fmt.Sprintf("walk: step from isolated vertex %d", u))
}

// walkCheckEvery is the cancellation poll period: in steps for
// AbsorbedCounts (and so for a walk RunJobs runs alone), in rounds for
// RunJobs, where a round advances each of up to Lanes walks in flight by
// one step. A step (RNG draw + neighbor pick) costs 14–16 ns when one walk
// runs alone and 9–10 ns when four run in lockstep, weighted or not: that
// is BenchmarkWalkStep on the BA(5000, 4) social stand-in, on one core of a
// 2-vCPU x86-64 VM with Go 1.24. A round of four steps thus costs about
// 40 ns, and polling every 1024 rounds costs well under 0.1% while
// bounding abort latency to about 15–40 µs even inside very long walks on
// a poorly conditioned graph.
const walkCheckEvery = 1024

// AbsorbedCounts runs a single random walk from src until it hits the
// absorbing vertex v, counting the occupancies of the two watched vertices
// a and b *before* absorption (src itself is the first occupancy; pass −1
// to watch nothing, and a == b counts into na only). maxSteps bounds the
// walk; steps reports the steps taken and absorbed whether the walk hit v
// within the budget.
//
// The walk polls ctx every walkCheckEvery steps and aborts with a
// cancel.Error once it is done, returning the counts so far. A context that
// can never cancel (context.Background) is never polled, so the RNG stream
// is the same with or without one.
//
// The estimators run their walks through RunJobs, which finishes a walk
// left alone in its lanes here. AbsorbedCounts is also the primitive under
// HittingTime and the sequential reference RunJobs is tested against.
func (s *Sampler) AbsorbedCounts(ctx context.Context, src, v, a, b, maxSteps int, rng *randx.RNG) (na, nb, steps int, absorbed bool, err error) {
	if src == v {
		return 0, 0, 0, true, nil
	}
	done := cancel.Done(ctx)
	off, adj, cut, alias := s.off, s.adj, s.cut, s.alias
	u := src
	for steps = 0; steps < maxSteps; steps++ {
		if done != nil && steps%walkCheckEvery == 0 {
			select {
			case <-done:
				return na, nb, steps, false, cancel.Wrap(ctx.Err())
			default:
			}
		}
		if u == a {
			na++
		} else if u == b {
			nb++
		}
		lo, hi := off[u], off[u+1]
		if lo == hi {
			isolated(u)
		}
		if cut == nil {
			u = int(adj[lo+int64(rng.Intn(int(hi-lo)))])
		} else {
			u = int(adj[aliasSlot(cut, alias, lo, uint64(hi-lo), rng.Uint64())])
		}
		if u == v {
			return na, nb, steps + 1, true, nil
		}
	}
	return na, nb, steps, false, nil
}

// HittingTime runs a single walk from src and returns the number of steps
// needed to reach v (or maxSteps if not absorbed).
func (s *Sampler) HittingTime(src, v int, maxSteps int, rng *randx.RNG) (steps int, absorbed bool) {
	_, _, steps, absorbed, _ = s.AbsorbedCounts(context.Background(), src, v, -1, -1, maxSteps, rng)
	return steps, absorbed
}

// EstimateHitting estimates the mean hitting time h(src, v) from nWalks
// samples, truncating each at maxSteps. Truncated walks contribute
// maxSteps, so the estimate is a lower bound when truncation occurs; the
// truncation fraction is returned so callers can tell.
func (s *Sampler) EstimateHitting(src, v, nWalks, maxSteps int, rng *randx.RNG) (mean float64, truncatedFrac float64) {
	if nWalks <= 0 {
		return 0, 0
	}
	total, truncated := 0, 0
	for i := 0; i < nWalks; i++ {
		steps, absorbed := s.HittingTime(src, v, maxSteps, rng)
		total += steps
		if !absorbed {
			truncated++
		}
	}
	return float64(total) / float64(nWalks), float64(truncated) / float64(nWalks)
}

// LazyStep performs one step of the 1/2-lazy walk: with probability 1/2
// stay at u, otherwise move to a random neighbor.
func (s *Sampler) LazyStep(u int, rng *randx.RNG) int {
	if rng.Uint64()&1 == 0 {
		return u
	}
	return s.Step(u, rng)
}
