// Package dynamic maintains resistance-distance queries over a base graph
// subject to a stream of edge insertions and deletions, without rebuilding
// anything. An update is a conductance delta on one vertex pair, and the
// updater keeps exactly that: an immutable copy-on-write log of Patch
// values over the base graph.
//
// Every delta passes one exact check before it is logged: a removal may
// not take more conductance than the pair carries in base plus log
// (ErrExceedsConductance), and a delta that brings a pair to zero must not
// cut a bridge (ErrDisconnecting). The check applies MaterializeGraph's
// cutoffs, so an accepted log always materializes into a connected graph.
// It costs one pair lookup, plus one BFS over base plus log when a pair
// reaches zero; no update runs a linear solve or stores a vector.
//
// Resistance answers r(s, t) on base plus log with one Jacobi CG solve on
// the grounded Laplacian, applying the log's deltas matrix-free. Intended
// for modest update counts (the classic "what if we add this link / close
// this road" analyses, and the live-serving epoch layer between re-bases);
// for bulk changes rebuild the graph with MaterializeGraph.
package dynamic

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"landmarkrd/internal/graph"
	"landmarkrd/internal/lap"
	"landmarkrd/internal/linalg"
)

// ErrDisconnecting is returned (wrapped — match with errors.Is) when a
// conductance removal would disconnect the graph: it brings a pair to zero
// conductance and that pair is a bridge of base plus log.
var ErrDisconnecting = errors.New("dynamic: update would disconnect the graph")

// ErrExceedsConductance is returned (wrapped — match with errors.Is) when a
// removal takes more conductance than the pair carries in base plus log,
// which would leave a negative edge weight.
var ErrExceedsConductance = errors.New("dynamic: removal exceeds the pair's conductance")

// MaterializeGraph's relative cutoffs, shared with the update check: a
// pair whose accumulated weight is above keepAbove times the magnitude
// that went into it is an edge, one below negativeBelow times that
// magnitude is an error, and one in between is cancellation dust and
// dropped.
const (
	keepAbove     = 1e-12
	negativeBelow = -1e-9
)

// Patch is one edge-delta against a base graph: W > 0 adds conductance
// between A and B, W < 0 removes it.
type Patch struct {
	A, B int
	W    float64
}

// Updater answers resistance queries on the base graph plus applied updates.
//
// Mutations (AddEdge, RemoveConductance) must be serialized by the caller,
// but queries may run concurrently with them: the update log is an
// immutable copy-on-write snapshot behind an atomic pointer, so a reader
// sees either the log before or after an append, never a torn slice.
type Updater struct {
	g   *graph.Graph
	log atomic.Pointer[[]Patch]
}

// New creates an updater over the connected base graph g.
func New(g *graph.Graph) (*Updater, error) {
	if !g.IsConnected() {
		return nil, graph.ErrNotConnected
	}
	u := &Updater{g: g}
	u.log.Store(&[]Patch{})
	return u, nil
}

// snapshot returns the current immutable update log.
func (u *Updater) snapshot() []Patch { return *u.log.Load() }

// Updates returns the number of applied modifications.
func (u *Updater) Updates() int { return len(u.snapshot()) }

// Patches returns the applied modifications as edge-deltas, in application
// order.
func (u *Updater) Patches() []Patch { return slices.Clone(u.snapshot()) }

// Materialize rebuilds a plain graph with all updates applied — useful to
// reset the updater after many modifications, and for testing.
func (u *Updater) Materialize() (*graph.Graph, error) {
	return MaterializeGraph(u.g, u.snapshot())
}

func (u *Updater) validate(a, b int) error {
	if err := u.g.ValidateVertex(a); err != nil {
		return err
	}
	if err := u.g.ValidateVertex(b); err != nil {
		return err
	}
	if a == b {
		return fmt.Errorf("dynamic: self loop (%d,%d)", a, b)
	}
	return nil
}

// AddEdge inserts an edge {a, b} of conductance w > 0 (parallel to any
// existing edge; conductances add).
func (u *Updater) AddEdge(a, b int, w float64) error {
	if err := u.validate(a, b); err != nil {
		return err
	}
	if !(w > 0) || math.IsInf(w, 1) {
		return fmt.Errorf("dynamic: AddEdge needs finite w > 0, got %v", w)
	}
	return u.apply(Patch{A: a, B: b, W: w})
}

// RemoveConductance subtracts w units of conductance from the pair {a, b}.
// Removing more than the pair carries fails with an error matching
// ErrExceedsConductance; removing all of a bridge's conductance fails with
// one matching ErrDisconnecting. A rejected removal leaves the log as it
// was.
func (u *Updater) RemoveConductance(a, b int, w float64) error {
	if err := u.validate(a, b); err != nil {
		return err
	}
	if !(w > 0) || math.IsInf(w, 1) {
		return fmt.Errorf("dynamic: RemoveConductance needs finite w > 0, got %v", w)
	}
	return u.apply(Patch{A: a, B: b, W: -w})
}

// apply checks p against the current log and publishes the log with p
// appended. Callers (the mutation path) are externally serialized.
func (u *Updater) apply(p Patch) error {
	cur := u.snapshot()
	next := make([]Patch, len(cur), len(cur)+1)
	copy(next, cur)
	next = append(next, p)
	if err := check(u.g, next); err != nil {
		return fmt.Errorf("dynamic: update (%d,%d,%v): %w", p.A, p.B, p.W, err)
	}
	u.log.Store(&next)
	return nil
}

// Resistance returns r(s, t) on the current (base + updates) graph: one
// Jacobi CG solve at lap.ExactTol on the grounded Laplacian of the graph
// MaterializeGraph would build, grounded where lap.ResistanceCG grounds.
// Safe to call concurrently with mutations; the answer reflects a
// consistent prefix of the update stream.
func (u *Updater) Resistance(s, t int) (float64, error) {
	if err := u.g.ValidateVertex(s); err != nil {
		return 0, err
	}
	if err := u.g.ValidateVertex(t); err != nil {
		return 0, err
	}
	if s == t {
		return 0, nil
	}
	op := &patchedGrounded{
		base:  lap.Grounded{G: u.g, Landmark: lap.GroundVertex(u.g, s, t)},
		pairs: foldLog(u.g, u.snapshot()),
	}
	b := make([]float64, u.g.N())
	b[s] = 1
	b[t] = -1
	b[op.base.Landmark] = 0 // the ground is t itself when n == 2
	x := make([]float64, len(b))
	if _, err := linalg.CG(op, x, b, linalg.CGOptions{Tol: lap.ExactTol}); err != nil {
		return 0, fmt.Errorf("dynamic: resistance solve: %w", err)
	}
	return x[s] - x[t], nil
}

// check decides whether MaterializeGraph(g, log) succeeds and is
// connected, given that it does for log without its last patch: only the
// last patch's pair changed, so the answer is that pair's sum against the
// cutoffs and, when the pair drops to zero, whether its endpoints still
// reach each other.
func check(g *graph.Graph, log []Patch) error {
	last := log[len(log)-1]
	pairs := foldLog(g, log)
	p := pairs[slices.IndexFunc(pairs, func(p pairSum) bool {
		return p.a == min(last.A, last.B) && p.b == max(last.A, last.B)
	})]
	switch {
	case p.w < negativeBelow*p.abs:
		return fmt.Errorf("%w: it leaves %v on (%d,%d)", ErrExceedsConductance, p.w, p.a, p.b)
	case !p.kept() && !reachable(g, pairs, p.a, p.b):
		return ErrDisconnecting
	}
	return nil
}

// pairSum is the conductance base plus log carries on one pair the log
// touches, accumulated in MaterializeGraph's order (base weight, then the
// patches in log order), with the magnitude of its contributions.
type pairSum struct {
	a, b         int // a < b
	base, w, abs float64
}

// kept reports whether MaterializeGraph keeps the pair as an edge.
func (p pairSum) kept() bool { return p.w > keepAbove*p.abs }

// delta returns the conductance the log adds to the pair's base weight in
// the graph MaterializeGraph builds (negative for a removal).
func (p pairSum) delta() float64 {
	if p.kept() {
		return p.w - p.base
	}
	return -p.base
}

// foldLog sums log per pair, in order of first appearance.
func foldLog(g *graph.Graph, log []Patch) []pairSum {
	var out []pairSum
	at := map[[2]int]int{}
	for _, q := range log {
		k := [2]int{min(q.A, q.B), max(q.A, q.B)}
		i, ok := at[k]
		if !ok {
			w := baseWeight(g, k[0], k[1])
			i = len(out)
			at[k] = i
			out = append(out, pairSum{a: k[0], b: k[1], base: w, w: w, abs: math.Abs(w)})
		}
		out[i].w += q.W
		out[i].abs += math.Abs(q.W)
	}
	return out
}

// baseWeight returns the conductance g carries on {a, b}, 0 for a non-edge.
func baseWeight(g *graph.Graph, a, b int) float64 {
	nb := g.Neighbors(a)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= int32(b) })
	if i < len(nb) && nb[i] == int32(b) {
		return g.EdgeWeight(a, i)
	}
	return 0
}

// reachable reports whether b is reachable from a in the graph
// MaterializeGraph builds from g and the log that pairs folds, without
// building it: the log decides the pairs it touches, the base every other.
func reachable(g *graph.Graph, pairs []pairSum, a, b int) bool {
	cut := map[int32][]int32{}   // base edges the log brought to zero
	extra := map[int32][]int32{} // kept log pairs the base lacks
	for _, p := range pairs {
		pa, pb := int32(p.a), int32(p.b)
		switch {
		case p.base > 0 && !p.kept():
			cut[pa], cut[pb] = append(cut[pa], pb), append(cut[pb], pa)
		case p.base == 0 && p.kept():
			extra[pa], extra[pb] = append(extra[pa], pb), append(extra[pb], pa)
		}
	}
	seen := make([]bool, g.N())
	seen[a] = true
	stack := []int32{int32(a)}
	for len(stack) > 0 && !seen[b] {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		skip := cut[u]
		for _, v := range g.Neighbors(int(u)) {
			if !seen[v] && !slices.Contains(skip, v) {
				seen[v] = true
				stack = append(stack, v)
			}
		}
		for _, v := range extra[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen[b]
}

// patchedGrounded is the grounded Laplacian of the graph MaterializeGraph
// builds, applied matrix-free: the base graph's grounded sweep plus one
// rank-one term per pair the log changes.
type patchedGrounded struct {
	base  lap.Grounded
	pairs []pairSum
}

// Dim implements linalg.Operator.
func (op *patchedGrounded) Dim() int { return op.base.Dim() }

// Apply computes dst = L_v x, treating x[v] as 0 and forcing dst[v] = 0
// for the grounded vertex v.
func (op *patchedGrounded) Apply(dst, x []float64) {
	op.base.Apply(dst, x)
	v := op.base.Landmark
	xv := x[v]
	x[v] = 0
	for _, p := range op.pairs {
		f := p.delta() * (x[p.a] - x[p.b])
		dst[p.a] += f
		dst[p.b] -= f
	}
	x[v] = xv
	dst[v] = 0
}

// Diagonal implements linalg.DiagonalProvider, so CG preconditions with
// Jacobi.
func (op *patchedGrounded) Diagonal() []float64 {
	d := op.base.Diagonal()
	for _, p := range op.pairs {
		d[p.a] += p.delta()
		d[p.b] += p.delta()
	}
	d[op.base.Landmark] = 1
	return d
}

// MaterializeGraph rebuilds a plain graph from g with the patches applied —
// the re-base step of the live-serving epoch layer, and the differential
// oracle's ground truth. The result is deterministic in (g, patches): the
// builder canonicalizes edge order, and per-edge weight accumulation
// follows CSR order then patch order.
func MaterializeGraph(g *graph.Graph, patches []Patch) (*graph.Graph, error) {
	type key struct{ a, b int }
	weights := map[key]float64{}
	// absSum tracks the total magnitude that contributed to each edge, so
	// the cancellation cutoff below is RELATIVE: a legitimately tiny base
	// conductance survives, while the float dust left by a full
	// RemoveConductance (e.g. 1 − 1 → 1e-17 against absSum 2) is swept.
	absSum := map[key]float64{}
	g.ForEachEdge(func(a, b int32, w float64) {
		k := key{int(a), int(b)}
		weights[k] += w
		absSum[k] += math.Abs(w)
	})
	for _, p := range patches {
		a, b := p.A, p.B
		if a > b {
			a, b = b, a
		}
		weights[key{a, b}] += p.W
		absSum[key{a, b}] += math.Abs(p.W)
	}
	bld := graph.NewBuilder(g.N())
	for k, w := range weights {
		switch {
		case w > keepAbove*absSum[k]:
			bld.AddWeightedEdge(k.a, k.b, w)
		case w < negativeBelow*absSum[k]:
			return nil, fmt.Errorf("dynamic: negative accumulated weight %v on (%d,%d)", w, k.a, k.b)
		}
	}
	return bld.Build()
}
