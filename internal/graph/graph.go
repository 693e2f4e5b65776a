// Package graph provides the compressed-sparse-row (CSR) undirected graph
// that every algorithm in this module operates on, together with builders,
// edge-list IO, traversals, and synthetic generators.
//
// Graphs are simple (no self loops, no parallel edges after building),
// undirected, and optionally weighted with positive edge weights. Vertices
// are dense integers in [0, N).
package graph

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Graph is an immutable undirected graph in CSR form.
//
// For each vertex u, the neighbors are adj[offsets[u]:offsets[u+1]] with
// matching weights w[offsets[u]:offsets[u+1]]. Every undirected edge {u,v}
// is stored twice, once in each endpoint's adjacency list.
type Graph struct {
	n       int
	m       int64 // number of undirected edges
	offsets []int64
	adj     []int32
	w       []float64 // nil for unweighted graphs (all weights 1)
	deg     []float64 // weighted degree per vertex
	volume  float64   // sum of weighted degrees = 2 * total edge weight

	connOnce  sync.Once // memoizes IsConnected (the graph is immutable)
	connected bool

	fpOnce sync.Once // memoizes Fingerprint (the graph is immutable)
	fp     uint64

	aliasOnce sync.Once // memoizes AliasTable (the graph is immutable)
	aliasCut  []uint64  // per-slot acceptance thresholds, 2⁶⁴ fixed point
	aliasTo   []int32   // per-slot alias, as an index local to the vertex

	labelMu   sync.Mutex  // serializes the first LabelSlot build
	labelDone atomic.Bool // set once labels holds a built value
	labels    any         // package elim's labels, or nil for "no labels"
}

// Fingerprint returns a 64-bit FNV-1a hash over the graph's CSR arrays
// (n, m, offsets, adjacency, weights). Two graphs with the same fingerprint
// are, for persistence purposes, the same graph: the index snapshot format
// stores it so a snapshot cannot be silently rebound to a different graph
// of the same size. Memoized; the first call costs one pass over the CSR.
func (g *Graph) Fingerprint() uint64 {
	g.fpOnce.Do(func() {
		const prime = 1099511628211
		h := uint64(14695981039346656037)
		mix := func(v uint64) {
			for i := 0; i < 8; i++ {
				h ^= v & 0xff
				h *= prime
				v >>= 8
			}
		}
		mix(uint64(g.n))
		mix(uint64(g.m))
		for _, o := range g.offsets {
			mix(uint64(o))
		}
		for _, a := range g.adj {
			mix(uint64(uint32(a)))
		}
		if g.w != nil {
			for _, x := range g.w {
				mix(math.Float64bits(x))
			}
		}
		g.fp = h
	})
	return g.fp
}

// ErrNotConnected is returned by operations that require a connected graph.
var ErrNotConnected = errors.New("graph: not connected")

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int64 { return g.m }

// Weighted reports whether the graph carries non-unit edge weights.
func (g *Graph) Weighted() bool { return g.w != nil }

// Volume returns the sum of weighted degrees (twice the total edge weight).
func (g *Graph) Volume() float64 { return g.volume }

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// WeightedDegree returns the sum of weights of edges incident to u.
// For unweighted graphs this equals Degree(u).
func (g *Graph) WeightedDegree(u int) float64 { return g.deg[u] }

// Neighbors returns the adjacency slice of u. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(u int) []int32 {
	return g.adj[g.offsets[u]:g.offsets[u+1]]
}

// NeighborWeights returns the weights aligned with Neighbors(u), or nil for
// unweighted graphs.
func (g *Graph) NeighborWeights(u int) []float64 {
	if g.w == nil {
		return nil
	}
	return g.w[g.offsets[u]:g.offsets[u+1]]
}

// EdgeWeight returns the weight of the i-th incident edge of u
// (1 for unweighted graphs).
func (g *Graph) EdgeWeight(u int, i int) float64 {
	if g.w == nil {
		return 1
	}
	return g.w[g.offsets[u]+int64(i)]
}

// RawCSR exposes the raw CSR arrays for flat kernel loops: offsets has
// length N()+1, adj holds the neighbor lists back to back, and w the
// matching weights (nil for unweighted graphs). The slices alias internal
// storage and must be treated as read-only; this accessor exists so the
// module's hot sparse kernels (Laplacian applies, solvers) can iterate
// directly instead of paying a closure call per edge.
func (g *Graph) RawCSR() (offsets []int64, adj []int32, w []float64) {
	return g.offsets, g.adj, g.w
}

// WeightedDegrees returns the per-vertex weighted degree slice (the
// Laplacian diagonal). Aliases internal storage; read-only.
func (g *Graph) WeightedDegrees() []float64 { return g.deg }

// ForEachNeighbor calls fn(v, w) for every edge (u, v) with weight w.
func (g *Graph) ForEachNeighbor(u int, fn func(v int32, w float64)) {
	lo, hi := g.offsets[u], g.offsets[u+1]
	if g.w == nil {
		for i := lo; i < hi; i++ {
			fn(g.adj[i], 1)
		}
		return
	}
	for i := lo; i < hi; i++ {
		fn(g.adj[i], g.w[i])
	}
}

// ForEachEdge calls fn(u, v, w) exactly once per undirected edge, with u < v.
func (g *Graph) ForEachEdge(fn func(u, v int32, w float64)) {
	for u := 0; u < g.n; u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		for i := lo; i < hi; i++ {
			v := g.adj[i]
			if int32(u) < v {
				wt := 1.0
				if g.w != nil {
					wt = g.w[i]
				}
				fn(int32(u), v, wt)
			}
		}
	}
}

// HasEdge reports whether {u,v} is an edge, by binary search over u's
// (sorted) adjacency list.
func (g *Graph) HasEdge(u, v int) bool {
	a := g.Neighbors(u)
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < int32(v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(a) && a[lo] == int32(v)
}

// MaxDegreeVertex returns a vertex of maximum weighted degree.
func (g *Graph) MaxDegreeVertex() int {
	best, bestDeg := 0, math.Inf(-1)
	for u := 0; u < g.n; u++ {
		if g.deg[u] > bestDeg {
			best, bestDeg = u, g.deg[u]
		}
	}
	return best
}

// ValidateVertex returns an error if u is out of range.
func (g *Graph) ValidateVertex(u int) error {
	if u < 0 || u >= g.n {
		return fmt.Errorf("graph: vertex %d out of range [0,%d)", u, g.n)
	}
	return nil
}

// AliasTable returns the Walker/Vose alias table of the weighted neighbor
// distribution, aligned slot for slot with the adj array of RawCSR, or
// (nil, nil) for unweighted graphs.
//
// Vertex u's slots are [offsets[u], offsets[u+1]). A step from u that
// lands in local column j (uniform over the deg(u) columns) keeps neighbor
// j when a uniform 64-bit coin is below cut[offsets[u]+j], and otherwise
// moves to local neighbor to[offsets[u]+j]. Column j thus carries mass
// cut/2⁶⁴ of its own neighbor plus the rest for its alias, and the columns
// together reproduce w(u,x)/d(u) for every neighbor x. A column that needs
// no alias ("full") has cut = 2⁶⁴−1 and aliases itself, so the rare coin
// equal to 2⁶⁴−1 still picks the same neighbor.
//
// The table is built once, on first use, under a sync.Once; the slices
// alias internal storage and must be treated as read-only.
func (g *Graph) AliasTable() (cut []uint64, to []int32) {
	if g.w == nil {
		return nil, nil
	}
	g.aliasOnce.Do(g.buildAlias)
	return g.aliasCut, g.aliasTo
}

// buildAlias runs Vose's alias construction for every vertex: columns
// scaled to mean 1 are split into those below 1 ("small") and the rest
// ("large"); each small column is topped up by a large one, which then
// shrinks by the amount donated. Stacks are processed LIFO, so the table
// is a deterministic function of the graph.
func (g *Graph) buildAlias() {
	cut := make([]uint64, len(g.w))
	to := make([]int32, len(g.w))
	maxDeg := 0
	for u := 0; u < g.n; u++ {
		maxDeg = max(maxDeg, g.Degree(u))
	}
	prob := make([]float64, maxDeg)
	small := make([]int32, 0, maxDeg)
	large := make([]int32, 0, maxDeg)
	for u := 0; u < g.n; u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		deg := int(hi - lo)
		wts := g.w[lo:hi]
		sum := 0.0
		for _, x := range wts {
			sum += x
		}
		small, large = small[:0], large[:0]
		for j, x := range wts {
			prob[j] = x * float64(deg) / sum
			if prob[j] < 1 {
				small = append(small, int32(j))
			} else {
				large = append(large, int32(j))
			}
		}
		c, a := cut[lo:hi], to[lo:hi]
		for len(small) > 0 && len(large) > 0 {
			s := small[len(small)-1]
			small = small[:len(small)-1]
			l := large[len(large)-1]
			c[s], a[s] = uint64(prob[s]*0x1p64), l // prob[s] < 1: fits
			prob[l] -= 1 - prob[s]
			if prob[l] < 1 {
				large = large[:len(large)-1]
				small = append(small, l)
			}
		}
		// Whatever remains is full up to rounding: a large column whose
		// mass ended at or above 1, or a small one left over only because
		// floating-point error exhausted the large stack first.
		for _, j := range append(small, large...) {
			c[j], a[j] = math.MaxUint64, j
		}
	}
	g.aliasCut, g.aliasTo = cut, to
}

// LabelSlot returns the graph's exact elimination labels (package elim),
// calling build to make them on first use. It is the alias table's
// build-once slot with one difference: build runs at most once to
// success. Its value, nil included (a graph with no labels), is kept for
// the graph's lifetime, while an error or a panic leaves the slot empty,
// so a later call builds again. Concurrent first callers wait for the one
// build in progress.
func (g *Graph) LabelSlot(build func() (any, error)) (any, error) {
	if g.labelDone.Load() {
		return g.labels, nil
	}
	g.labelMu.Lock()
	defer g.labelMu.Unlock()
	if g.labelDone.Load() {
		return g.labels, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	g.labels = v
	g.labelDone.Store(true)
	return v, nil
}

// Stats summarizes basic structural statistics.
type Stats struct {
	N         int
	M         int64
	AvgDegree float64
	MaxDegree int
	MinDegree int
	Weighted  bool
}

// BasicStats computes the summary statistics of g.
func (g *Graph) BasicStats() Stats {
	s := Stats{N: g.n, M: g.m, Weighted: g.w != nil, MinDegree: math.MaxInt}
	for u := 0; u < g.n; u++ {
		d := g.Degree(u)
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		if d < s.MinDegree {
			s.MinDegree = d
		}
	}
	if g.n > 0 {
		s.AvgDegree = 2 * float64(g.m) / float64(g.n)
	} else {
		s.MinDegree = 0
	}
	return s
}
