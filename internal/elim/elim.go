// Package elim answers exact resistance queries on low-treewidth graphs
// from elimination labels (THEORY.md §13).
//
// An exact minimum-degree elimination of the Laplacian factors the
// Laplacian grounded at the last eliminated vertex as L_g = L·D·Lᵀ, with L
// unit lower-triangular in elimination order. The label of u is
// D^{-1/2}·L⁻¹e_u. It is supported on u's path up the elimination tree,
// so it is stored there, and
//
//	r(s,t) = ‖label(s) − label(t)‖²
//
// is one merge over the two paths. A query costs O(depth) and allocates
// nothing.
//
// Fill makes the factor dear on expander-like graphs, so the build runs
// under a budget: label floats, elimination work and the symbolic pass's
// adjacency scans are each held to Budget·(n+m). A graph over the budget
// has no labels, and its exact answers come from the grounded CG solve.
package elim

import (
	"math"
	"slices"

	"landmarkrd/internal/faultinject"
	"landmarkrd/internal/graph"
	"landmarkrd/internal/guard"
	"landmarkrd/internal/obs"
)

// Budget is the constant c of the fill budget: a graph has labels only if
// its label floats Σ_u depth(u), its elimination work Σ_v k_v² (k_v the
// clique a vertex is eliminated with) and the adjacency entries the
// symbolic pass scans are each at most c·(n+m). It is sized so that
// rdload's road graph and the grid_14x14 corpus graph keep at least 1.5×
// headroom on all three (THEORY.md §13).
const Budget = 64

// Labels is the exact elimination factor of one graph, stored as labels.
// It is immutable once built and safe for concurrent readers.
type Labels struct {
	pos    []int32   // vertex → elimination position; the ground is last, at n−1
	parent []int32   // position → parent position in the elimination tree
	off    []int     // position → first entry of its label in vals
	vals   []float64 // each label, ordered up its elimination-tree path
}

// For returns g's labels, building them on first use, or nil when g has
// none (see Build). The build runs at most once per graph and records into
// m, which may be nil. The label.build fault site fires before a build: an
// injected error, or a panic recovered into guard.ErrInternal (counted in
// m.Panics), fails this call only, and a later call builds again.
func For(g *graph.Graph, m *obs.Metrics) (l *Labels, err error) {
	defer func() {
		if v := recover(); v != nil {
			if m != nil {
				m.Panics.Inc()
			}
			l, err = nil, guard.FromPanic(v)
		}
	}()
	v, err := g.LabelSlot(func() (any, error) {
		if err := faultinject.At(faultinject.SiteLabelBuild).Fire(); err != nil {
			return nil, err
		}
		if m != nil {
			m.LabelBuilds.Inc()
		}
		if l := Build(g); l != nil {
			return l, nil
		}
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	l, _ = v.(*Labels)
	return l, nil
}

// Build factors g and returns its labels, or nil when g has fewer than two
// vertices, is disconnected, or passes the budget. It runs on one
// goroutine with vertex-id tie-breaks, so the labels are a pure function of
// g's CSR arrays. A symbolic pass runs first and gives up as soon as the
// budget is certain to be passed; only a graph within the budget pays for
// the numeric factorization.
func Build(g *graph.Graph) *Labels {
	n := g.N()
	if n < 2 || !g.IsConnected() {
		return nil
	}
	budget := Budget * (int64(n) + g.M())
	s := symbolic(g, budget)
	if s == nil {
		return nil
	}
	return s.numeric(g)
}

// Resistance returns r(s,t). s and t must be valid vertices. The terms are
// summed in elimination-position order, and a shared ancestor contributes
// (a−b)², whose bits do not depend on the sign of a−b, so Resistance(s,t)
// and Resistance(t,s) are bit-identical.
func (l *Labels) Resistance(s, t int) float64 {
	root := int32(len(l.pos) - 1)
	ps, pt := l.pos[s], l.pos[t]
	i, j := l.off[ps], l.off[pt]
	sum := 0.0
	for ps != pt { // the paths have not met: each term has one side
		if ps < pt {
			x := l.vals[i]
			sum += x * x
			i++
			ps = l.parent[ps]
		} else {
			x := l.vals[j]
			sum += x * x
			j++
			pt = l.parent[pt]
		}
	}
	for ; ps != root; ps = l.parent[ps] { // the shared path up to the ground
		d := l.vals[i] - l.vals[j]
		sum += d * d
		i++
		j++
	}
	return sum
}

// Len returns the length of u's label: the number of vertices on its
// elimination-tree path below the ground (0 for the ground itself). A
// query of (s,t) reads at most Len(s)+Len(t) entries.
func (l *Labels) Len(u int) int {
	p := l.pos[u]
	if int(p) == len(l.pos)-1 {
		return 0
	}
	return l.off[p+1] - l.off[p]
}

// symbolicFactor is the structure of the elimination: its order and, per
// eliminated vertex, the clique it was eliminated with, as ascending
// positions (column p of L is nonzero exactly on rows cols[ptr[p]:ptr[p+1]]).
type symbolicFactor struct {
	order  []int32 // position → vertex; the ground is order[n−1]
	pos    []int32 // vertex → position
	ptr    []int   // position → start of its clique in cols (len n)
	cols   []int32
	parent []int32 // position → parent position: the first of its clique
	depth  []int   // position → label length
	floats int     // Σ depth
	work   int64   // Σ k² over the eliminations
	scan   int64   // adjacency entries read (the scan)
}

// symbolic runs the minimum-degree elimination on the graph structure
// alone: repeatedly remove a vertex of least current degree (ties to the
// least id) and join its neighbours into a clique. It returns nil once the
// elimination work Σk² passes budget, once that work plus a lower bound
// on the work still to come does, once the adjacency entries it reads
// (the scan) do, or when the label floats do. Every loop is charged to
// the work or the scan, so a failed attempt costs O(budget) memory and
// O(budget·log n) time.
//
// Joining a clique needs to know which members are already adjacent. The
// pass reads every member's list but the longest, which sees each pair
// from at least one side; on a hub graph the list left unread is usually
// the hub's. Eliminated vertices stay in the lists until a list is read,
// and deg keeps the live count, so eliminating a leaf (k = 1) reads no
// neighbour's list at all.
//
// The lower bound: every edge left in the remaining graph has one endpoint
// eliminated while the other is still present, so the r−1 eliminations
// still to come have Σk ≥ edges and, by Cauchy–Schwarz, Σk² ≥ edges²/(r−1).
// On a hub graph the remaining core densifies long before Σk² itself
// passes the budget, so the bound ends a failed attempt early.
func symbolic(g *graph.Graph, budget int64) *symbolicFactor {
	n := g.N()
	adj := make([][]int32, n) // current neighbours, and eliminated ones not yet dropped
	deg := make([]int, n)     // the number of current neighbours
	h := make(minHeap, 0, 2*n)
	for u := 0; u < n; u++ {
		adj[u] = slices.Clone(g.Neighbors(u))
		deg[u] = len(adj[u])
		h.push(degKey(deg[u], u))
	}
	gone := make([]bool, n)
	member := make([]int32, n) // member[x] = 1 + x's index in the clique being joined, or 0
	var joined []bool          // joined[i·k+j]: clique members i and j are adjacent
	s := &symbolicFactor{
		order: make([]int32, 0, n),
		ptr:   make([]int, 1, n),
	}
	var clique []int32 // cliques as vertex ids, converted to positions below
	work, scan, edges := int64(0), int64(0), g.M()
	// read drops u's eliminated neighbours from its list, charging the scan.
	read := func(u int32) bool {
		list := adj[u]
		if scan += int64(len(list)); scan > budget {
			return false
		}
		live := list[:0]
		for _, x := range list {
			if !gone[x] {
				live = append(live, x)
			}
		}
		adj[u] = live
		return true
	}
	for step := 0; step < n-1; step++ {
		v := h.popLive(deg, gone)
		k := deg[v]
		if k == 0 {
			return nil // disconnected
		}
		if work += int64(k) * int64(k); work > budget || !read(int32(v)) {
			return nil
		}
		nb := adj[v]
		gone[v] = true
		adj[v] = nil
		s.order = append(s.order, int32(v))
		clique = append(clique, nb...)
		s.ptr = append(s.ptr, len(clique))
		edges -= int64(k)
		longest := 0
		for i, u := range nb {
			member[u] = int32(i + 1)
			if len(adj[u]) > len(adj[nb[longest]]) {
				longest = i
			}
		}
		joined = slices.Grow(joined[:0], k*k)[:k*k]
		clear(joined)
		for i, u := range nb {
			if i == longest {
				continue
			}
			if !read(u) {
				return nil
			}
			for _, x := range adj[u] {
				if j := member[x] - 1; j >= 0 {
					joined[i*k+int(j)], joined[int(j)*k+i] = true, true
				}
			}
		}
		for i, u := range nb {
			member[u] = 0
			for j := i + 1; j < k; j++ {
				if !joined[i*k+j] {
					y := nb[j]
					adj[u] = append(adj[u], y)
					adj[y] = append(adj[y], u)
					deg[u]++
					deg[y]++
					edges++
				}
			}
		}
		for _, u := range nb {
			deg[u]--
			h.push(degKey(deg[u], int(u)))
		}
		if rest := int64(n - step - 2); rest > 0 &&
			float64(work)+float64(edges)*float64(edges)/float64(rest) > float64(budget) {
			return nil
		}
	}
	for u := 0; u < n; u++ {
		if !gone[u] {
			s.order = append(s.order, int32(u)) // the ground
			break
		}
	}

	s.pos = make([]int32, n)
	for p, v := range s.order {
		s.pos[v] = int32(p)
	}
	for i, v := range clique {
		clique[i] = s.pos[v]
	}
	s.cols = clique
	s.parent = make([]int32, n)
	s.depth = make([]int, n)
	s.parent[n-1] = -1
	for p := n - 2; p >= 0; p-- { // parents come later, so their depth is known
		col := s.cols[s.ptr[p]:s.ptr[p+1]]
		slices.Sort(col)
		s.parent[p] = col[0]
		s.depth[p] = s.depth[col[0]] + 1
		s.floats += s.depth[p]
	}
	if int64(s.floats) > budget {
		return nil
	}
	s.work, s.scan = work, scan
	return s
}

// numeric computes the LDLᵀ factor on the symbolic structure, then the
// labels. Every Schur complement of a Laplacian is again a Laplacian, so
// each column's entries below the diagonal are ≤ 0 and its pivot is minus
// their sum (the ground's row included): the pivots are sums of like-signed
// terms and keep their relative accuracy however widely the weights range.
// It returns nil if a pivot is not positive and finite, which happens only
// when weights overflow or underflow.
func (s *symbolicFactor) numeric(g *graph.Graph) *Labels {
	n := g.N()
	root := int32(n - 1)
	// vals[i] starts as the Laplacian entry A(cols[i], p) of column p and
	// becomes the multiplier L(cols[i], p) once column p is eliminated.
	vals := make([]float64, len(s.cols))
	for p := 0; p < n-1; p++ {
		rows := s.cols[s.ptr[p]:s.ptr[p+1]]
		g.ForEachNeighbor(int(s.order[p]), func(x int32, w float64) {
			if q := s.pos[x]; q > int32(p) {
				i, _ := slices.BinarySearch(rows, q)
				vals[s.ptr[p]+i] = -w
			}
		})
	}
	diag := make([]float64, n-1)
	for p := 0; p < n-1; p++ {
		start, end := s.ptr[p], s.ptr[p+1]
		d := 0.0
		for _, a := range vals[start:end] {
			d -= a
		}
		if !(d > 0) || math.IsInf(d, 0) {
			return nil
		}
		diag[p] = d
		for i := start; i < end; i++ {
			r := s.cols[i]
			l := vals[i] / d
			// The Schur update of column r: its rows hold every later row
			// of column p, both ascending, so one forward scan finds them.
			// The ground's column (r = root) is never eliminated, and no
			// row follows it.
			at := s.ptr[r]
			for j := i + 1; j < end; j++ {
				q := s.cols[j]
				for s.cols[at] != q {
					at++
				}
				vals[at] -= vals[j] * l
			}
			vals[i] = l
		}
	}

	// label(p) = e_p/√d_p − Σ_r L(r,p)·label(r) over p's clique: each
	// label(r) lies on a suffix of p's path, so the labels are made from
	// the ground down.
	lab := &Labels{pos: s.pos, parent: s.parent, off: make([]int, n), vals: make([]float64, s.floats)}
	for p := 1; p < n; p++ {
		lab.off[p] = lab.off[p-1] + s.depth[p-1]
	}
	for p := n - 2; p >= 0; p-- {
		dst := lab.vals[lab.off[p] : lab.off[p]+s.depth[p]]
		dst[0] = 1 / math.Sqrt(diag[p])
		for i := s.ptr[p]; i < s.ptr[p+1]; i++ {
			r := s.cols[i]
			if r == root {
				break // the grounded factor has no ground row (it sorts last)
			}
			l := vals[i]
			src := lab.vals[lab.off[r] : lab.off[r]+s.depth[r]]
			shift := s.depth[p] - s.depth[r]
			for x, y := range src {
				dst[shift+x] -= l * y
			}
		}
	}
	return lab
}

// degKey orders vertices by current degree, then by id.
func degKey(deg, u int) uint64 { return uint64(deg)<<32 | uint64(u) }

// minHeap is a binary min-heap of degKeys. Entries go stale as degrees
// change; popLive skips them.
type minHeap []uint64

func (h *minHeap) push(k uint64) {
	a := append(*h, k)
	for i := len(a) - 1; i > 0; {
		up := (i - 1) / 2
		if a[up] <= a[i] {
			break
		}
		a[up], a[i] = a[i], a[up]
		i = up
	}
	*h = a
}

func (h *minHeap) pop() uint64 {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && a[c+1] < a[c] {
			c++
		}
		if a[i] <= a[c] {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	*h = a
	return top
}

// popLive pops the least-degree vertex still present, skipping entries
// whose vertex is gone or whose degree has changed since the push (every
// change pushed a fresh entry).
func (h *minHeap) popLive(deg []int, gone []bool) int {
	for {
		k := h.pop()
		u := int(uint32(k))
		if !gone[u] && uint64(deg[u]) == k>>32 {
			return u
		}
	}
}
