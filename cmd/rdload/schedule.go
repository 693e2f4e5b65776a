package main

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// newRand returns the generator of one named stream of a run. Every random
// choice draws from (seed, stream), so the same seed gives the same inputs
// and adding draws to one stream never shifts another.
func newRand(seed uint64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

type pair struct{ S, T int }

// randomPairs draws count pairs of distinct vertices of [0, n), neither of
// them in avoid.
func randomPairs(rng *rand.Rand, n, count int, avoid []int) []pair {
	skip := make(map[int]bool, len(avoid))
	for _, v := range avoid {
		skip[v] = true
	}
	out := make([]pair, 0, count)
	for len(out) < count {
		s, t := rng.IntN(n), rng.IntN(n)
		if s == t || skip[s] || skip[t] {
			continue
		}
		out = append(out, pair{s, t})
	}
	return out
}

// poissonArrivals returns the due times of a Poisson process of the given
// rate (per second) over [0, span).
func poissonArrivals(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	var out []time.Duration
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate
		d := time.Duration(at * float64(time.Second))
		if d >= span {
			return out
		}
		out = append(out, d)
	}
}

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) rank(rng *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, rng.Float64()), len(z.cdf)-1)
}

type opKind uint8

const (
	opPair opKind = iota
	opSingleSource
	opUpdate
)

func (k opKind) String() string {
	return [...]string{"pair", "singlesource", "update"}[k]
}

// op is one scheduled request. A pair op asks r(S,T); a single-source op
// asks r(S,·); an update adds an edge (S,T) of weight updateWeight, or with
// Remove takes back one added earlier.
type op struct {
	Due    time.Duration
	Kind   opKind
	S, T   int
	Remove bool
}

// updateWeight is the conductance every update adds or removes.
const updateWeight = 0.5

// removeAfter is how much earlier an edge's addition must be due before a
// removal may take it back, so the addition has completed by then even
// when the two run on different connections.
const removeAfter = time.Second

// traffic is an open-loop request mix over a graph with n vertices.
type traffic struct {
	rate     float64 // arrivals per second
	pool     int     // size of the seeded pair pool
	zipfS    float64 // Zipf exponent of pair popularity; 0 draws uniformly
	ssShare  float64 // share of single-source ops
	updShare float64 // share of update ops
}

// pairDraw returns a function drawing pairs from the seeded pool, by Zipf
// rank or uniformly.
func pairDraw(seed uint64, n int, tr traffic, avoid []int) func(*rand.Rand) pair {
	pool := randomPairs(newRand(seed, "pool"), n, tr.pool, avoid)
	if tr.zipfS <= 0 {
		return func(rng *rand.Rand) pair { return pool[rng.IntN(len(pool))] }
	}
	z := newZipf(len(pool), tr.zipfS)
	return func(rng *rand.Rand) pair { return pool[z.rank(rng)] }
}

// schedule lays out the timed phase: Poisson arrivals at tr.rate over span,
// each an op drawn from the mix. Updates add fresh edges, or remove one
// added at least removeAfter earlier, so base edges are never removed and
// the graph stays connected.
func schedule(seed uint64, n int, tr traffic, span time.Duration, avoid []int) []op {
	draw := pairDraw(seed, n, tr, avoid)
	rng := newRand(seed, "mix")
	due := poissonArrivals(newRand(seed, "arrivals"), tr.rate, span)
	ops := make([]op, len(due))
	var added []op // outstanding additions, in due order
	for i, d := range due {
		o := op{Due: d}
		switch u := rng.Float64(); {
		case u < tr.updShare:
			o.Kind = opUpdate
			ready := sort.Search(len(added), func(j int) bool { return added[j].Due > d-removeAfter })
			if ready > 0 && rng.IntN(2) == 0 {
				j := rng.IntN(ready)
				o.S, o.T, o.Remove = added[j].S, added[j].T, true
				added = append(added[:j], added[j+1:]...)
			} else {
				e := randomPairs(rng, n, 1, nil)[0]
				o.S, o.T = e.S, e.T
				added = append(added, o)
			}
		case u < tr.updShare+tr.ssShare:
			o.Kind = opSingleSource
			o.S = rng.IntN(n)
		default:
			p := draw(rng)
			o.S, o.T = p.S, p.T
		}
		ops[i] = o
	}
	return ops
}
