// Package randx provides a small, fast, deterministic random number
// generator used throughout the library.
//
// All randomized algorithms in this module take an explicit *randx.RNG so
// that every experiment, test, and benchmark is reproducible from a seed.
// The generator is xoshiro256** seeded through splitmix64, following the
// reference implementations by Blackman and Vigna.
package randx

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256** pseudo random number generator.
// It is not safe for concurrent use; create one per goroutine with Split.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances a 64-bit state and returns the next output.
// It is used only to derive the initial xoshiro state from a seed.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns an RNG seeded deterministically from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets r in place to the stream New(seed) starts: the walk kernels
// seed one generator per walk without allocating.
func (r *RNG) Seed(seed uint64) {
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// xoshiro must not start from the all-zero state; splitmix64 of any
	// seed cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Derive returns the stream key of child x under key: the splitmix64
// output at state key + (x+1)·golden. For a fixed key it is a bijection of
// x (an odd multiplier, then an invertible finalizer), so siblings never
// share a key, and keys derived in a chain (seed, pair, side, walk) name
// streams that are as independent as splitmix64-seeded xoshiro streams.
func Derive(key, x uint64) uint64 {
	st := key + x*0x9e3779b97f4a7c15
	return splitmix64(&st)
}

// Split derives an independent generator from r. The derived stream is a
// deterministic function of r's current state, so a parent RNG can hand out
// per-worker generators reproducibly.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// Uint64 returns the next 64 random bits. The state is updated through
// locals so that the method stays within the compiler's inlining budget:
// the walk kernels draw once per step.
func (r *RNG) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9
	s2 ^= s0
	s3 ^= s1
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("randx: Intn with non-positive n")
	}
	return int(r.boundedUint64(uint64(n)))
}

// Int32n returns a uniform int32 in [0, n). It panics if n <= 0.
func (r *RNG) Int32n(n int32) int32 {
	if n <= 0 {
		panic("randx: Int32n with non-positive n")
	}
	return int32(r.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, n), n > 0, by Lemire's
// multiply-shift method, which avoids modulo bias: the high word of the
// product x·n of a random word x, with x redrawn while the product's low
// word falls below 2⁶⁴ mod n. That threshold costs a division, so it is
// computed only in the rare case that the low word is below n. A power of
// two n takes x's low bits instead (its threshold is 0, so x stands); the
// two answers are selected without a branch, because the walk kernels
// draw with vertex degrees that make such a branch unpredictable.
func (r *RNG) boundedUint64(n uint64) uint64 {
	x := r.Uint64()
	hi, lo := bits.Mul64(x, n)
	if lo < n {
		for t := -n % n; lo < t; {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, n)
		}
	}
	if n&(n-1) == 0 {
		hi = x & (n - 1)
	}
	return hi
}

// NormFloat64 returns a standard normally distributed float64 using the
// polar Box-Muller transform (no cached second value; simplicity over the
// last factor of two).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Rademacher returns +1 or -1 with equal probability.
func (r *RNG) Rademacher() float64 {
	if r.Uint64()&1 == 0 {
		return 1
	}
	return -1
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Geometric returns a sample from the geometric distribution on {1, 2, ...}
// with success probability p (number of trials until first success).
// It panics if p is outside (0, 1].
func (r *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("randx: Geometric with p outside (0,1]")
	}
	if p == 1 {
		return 1
	}
	u := r.Float64()
	// Invert the CDF; 1-u is uniform in (0,1] avoiding log(0).
	return 1 + int(math.Floor(math.Log(1-u)/math.Log(1-p)))
}
