package randx

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds coincide on %d of 1000 outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Error("consecutive splits produced identical first outputs")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(2)
	err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(3)
	const buckets, draws = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %v", b, c, want)
		}
	}
}

// TestBoundedStreamGolden pins the first 1000 Intn and Int32n outputs at a
// fixed seed, as an FNV-64a digest per bound, so a change to the bounded
// draw (the multiply, the rejection test) cannot silently move any
// estimator's random stream.
func TestBoundedStreamGolden(t *testing.T) {
	want := map[string]string{
		"Intn/3":            "22eebe22ec60923d",
		"Intn/7":            "4335527133109790",
		"Intn/16":           "84c26470ad22d8e9",
		"Intn/1000":         "9a73e78f4730fa0c",
		"Intn/2147483647":   "53e1505c563f8315",
		"Int32n/3":          "22eebe22ec60923d",
		"Int32n/7":          "4335527133109790",
		"Int32n/16":         "84c26470ad22d8e9",
		"Int32n/1000":       "9a73e78f4730fa0c",
		"Int32n/2147483647": "53e1505c563f8315",
	}
	for _, n := range []int32{3, 7, 16, 1000, math.MaxInt32} {
		for _, fn := range []string{"Intn", "Int32n"} {
			r := New(2023)
			h := fnv.New64a()
			for i := 0; i < 1000; i++ {
				var v int64
				if fn == "Intn" {
					v = int64(r.Intn(int(n)))
				} else {
					v = int64(r.Int32n(n))
				}
				fmt.Fprintf(h, "%d,", v)
			}
			key := fmt.Sprintf("%s/%d", fn, n)
			if got := fmt.Sprintf("%016x", h.Sum64()); got != want[key] {
				t.Errorf("%s: stream digest %s, want %s", key, got, want[key])
			}
		}
	}
}

// lemire is the textbook bounded draw that Intn must reproduce: Lemire's
// multiply-shift rejection loop, with the power-of-two shortcut taken as a
// branch before the first draw.
func lemire(r *RNG, n uint64) uint64 {
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	for {
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo >= n || lo >= -n%n {
			return hi
		}
	}
}

// invertMul returns the inverse of the odd c modulo 2⁶⁴ (Newton's method).
func invertMul(c uint64) uint64 {
	inv := c
	for i := 0; i < 6; i++ {
		inv *= 2 - c*inv
	}
	return inv
}

// streamStartingWith returns a generator whose next word is x: the
// xoshiro256** output depends on the second state word alone.
func streamStartingWith(t *testing.T, x, seed uint64) *RNG {
	t.Helper()
	r := New(seed)
	r.s[1] = bits.RotateLeft64(x*invertMul(9), -7) * invertMul(5)
	if probe := *r; probe.Uint64() != x {
		t.Fatalf("crafted stream starts with %#x, want %#x", probe.Uint64(), x)
	}
	return r
}

// TestIntnMatchesLemire feeds Intn crafted first words for every n in
// 1…4096: words whose low product word falls below n (where Intn computes
// the rejection threshold, and Lemire's test may reject), the extremes,
// and random words. Intn must return the textbook draw's value and leave
// the stream where the textbook draw leaves it.
func TestIntnMatchesLemire(t *testing.T) {
	rng := New(5)
	belowN, rejected := 0, 0
	for n := uint64(1); n <= 4096; n++ {
		words := []uint64{0, 1, n - 1, ^uint64(0), rng.Uint64(), rng.Uint64()}
		for k := uint64(1); k <= 3 && k < n; k++ {
			// ⌈k·2⁶⁴/n⌉: its product with n wraps to a low word below n.
			q, r := bits.Div64(k, 0, n)
			if r != 0 {
				q++
			}
			words = append(words, q, q+1)
		}
		for _, x := range words {
			if _, lo := bits.Mul64(x, n); lo < n {
				belowN++
				if lo < -n%n {
					rejected++
				}
			}
			ref := streamStartingWith(t, x, n)
			got := *ref
			want := lemire(ref, n)
			if v := got.Intn(int(n)); uint64(v) != want {
				t.Fatalf("n=%d word %#x: Intn drew %d, want %d", n, x, v, want)
			}
			if got.Uint64() != ref.Uint64() {
				t.Fatalf("n=%d word %#x: Intn consumed a different number of words", n, x)
			}
		}
	}
	if belowN == 0 || rejected == 0 {
		t.Fatalf("crafted words left a low word below n %d times and were rejected %d times; want both", belowN, rejected)
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(4)
	err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw % 64)
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(6)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %v, want ~1", variance)
	}
}

func TestRademacher(t *testing.T) {
	r := New(7)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Rademacher()
		if v != 1 && v != -1 {
			t.Fatalf("Rademacher returned %v", v)
		}
		sum += v
	}
	if math.Abs(sum)/n > 0.02 {
		t.Errorf("Rademacher bias %v", sum/n)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(8)
	for _, p := range []float64{0.1, 0.5, 0.9, 1} {
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			g := r.Geometric(p)
			if g < 1 {
				t.Fatalf("Geometric(%v) returned %d < 1", p, g)
			}
			sum += float64(g)
		}
		want := 1 / p
		if mean := sum / n; math.Abs(mean-want) > 0.05*want+0.01 {
			t.Errorf("Geometric(%v) mean %v, want ~%v", p, mean, want)
		}
	}
}

func TestGeometricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Geometric(0) did not panic")
		}
	}()
	New(1).Geometric(0)
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000003)
	}
}
