package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at step %d: %d != %d", i, got, want)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams from different seeds collide %d/100 times", same)
	}
}

func TestZeroSeedNotDegenerate(t *testing.T) {
	r := New(0)
	zero := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zero++
		}
	}
	if zero > 2 {
		t.Fatalf("zero seed produces %d zero outputs in 100 draws", zero)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(9)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(11)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(13)
	const buckets = 10
	const draws = 100000
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

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(19)
	const n = 5
	const draws = 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("Perm first element %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(23)
	child := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split child stream matches parent %d/100 times", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	c1 := New(23).Split()
	c2 := New(23).Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(29)
	for _, p := range []float64{0.5, 0.1, 0.01} {
		const draws = 50000
		sum := 0.0
		for i := 0; i < draws; i++ {
			sum += float64(r.Geometric(p))
		}
		mean := sum / draws
		want := (1 - p) / p
		if math.Abs(mean-want) > 0.1*want+0.05 {
			t.Errorf("Geometric(%v) mean = %v, want ~%v", p, mean, want)
		}
	}
}

func TestGeometricEdgeCases(t *testing.T) {
	r := New(31)
	if g := r.Geometric(1); g != 0 {
		t.Fatalf("Geometric(1) = %d, want 0", g)
	}
	if g := r.Geometric(2); g != 0 {
		t.Fatalf("Geometric(2) = %d, want 0", g)
	}
	// A very small p must not overflow to a negative skip.
	for i := 0; i < 100; i++ {
		if g := r.Geometric(1e-300); g < 0 {
			t.Fatalf("Geometric(1e-300) = %d, want non-negative", g)
		}
	}
}

func TestBernoulliProbability(t *testing.T) {
	r := New(37)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", got)
	}
}

func TestMul64MatchesBig(t *testing.T) {
	// Property: mul64 agrees with the 128-bit product computed via math/bits
	// style decomposition on random inputs.
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		// Reference using four 32x32 partial products.
		a0, a1 := a&0xffffffff, a>>32
		b0, b1 := b&0xffffffff, b>>32
		p00 := a0 * b0
		p01 := a0 * b1
		p10 := a1 * b0
		p11 := a1 * b1
		mid := p01 + p00>>32
		midLo := mid & 0xffffffff
		midHi := mid >> 32
		mid2 := p10 + midLo
		wantLo := (mid2 << 32) | (p00 & 0xffffffff)
		wantHi := p11 + midHi + mid2>>32
		return hi == wantHi && lo == wantLo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64BitBalance(t *testing.T) {
	r := New(43)
	const draws = 20000
	ones := make([]int, 64)
	for i := 0; i < draws; i++ {
		v := r.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<uint(b)) != 0 {
				ones[b]++
			}
		}
	}
	for b, c := range ones {
		frac := float64(c) / draws
		if math.Abs(frac-0.5) > 0.02 {
			t.Errorf("bit %d set fraction %v, want ~0.5", b, frac)
		}
	}
}
