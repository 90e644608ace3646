package rw

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"cdrw/internal/gen"
	"cdrw/internal/rng"
)

func TestConstantsMatchPaper(t *testing.T) {
	if math.Abs(MixingThreshold-0.18393972) > 1e-6 {
		t.Fatalf("1/2e = %v", MixingThreshold)
	}
	if math.Abs(GrowthFactor-1.04598493) > 1e-6 {
		t.Fatalf("1+1/8e = %v", GrowthFactor)
	}
}

// SizeLadder returns the paper's candidate-size ladder, growth 1+1/8e.
func SizeLadder(minSize, n int) []int {
	return SizeLadderWithGrowth(minSize, n, GrowthFactor)
}

func TestSizeLadder(t *testing.T) {
	ladder := SizeLadder(10, 100)
	if ladder[0] != 10 {
		t.Fatalf("ladder starts at %d, want 10", ladder[0])
	}
	if ladder[len(ladder)-1] != 100 {
		t.Fatalf("ladder ends at %d, want 100", ladder[len(ladder)-1])
	}
	for i := 1; i < len(ladder); i++ {
		if ladder[i] <= ladder[i-1] {
			t.Fatalf("ladder not strictly increasing: %v", ladder)
		}
		// Growth never exceeds the geometric factor by more than the +1
		// integer fallback.
		maxNext := int(math.Floor(float64(ladder[i-1])*GrowthFactor)) + 1
		if ladder[i] > maxNext && ladder[i] != 100 {
			t.Fatalf("ladder jumps too fast at %d -> %d", ladder[i-1], ladder[i])
		}
	}
}

func TestSizeLadderEdgeCases(t *testing.T) {
	if got := SizeLadder(5, 4); got != nil {
		t.Fatalf("minSize>n ladder = %v, want nil", got)
	}
	got := SizeLadder(0, 3)
	if len(got) == 0 || got[0] != 1 {
		t.Fatalf("minSize 0 ladder = %v, want start at 1", got)
	}
	got = SizeLadder(3, 3)
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("single-entry ladder = %v", got)
	}
	// Small sizes grow by +1 until the geometric factor kicks in.
	got = SizeLadder(1, 30)
	for i := 1; i < len(got); i++ {
		if got[i]-got[i-1] < 1 {
			t.Fatalf("non-increasing ladder %v", got)
		}
	}
}

func TestSizeLadderCountIsLogarithmic(t *testing.T) {
	n := 1 << 13
	ladder := SizeLadder(13, n)
	// Number of sizes should be ~ log(n/R)/log(1+1/8e) ≈ 143, certainly
	// below c·log²n.
	if len(ladder) > 250 {
		t.Fatalf("ladder has %d entries for n=%d, growth too slow", len(ladder), n)
	}
	if len(ladder) < 50 {
		t.Fatalf("ladder has only %d entries for n=%d, growth too fast", len(ladder), n)
	}
}

func TestSmallestK(t *testing.T) {
	x := []float64{0.5, 0.1, 0.3, 0.2, 0.4}
	sel, sum := SmallestK(x, 2)
	if len(sel) != 2 || sel[0] != 1 || sel[1] != 3 {
		t.Fatalf("selection = %v, want [1 3]", sel)
	}
	if math.Abs(sum-0.3) > 1e-12 {
		t.Fatalf("sum = %v, want 0.3", sum)
	}
}

func TestSmallestKTieBreaking(t *testing.T) {
	x := []float64{0.2, 0.2, 0.2, 0.1}
	sel, _ := SmallestK(x, 2)
	// Ties broken by id: after 3 (value .1) the smallest id with .2 is 0.
	if sel[0] != 0 || sel[1] != 3 {
		t.Fatalf("selection = %v, want [0 3]", sel)
	}
}

func TestSmallestKBounds(t *testing.T) {
	x := []float64{3, 1, 2}
	if sel, sum := SmallestK(x, 0); sel != nil || sum != 0 {
		t.Fatalf("k=0 gave %v, %v", sel, sum)
	}
	sel, sum := SmallestK(x, 10)
	if len(sel) != 3 || math.Abs(sum-6) > 1e-12 {
		t.Fatalf("k>n gave %v, %v", sel, sum)
	}
}

func TestSmallestKProperty(t *testing.T) {
	// Property: the sum of the selected k equals the sum of the k smallest
	// values computed by full sorting.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(50)
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(r.Intn(10)) / 10 // force ties
		}
		k := 1 + r.Intn(n)
		_, sum := SmallestK(x, k)
		sorted := append([]float64(nil), x...)
		sort.Float64s(sorted)
		want := 0.0
		for _, v := range sorted[:k] {
			want += v
		}
		return math.Abs(sum-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestXValuesUniformOnRegular(t *testing.T) {
	g := completeGraph(t, 8) // 7-regular
	pi := Stationary(g)
	x := make([]float64, 8)
	XValues(g, pi, 8, x)
	// At size n, µ' = 2m and x_u = |π(u) − π(u)| = 0.
	for u, v := range x {
		if v > 1e-12 {
			t.Fatalf("x[%d] = %v, want 0 at stationarity with size n", u, v)
		}
	}
}

func TestXValuesDistributionLength(t *testing.T) {
	g := completeGraph(t, 4)
	d := Dist{1, 0, 0, 0}
	x := make([]float64, 4)
	XValues(g, d, 2, x)
	// µ'(2) = (12/4)*2 = 6, target d(u)/µ' = 3/6 = 0.5 per vertex.
	want := []float64{0.5, 0.5, 0.5, 0.5}
	for u := range want {
		expect := math.Abs(d[u] - want[u])
		if math.Abs(x[u]-expect) > 1e-12 {
			t.Fatalf("x[%d] = %v, want %v", u, x[u], expect)
		}
	}
}

func TestLargestMixingSetAtStationarityIsWholeGraph(t *testing.T) {
	g := completeGraph(t, 32)
	pi := Stationary(g)
	ms, err := LargestMixingSet(g, pi, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ms.Found() {
		t.Fatal("no mixing set at stationarity")
	}
	if ms.Size() != 32 {
		t.Fatalf("mixing set size %d, want 32 (whole graph)", ms.Size())
	}
}

func TestLargestMixingSetPointMassFails(t *testing.T) {
	// Freshly started walk: mass 1 at the source cannot mix on any set of
	// size ≥ 4 (sum of deviations ≈ 2(1−1/k) > 1/2e).
	g := completeGraph(t, 32)
	d, err := NewPointDist(32, 0)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := LargestMixingSet(g, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Found() {
		t.Fatalf("point mass reported mixing set of size %d", ms.Size())
	}
}

func TestLargestMixingSetFindsPlantedBlock(t *testing.T) {
	// Two well-separated blocks; a walk mixed inside block 0 should have its
	// largest mixing set ≈ block 0, not the whole graph.
	cfg := gen.PPMConfig{N: 512, R: 2, P: 0.15, Q: 0.0005}
	ppm, err := gen.NewPPM(cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	g := ppm.Graph
	d, err := Walk(g, 0, 10) // enough to mix within the dense block
	if err != nil {
		t.Fatal(err)
	}
	ms, err := LargestMixingSet(g, d, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !ms.Found() {
		t.Fatal("no mixing set found after intra-block mixing")
	}
	if ms.Size() < 220 || ms.Size() > 295 {
		t.Fatalf("mixing set size %d, want ≈256 (the planted block)", ms.Size())
	}
	inBlock := 0
	for _, v := range ms.Vertices {
		if ppm.Truth[v] == 0 {
			inBlock++
		}
	}
	frac := float64(inBlock) / float64(ms.Size())
	if frac < 0.9 {
		t.Fatalf("only %v of the mixing set lies in the seed block", frac)
	}
}

func TestLargestMixingSetChecksWholeLadder(t *testing.T) {
	g := completeGraph(t, 64)
	pi := Stationary(g)
	ms, err := LargestMixingSet(g, pi, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := len(SizeLadder(4, 64))
	if ms.SizesChecked != want {
		t.Fatalf("checked %d sizes, want %d", ms.SizesChecked, want)
	}
}

func TestLargestMixingSetDistLengthMismatch(t *testing.T) {
	g := completeGraph(t, 4)
	if _, err := LargestMixingSet(g, Dist{1, 0}, 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestMixingSetVerticesSorted(t *testing.T) {
	g := completeGraph(t, 16)
	pi := Stationary(g)
	ms, err := LargestMixingSet(g, pi, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(ms.Vertices) {
		t.Fatalf("vertices not sorted: %v", ms.Vertices)
	}
}
