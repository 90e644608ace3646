package rw

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"cdrw/internal/gen"
	"cdrw/internal/graph"
	"cdrw/internal/rng"
)

// sweepPPM samples a random planted-partition graph in the sparse regime the
// sweep targets (average degree far below n).
func sweepPPM(t testing.TB, seed uint64) *gen.PPM {
	t.Helper()
	r := rng.New(seed)
	cfg := gen.PPMConfig{
		N: 96 + 32*r.Intn(5),
		R: 2 + r.Intn(3),
		P: 0.1 + 0.25*r.Float64(),
		Q: 0.01 * r.Float64(),
	}
	cfg.N -= cfg.N % cfg.R
	ppm, err := gen.NewPPM(cfg, r.Split())
	if err != nil {
		t.Fatalf("PPM(%+v): %v", cfg, err)
	}
	return ppm
}

// support extracts the exact support of p as the sweep expects it: strictly
// ascending vertex ids with p != 0.
func distSupport(p Dist) []int32 {
	var sup []int32
	for v, pv := range p {
		if pv != 0 {
			sup = append(sup, int32(v))
		}
	}
	return sup
}

// requireSweepsAgree asserts the sweeper is bit-identical to the dense
// reference on (g, p): same vertices, same float sum, same ladder work, on
// the sparse path (support given) and the compact dense path (nil support).
func requireSweepsAgree(t *testing.T, g *graph.Graph, sw *Sweeper, p Dist, minSize int, opt MixOptions) {
	t.Helper()
	want, err := LargestMixingSetOpt(g, p, minSize, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, support := range [][]int32{distSupport(p), nil} {
		path := "sparse"
		if support == nil {
			path = "compact dense"
		}
		got, err := sw.LargestMixingSet(p, support, minSize, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Vertices, want.Vertices) {
			t.Fatalf("%s sweep selected %d vertices, reference %d; sets differ (minSize=%d)",
				path, got.Size(), want.Size(), minSize)
		}
		if got.Sum != want.Sum {
			t.Fatalf("%s sum %v != reference sum %v (must be bit-identical)", path, got.Sum, want.Sum)
		}
		if got.SizesChecked != want.SizesChecked {
			t.Fatalf("%s sweep checked %d sizes, reference %d", path, got.SizesChecked, want.SizesChecked)
		}
	}
}

// servingPPM samples the serving workloads' graph family (PPM with r
// blocks, p = 2·log₂(b)/b, q = 0.1/b for block size b) at sizes where walk
// supports pass bracketMinSupport, so the bracket selection runs.
func servingPPM(t testing.TB, n, r int, seed uint64) *graph.Graph {
	t.Helper()
	b := n / r
	cfg := gen.PPMConfig{N: n, R: r, P: 2 * gen.Log2(b) / float64(b), Q: 0.1 / float64(b)}
	ppm, err := gen.NewPPM(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ppm.Graph
}

// TestSparseSweepMatchesDenseProperty: along a point-source walk on random
// PPM graphs, the sparse sweep over the engine's frontier returns exactly
// the dense sweep's mixing set at every length — the bit-identity contract
// the detection paths rely on.
func TestSparseSweepMatchesDenseProperty(t *testing.T) {
	f := func(seed uint64) bool {
		ppm := sweepPPM(t, seed)
		g := ppm.Graph
		r := rng.New(seed ^ 0x9e3779b97f4a7c15)
		s := r.Intn(g.NumVertices())
		eng := NewWalkEngine(g)
		eng.threshold = g.NumVertices() + 1 // stay sparse for the whole walk
		if err := eng.Reset(s); err != nil {
			t.Fatal(err)
		}
		sw := NewSweeper(g)
		minSize := 2 + r.Intn(6)
		for l := 0; l < 6; l++ {
			requireSweepsAgree(t, g, sw, eng.Dist(), minSize, MixOptions{})
			eng.Step()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
	// Serving-size walks, whose supports grow past bracketMinSupport within
	// three steps: the engine's own sparse→dense switch (n/8) is kept, and
	// each distribution goes through both sweeper paths.
	for _, c := range []struct{ n, r, sources int }{{2048, 4, 2}, {4096, 8, 1}} {
		g := servingPPM(t, c.n, c.r, uint64(c.n))
		eng := NewWalkEngine(g)
		sw := NewSweeper(g)
		for src := 0; src < c.sources; src++ {
			if err := eng.Reset(src * c.n / 3); err != nil {
				t.Fatal(err)
			}
			for l := 0; l < 8; l++ {
				requireSweepsAgree(t, g, sw, eng.Dist(), 12, MixOptions{})
				eng.Step()
			}
		}
	}
}

// TestSparseSweepRandomSupportProperty: the equivalence holds for arbitrary
// sparse vectors, not just walk distributions — random supports with random
// (even unnormalised) masses over random graphs with isolated vertices.
func TestSparseSweepRandomSupportProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 8 + r.Intn(120)
		b := graph.NewDedupBuilder(n)
		for i := 0; i < r.Intn(4*n); i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		p := make(Dist, n)
		for i := 0; i < 1+r.Intn(n); i++ {
			p[r.Intn(n)] = r.Float64()
		}
		sw := NewSweeper(g)
		requireSweepsAgree(t, g, sw, p, 1+r.Intn(4), MixOptions{})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	// Supports of 1k–4k vertices on graphs of 8k–16k: the bracket's rank
	// estimates lean on a large off-support stream of varied degrees.
	large := func(seed uint64) bool {
		r := rng.New(seed)
		n := 8192 + r.Intn(8192)
		b := graph.NewDedupBuilder(n)
		for i := 0; i < 4*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		p := make(Dist, n)
		for _, v := range r.Perm(n)[:1000+r.Intn(3000)] {
			p[v] = r.Float64()
		}
		requireSweepsAgree(t, g, NewSweeper(g), p, 1+r.Intn(12), MixOptions{})
		return true
	}
	if err := quick.Check(large, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}

// TestSparseSweepTieStress: a regular graph with equal masses maximises ties
// — every explicit x value collides with every other, and all implicit
// values collide too, so the (x, id) tie-break decides the whole selection.
// Includes masses engineered to make explicit values collide with the
// implicit d/µ' plateau at some ladder sizes.
func TestSparseSweepTieStress(t *testing.T) {
	r := rng.New(7)
	g, err := gen.RandomRegular(64, 6, r)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSweeper(g)
	for _, supSize := range []int{1, 3, 9, 20} {
		p := make(Dist, g.NumVertices())
		for i := 0; i < supSize; i++ {
			p[r.Intn(g.NumVertices())] = 1 / float64(supSize)
		}
		requireSweepsAgree(t, g, sw, p, 2, MixOptions{})

		// Explicit value equal to the implicit plateau: at size k, the
		// off-support value is d/µ' = 1/k on a regular graph, and a support
		// vertex with p[v] = 2/k has x = |2/k − 1/k| = 1/k exactly.
		for k := 2; k <= 8; k++ {
			q := make(Dist, g.NumVertices())
			q[5] = 2 / float64(k)
			q[11] = 1 / float64(k) // x = 0 at size k
			requireSweepsAgree(t, g, sw, q, 2, MixOptions{})
		}
	}

	// The same ties on a 6-regular graph at n = 2048, with supports past
	// bracketMinSupport: every explicit x ties with every other, and at a
	// ladder size k the masses 2/k put all of them on the plateau 1/k.
	const n = 2048
	g, err = gen.RandomRegular(n, 6, r)
	if err != nil {
		t.Fatal(err)
	}
	sw = NewSweeper(g)
	for _, supSize := range []int{400, 1200, n} {
		p := make(Dist, n)
		perm := r.Perm(n)
		for _, v := range perm[:supSize] {
			p[v] = 1 / float64(supSize)
		}
		requireSweepsAgree(t, g, sw, p, 2, MixOptions{})
		for _, k := range []int{12, 400, 1317} {
			q := make(Dist, n)
			for _, v := range perm[:supSize] {
				q[v] = 2 / float64(k)
			}
			q[perm[0]] = 1 / float64(k) // x = 0 at size k
			requireSweepsAgree(t, g, sw, q, 2, MixOptions{})
		}
	}
}

// TestSparseSweepBracketFallback: inputs whose strided sample misjudges the
// selection rank, so the bracket misses and the whole-support quickselect
// decides those sizes. On a regular graph a tiny mass has x ≈ 1/k at size k
// and mass 10 has x ≈ 10. With tiny masses on the sampled slots only, the
// sample puts every explicit value near 1/k and the cut lies above the
// bracket; with the masses swapped, it lies below. At every size, not only
// the ladder's, a bracket that holds selects exactly what the whole-support
// quickselect selects.
func TestSparseSweepBracketFallback(t *testing.T) {
	const n = 2048
	g, err := gen.RandomRegular(n, 6, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	sampled := make([]bool, n)
	for j := 0; j < bracketSample; j++ {
		sampled[(2*j+1)*n/(2*bracketSample)] = true
	}
	for _, tinyOnSample := range []bool{true, false} {
		p := make(Dist, n)
		for v := range p {
			p[v] = 10
			if sampled[v] == tinyOnSample {
				p[v] = 1e-9 * float64(1+v%7)
			}
		}
		sw := NewSweeper(g)
		requireSweepsAgree(t, g, sw, p, 2, MixOptions{})

		// The sweep above left the sweeper prepared for p's (full) support;
		// re-run single sizes and ask the bracket directly.
		support := distSupport(p)
		misses := 0
		for k := 1; k <= n; k++ {
			sw.evalSize(p, support, k)
			cut, ok := sw.selectBracket(support, k)
			if !ok {
				misses++
				continue
			}
			got := gatherBefore(sw.ents, sw.xsup, support, cut)
			for i, x := range sw.xsup {
				sw.ents[i] = sweepEntry{x: x, v: support[i]}
			}
			if want := sw.selectExplicit(sw.ents, k); got != want {
				t.Fatalf("size %d: the bracket selected %d explicit keys, quickselect %d", k, got, want)
			}
		}
		if misses == 0 {
			t.Fatalf("tiny masses on sampled slots %v: the bracket never missed, so the fallback went unchecked", tinyOnSample)
		}
	}
}

// TestSparseSweepEdgeless covers the µ' = 0 branch: with no edges the
// off-support statistic degenerates to the uniform target 1/|S|, and the
// sparse sweep must still match the dense reference bit for bit.
func TestSparseSweepEdgeless(t *testing.T) {
	for _, n := range []int{1, 2, 5, 33, 4096} {
		g, err := graph.NewBuilder(n).Build()
		if err != nil {
			t.Fatal(err)
		}
		sw := NewSweeper(g)
		// Point mass.
		p := make(Dist, n)
		p[n/2] = 1
		requireSweepsAgree(t, g, sw, p, 1, MixOptions{})
		// Spread mass over a few vertices (over a thousand at n = 4096, past
		// bracketMinSupport).
		r := rng.New(uint64(n))
		q := make(Dist, n)
		for i := 0; i < 1+n/3; i++ {
			q[r.Intn(n)] = r.Float64()
		}
		requireSweepsAgree(t, g, sw, q, 1, MixOptions{})
	}
	// Semantics spot-check: on an edgeless graph a point mass never mixes
	// (x sums stay ≥ 1−1/|S|+… above the 1/2e bound for |S| ≥ 2), except
	// the trivial |S| = 1 candidate where x_source = 0.
	g, err := graph.NewBuilder(4).Build()
	if err != nil {
		t.Fatal(err)
	}
	p := Dist{1, 0, 0, 0}
	ms, err := NewSweeper(g).LargestMixingSet(p, []int32{0}, 1, MixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ms.Found() && ms.Size() > 1 {
		t.Fatalf("point mass on an edgeless graph mixed on %d vertices", ms.Size())
	}
}

// TestSparseSweepSupportValidation: malformed supports are rejected rather
// than silently producing a wrong selection.
func TestSparseSweepSupportValidation(t *testing.T) {
	r := rng.New(3)
	g, err := gen.Gnp(16, 0.3, r)
	if err != nil {
		t.Fatal(err)
	}
	p := make(Dist, 16)
	p[3], p[7] = 0.5, 0.5
	sw := NewSweeper(g)
	if _, err := sw.LargestMixingSet(p, []int32{7, 3}, 1, MixOptions{}); err == nil {
		t.Fatal("descending support accepted")
	}
	if _, err := sw.LargestMixingSet(p, []int32{3, 3}, 1, MixOptions{}); err == nil {
		t.Fatal("duplicate support accepted")
	}
	if _, err := sw.LargestMixingSet(p, []int32{3, 99}, 1, MixOptions{}); err == nil {
		t.Fatal("out-of-range support accepted")
	}
	if _, err := sw.LargestMixingSet(make(Dist, 5), nil, 1, MixOptions{}); err == nil {
		t.Fatal("length-mismatched distribution accepted")
	}
}

// TestWalkEngineLargestMixingSetMatchesOpt: the engine-level sweep tracks
// the walk across the sparse→dense kernel switch and agrees with the
// standalone dense reference at every step on both sides of it.
func TestWalkEngineLargestMixingSetMatchesOpt(t *testing.T) {
	ppm := sweepPPM(t, 21)
	g := ppm.Graph
	eng := NewWalkEngine(g)
	eng.threshold = 16 // force an early sparse→dense switch
	if err := eng.Reset(1); err != nil {
		t.Fatal(err)
	}
	sawSparse, sawDense := false, false
	for l := 0; l < 8; l++ {
		sparse := eng.SupportSize() >= 0
		if sparse {
			sawSparse = true
		} else {
			sawDense = true
		}
		want, err := LargestMixingSetOpt(g, eng.Dist(), 4, MixOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.LargestMixingSet(4, MixOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Vertices, want.Vertices) || got.Sum != want.Sum {
			t.Fatalf("step %d (sparse=%v): engine sweep differs from reference", l, sparse)
		}
		eng.Step()
	}
	if !sawSparse || !sawDense {
		t.Fatalf("walk never crossed the kernel switch (sparse=%v dense=%v)", sawSparse, sawDense)
	}
}

// TestSmallestKSumDeterministic: the reported sum is accumulated over the
// selected ids in ascending order — a pure function of the selected set —
// regardless of quickselect's internal permutation. Magnitude-skewed values
// make any other accumulation order produce a different float.
func TestSmallestKSumDeterministic(t *testing.T) {
	x := []float64{1e16, 1, 1, 1, 1e-8, 0.25, 1e16, 3}
	sel, sum := SmallestK(x, 5)
	want := 0.0
	for _, u := range sel {
		want += x[u]
	}
	if sum != want {
		t.Fatalf("sum %v != ascending-id accumulation %v", sum, want)
	}
	if !sort.IntsAreSorted(sel) {
		t.Fatalf("selection %v not ascending", sel)
	}
	// And the same set/sum no matter how the input is permuted into the
	// selection (here: reversed duplicate values still tie-break by id).
	selAgain, sumAgain := SmallestK(x, 5)
	if !reflect.DeepEqual(sel, selAgain) || sum != sumAgain {
		t.Fatal("SmallestK is not deterministic")
	}
}

// TestSweepSortMatchesFullSort: the sparse-aware (score desc, id asc)
// ordering used by the conductance sweep equals a plain comparison sort,
// including zero scores, negative scores, and −inf (isolated vertices).
func TestSweepSortMatchesFullSort(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(200)
		score := make([]float64, n)
		for i := range score {
			switch r.Intn(5) {
			case 0:
				score[i] = 0
			case 1:
				score[i] = math.Inf(-1)
			case 2:
				score[i] = -r.Float64()
			default:
				score[i] = r.Float64() * float64(1+r.Intn(3))
			}
		}
		// Candidate lists in both id order (the SweepCut case) and shuffled
		// order (the SweepCutWithin case).
		for trial := 0; trial < 2; trial++ {
			order := make([]int, n)
			for i := range order {
				order[i] = i
			}
			if trial == 1 {
				r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			want := append([]int(nil), order...)
			sort.Slice(want, func(i, j int) bool {
				a, b := want[i], want[j]
				if score[a] != score[b] {
					return score[a] > score[b]
				}
				return a < b
			})
			sweepSort(score, order)
			if !reflect.DeepEqual(order, want) {
				t.Logf("seed %d trial %d: order differs", seed, trial)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestDegreeIndexInvariants: the index is a permutation sorted by (degree,
// id) with exact prefix sums and a consistent inverse.
func TestDegreeIndexInvariants(t *testing.T) {
	ppm := sweepPPM(t, 11)
	g := ppm.Graph
	idx := NewDegreeIndex(g)
	n := g.NumVertices()
	seen := make([]bool, n)
	var sum int64
	for i, v := range idx.order {
		if seen[v] {
			t.Fatalf("vertex %d appears twice", v)
		}
		seen[v] = true
		if int(idx.pos[v]) != i {
			t.Fatalf("pos[%d]=%d, want %d", v, idx.pos[v], i)
		}
		if int(idx.degs[i]) != g.Degree(int(v)) {
			t.Fatalf("degs[%d]=%d, want %d", i, idx.degs[i], g.Degree(int(v)))
		}
		if i > 0 {
			dPrev, d := idx.degs[i-1], idx.degs[i]
			if d < dPrev || (d == dPrev && idx.order[i] < idx.order[i-1]) {
				t.Fatalf("order not sorted by (degree, id) at %d", i)
			}
		}
		if idx.prefix[i] != sum {
			t.Fatalf("prefix[%d]=%d, want %d", i, idx.prefix[i], sum)
		}
		sum += int64(idx.degs[i])
	}
	if idx.prefix[n] != int64(g.Volume()) {
		t.Fatalf("prefix[n]=%d, want volume %d", idx.prefix[n], g.Volume())
	}
}

// TestDenseSweepMatchesReferenceProperty: the compact dense path (nil
// support: exact support extraction + bitmap-ordered index walk) stays
// bit-identical to the package-level dense reference across random graphs,
// random dense-ish distributions and repeated sweeps on one reused sweeper.
func TestDenseSweepMatchesReferenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		ppm := sweepPPM(t, seed)
		g := ppm.Graph
		n := g.NumVertices()
		sw := NewSweeper(g)
		for round := 0; round < 3; round++ {
			p := make(Dist, n)
			// Mostly-full support with holes: the regime the dense sweep
			// serves, including exact zeros it must skip.
			for v := range p {
				if r.Float64() < 0.9 {
					p[v] = r.Float64()
				}
			}
			minSize := 1 + r.Intn(6)
			want, err := LargestMixingSetOpt(g, p, minSize, MixOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := sw.LargestMixingSet(p, nil, minSize, MixOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Sum != want.Sum || got.SizesChecked != want.SizesChecked ||
				len(got.Vertices) != len(want.Vertices) {
				t.Fatalf("dense sweep diverged: got {sum %v, checked %d, |S| %d}, want {sum %v, checked %d, |S| %d}",
					got.Sum, got.SizesChecked, len(got.Vertices),
					want.Sum, want.SizesChecked, len(want.Vertices))
			}
			for i, v := range want.Vertices {
				if got.Vertices[i] != v {
					t.Fatalf("dense sweep vertex %d: got %d want %d", i, got.Vertices[i], v)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
