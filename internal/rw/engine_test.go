package rw

import (
	"math"
	"testing"
	"testing/quick"

	"cdrw/internal/gen"
	"cdrw/internal/graph"
	"cdrw/internal/rng"
)

// randomPPM samples a small planted-partition graph for equivalence checks;
// block count and densities vary with the seed so both regimes (sparse
// frontier and dense) get exercised.
func randomPPM(t testing.TB, seed uint64) *gen.PPM {
	t.Helper()
	r := rng.New(seed)
	blocks := 2 + r.Intn(3)
	blockSize := 16 + r.Intn(48)
	cfg := gen.PPMConfig{
		N: blocks * blockSize,
		R: blocks,
		P: 0.1 + 0.2*r.Float64(),
		Q: 0.01 * r.Float64(),
	}
	ppm, err := gen.NewPPM(cfg, r.Split())
	if err != nil {
		t.Fatalf("PPM(%+v): %v", cfg, err)
	}
	return ppm
}

// denseWalk evolves a point distribution with the legacy dense kernel only.
func denseWalk(t testing.TB, ppm *gen.PPM, source, steps int) Dist {
	t.Helper()
	d, err := NewPointDist(ppm.Graph.NumVertices(), source)
	if err != nil {
		t.Fatal(err)
	}
	next := make(Dist, len(d))
	for i := 0; i < steps; i++ {
		d, next = Step(ppm.Graph, d, next), d
	}
	return d
}

// TestWalkEngineMatchesDenseKernelProperty: for random PPM graphs, sources
// and lengths, the hybrid engine's distribution matches the legacy dense
// step loop to 1e-12 per entry (it is designed to be bit-identical; the
// tolerance is the contract, exactness the implementation).
func TestWalkEngineMatchesDenseKernelProperty(t *testing.T) {
	f := func(seed uint64) bool {
		ppm := randomPPM(t, seed)
		r := rng.New(seed ^ 0x9e3779b97f4a7c15)
		n := ppm.Graph.NumVertices()
		source := r.Intn(n)
		steps := 1 + r.Intn(12)

		want := denseWalk(t, ppm, source, steps)
		eng := NewWalkEngine(ppm.Graph)
		if err := eng.Reset(source); err != nil {
			t.Fatal(err)
		}
		eng.Advance(steps)
		got := eng.Dist()
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-12 {
				t.Logf("seed %d: vertex %d: engine %g dense %g", seed, v, got[v], want[v])
				return false
			}
			if got[v] != want[v] {
				t.Logf("seed %d: vertex %d not bit-identical: %g vs %g", seed, v, got[v], want[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestWalkEngineSparseOnlyMatchesDense: with the threshold pushed past n the
// engine never leaves the sparse kernel; the walk must still match the dense
// loop exactly, proving the sparse kernel alone (not just the switch point)
// is equivalent.
func TestWalkEngineSparseOnlyMatchesDense(t *testing.T) {
	ppm := randomPPM(t, 7)
	sparseForever := ppm.Graph.Volume() + 1
	for _, steps := range []int{1, 3, 8, 20} {
		want := denseWalk(t, ppm, 1, steps)
		eng := NewWalkEngine(ppm.Graph)
		eng.threshold = sparseForever
		if err := eng.Reset(1); err != nil {
			t.Fatal(err)
		}
		eng.Advance(steps)
		if eng.SupportSize() < 0 {
			t.Fatalf("steps=%d: engine left sparse mode despite threshold %d", steps, sparseForever)
		}
		got := eng.Dist()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("steps=%d vertex %d: sparse %g dense %g", steps, v, got[v], want[v])
			}
		}
		nnz := 0
		for _, p := range got {
			if p != 0 {
				nnz++
			}
		}
		if eng.SupportSize() != nnz {
			t.Fatalf("steps=%d: frontier size %d but %d non-zero entries", steps, eng.SupportSize(), nnz)
		}
	}
}

// TestWalkEngineResetReuse: a reused engine gives the same walk as a fresh
// one, in both regimes (a long walk densifies the engine before the reset).
func TestWalkEngineResetReuse(t *testing.T) {
	ppm := randomPPM(t, 11)
	n := ppm.Graph.NumVertices()
	eng := NewWalkEngine(ppm.Graph)
	for trial, source := range []int{0, n / 2, n - 1, 3} {
		steps := 2 + 5*trial
		if err := eng.Reset(source); err != nil {
			t.Fatal(err)
		}
		eng.Advance(steps)
		if eng.Steps() != steps {
			t.Fatalf("trial %d: Steps()=%d want %d", trial, eng.Steps(), steps)
		}
		want := denseWalk(t, ppm, source, steps)
		got := eng.Dist()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("trial %d vertex %d: reused engine %g fresh dense %g", trial, v, got[v], want[v])
			}
		}
	}
}

// TestWalkEngineIsolatedVertex: a walk started at an isolated vertex keeps
// its mass there in both kernels.
func TestWalkEngineIsolatedVertex(t *testing.T) {
	ppm := randomPPM(t, 3)
	// Rebuild with one extra, isolated vertex.
	g := ppm.Graph
	iso := g.NumVertices()
	b := graph.NewBuilder(iso + 1)
	g.Edges(func(u, v int) bool {
		b.AddEdge(u, v)
		return true
	})
	gg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, threshold := range []int{0, gg.Volume() + 1} {
		eng := NewWalkEngine(gg)
		eng.threshold = threshold
		if err := eng.Reset(iso); err != nil {
			t.Fatal(err)
		}
		eng.Advance(5)
		if got := eng.Dist()[iso]; got != 1 {
			t.Fatalf("threshold %d: isolated vertex holds %g, want 1", threshold, got)
		}
	}
}

// TestWalkEngineRejectsBadSource: Reset validates the source like
// NewPointDist does.
func TestWalkEngineRejectsBadSource(t *testing.T) {
	ppm := randomPPM(t, 5)
	eng := NewWalkEngine(ppm.Graph)
	if err := eng.Reset(-1); err == nil {
		t.Fatal("Reset(-1) succeeded")
	}
	if err := eng.Reset(ppm.Graph.NumVertices()); err == nil {
		t.Fatal("Reset(n) succeeded")
	}
}
