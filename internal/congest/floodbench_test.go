package congest

import (
	"runtime"
	"testing"

	"cdrw/internal/gen"
	"cdrw/internal/rng"
	"cdrw/internal/rw"
)

// BenchmarkFloodKernel1M: one probability-flooding round over a 10⁶-vertex
// Gnp graph with every vertex active — the dense flood regime of Algorithm 1
// lines 9–11. reference chases two random-access streams (p and degInv)
// through the CSR neighbour lists; blocked is batchFlood with one walk,
// which freezes each node's outgoing share once and gathers through a
// single stream in L2-sized output tiles. Each sub-benchmark pins
// GOMAXPROCS to 1 for its duration (the testing package resets it to the
// -cpu value before every sub-benchmark), so both kernels run the
// single-worker path and the comparison isolates the memory hierarchy, not
// parallelism; CI gates blocked >= 1.3x reference (head-only,
// .github/bench_gate.py). Skipped with -short.
func BenchmarkFloodKernel1M(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-vertex benchmark skipped in short mode")
	}
	const n = 1_000_000
	g, err := gen.Gnp(n, 16/float64(n), rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	nw := soloNetwork(g)
	degInv := nw.degInvTable()
	p := make(rw.Dist, n)
	next := make(rw.Dist, n)
	for v := range p {
		p[v] = 1 / float64(n)
	}

	b.Run("reference", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nw.floodStepReference(p, next, degInv)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/step")
	})
	b.Run("blocked", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		walks := []*batchWalk{{p: p, next: next}}
		counts := make([]int32, n)
		batchFlood(nw, walks, counts) // warm the retained share scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batchFlood(nw, walks, counts)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/step")
	})
}

// BenchmarkLadderSelect600: the whole candidate-size ladder of Algorithm 1
// lines 12–17 (evalLadder: one selection per size) on every recorded walk
// step of 8 fixed seeds, over the PPM n = 600, r = 3, p = 0.05, q = 0.002
// graph (graph seed 1). Each seed's steps are the walk lengths its
// DetectCommunity run takes under the paper's parameters (testConfig); the
// BFS tree is unbounded, as the Detector builds it. One op evaluates the
// ladder at every recorded step; ns/size divides the time by the sizes
// evaluated. GOMAXPROCS is pinned to 1, so the ladder runs on the caller
// alone and the number isolates the selection kernel from the helper
// goroutines' scheduling.
func BenchmarkLadderSelect600(b *testing.B) {
	ppm, err := gen.NewPPM(gen.PPMConfig{N: 600, R: 3, P: 0.05, Q: 0.002}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	g := ppm.Graph
	n := g.NumVertices()
	cfg := testConfig(n)
	ladder := rw.SizeLadderWithGrowth(cfg.MinCommunitySize, n, cfg.GrowthFactor)
	type walkStep struct {
		covered []int32
		p       rw.Dist
	}
	var steps []walkStep
	for _, s := range []int{3, 77, 151, 225, 299, 373, 447, 521} {
		_, st, err := DetectCommunity(NewNetwork(g), s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		flood := soloNetwork(g)
		tree, err := flood.buildTree(s, cfg.TreeDepthLimit)
		if err != nil {
			b.Fatal(err)
		}
		covered := tree.CoveredVertices()
		p, next := make(rw.Dist, n), make(rw.Dist, n)
		p[s] = 1
		for l := 1; l <= st.WalkLength; l++ {
			p, next = floodOnce(flood, p, next)
			steps = append(steps, walkStep{covered, append(rw.Dist(nil), p...)})
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	nw := soloNetwork(g)
	threshold, _ := cfg.mixResolved()
	for _, st := range steps { // warm the retained selection scratch
		nw.evalLadder(st.p, st.covered, ladder, threshold)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range steps {
			nw.evalLadder(st.p, st.covered, ladder, threshold)
		}
	}
	sizes := float64(b.N) * float64(len(steps)) * float64(len(ladder))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/sizes, "ns/size")
	b.ReportMetric(float64(len(steps)), "steps/op")
}
