package congest

import (
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
// single stream in L2-sized output tiles. Both kernels run the
// single-worker path so the comparison isolates the memory hierarchy, not
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
	nw := soloNetwork(g, 1)
	degInv := nw.degInvTable()
	p := make(rw.Dist, n)
	next := make(rw.Dist, n)
	for v := range p {
		p[v] = 1 / float64(n)
	}

	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nw.floodStepReference(p, next, degInv)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/step")
	})
	b.Run("blocked", func(b *testing.B) {
		walks := []*batchWalk{{p: p, next: next}}
		counts := make([]int32, n)
		batchFlood(nw, walks, degInv, counts) // warm the retained share scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batchFlood(nw, walks, degInv, counts)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/step")
	})
}
