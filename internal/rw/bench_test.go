package rw

import (
	"math"
	"testing"

	"cdrw/internal/gen"
	"cdrw/internal/graph"
	"cdrw/internal/rng"
)

// Kernel-pair benchmarks: each production kernel against the baseline its
// speedup claim is measured from, the O(n)-per-size reference sweep
// (LargestMixingSet in reference_test.go) or the walk engine pinned to its
// dense kernel. They live beside the reference because only this package's
// tests can reach it.
//
// CI's bench job gates these against the base ref: any benchmark whose name
// contains "Sparse", "MixSweep" or "DetectStep" fails the job if its ns/step
// (or ns/sweep, ns/op) regresses by more than 20%. The n = 10⁶ benchmarks
// skip under -short; CI runs them in their own full-size invocation.

// benchWalkGraph samples a 10-block PPM with average intra-degree ~20 —
// the sparse regime (m = Θ(n log n)-ish) where the paper's local-mixing
// analysis says the early walk steps dominate.
func benchWalkGraph(b *testing.B, n int) *graph.Graph {
	b.Helper()
	blocks := 10
	bs := float64(n / blocks)
	cfg := gen.PPMConfig{N: n, R: blocks, P: 20 / bs, Q: 0.2 / bs}
	ppm, err := gen.NewPPM(cfg, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	return ppm.Graph
}

// benchMinSize mirrors core's default initial candidate size R = ⌈log₂ n⌉.
func benchMinSize(n int) int {
	r := int(math.Ceil(math.Log2(float64(n + 1))))
	if r < 1 {
		r = 1
	}
	return r
}

// benchWalkEngine measures the early steps of a point-source walk — the
// regime the hybrid engine's sparse frontier targets — and reports ns/step.
// forceDense pins the engine to the dense kernel as the baseline.
// Reset runs outside the timer: its cost is asymmetric between the kernels
// (O(support) sparse, O(n) dense) and the metric compares stepping alone.
func benchWalkEngine(b *testing.B, n, steps int, forceDense bool) {
	g := benchWalkGraph(b, n)
	eng := NewWalkEngine(g)
	if forceDense {
		eng.threshold = 0
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := eng.Reset(i % n); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		eng.Advance(steps)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
}

// BenchmarkWalkEngineSparse10k: hybrid engine, n = 10⁴, 3 early steps of a
// point distribution.
func BenchmarkWalkEngineSparse10k(b *testing.B) { benchWalkEngine(b, 10_000, 3, false) }

// BenchmarkWalkEngineDense10k: the dense-kernel baseline on the same walk.
func BenchmarkWalkEngineDense10k(b *testing.B) { benchWalkEngine(b, 10_000, 3, true) }

// BenchmarkWalkEngineSparse100k: hybrid engine, n = 10⁵.
func BenchmarkWalkEngineSparse100k(b *testing.B) { benchWalkEngine(b, 100_000, 3, false) }

// BenchmarkWalkEngineDense100k: dense baseline, n = 10⁵. The acceptance bar
// for the hybrid engine is ≥ 3× faster ns/step than this.
func BenchmarkWalkEngineDense100k(b *testing.B) { benchWalkEngine(b, 100_000, 3, true) }

// benchMixSweep measures one full candidate-size ladder sweep over a walk
// distribution after 3 early steps — the sparse regime, where the support is
// a small ball around the source. sparse=false runs the reference sweep on
// the identical distribution; both report ns/sweep.
func benchMixSweep(b *testing.B, n int, sparse bool) {
	g := benchWalkGraph(b, n)
	eng := NewWalkEngine(g)
	if err := eng.Reset(0); err != nil {
		b.Fatal(err)
	}
	eng.Advance(3)
	minSize := benchMinSize(n)
	if _, err := eng.LargestMixingSet(minSize, MixOptions{}); err != nil {
		b.Fatal(err) // also warms the lazily built degree index
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if sparse {
			_, err = eng.LargestMixingSet(minSize, MixOptions{})
		} else {
			_, err = LargestMixingSet(g, eng.Dist(), minSize)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/sweep")
}

// BenchmarkMixSweepSparse100k: the sparse O(support)-per-size sweep, n=10⁵.
func BenchmarkMixSweepSparse100k(b *testing.B) { benchMixSweep(b, 100_000, true) }

// BenchmarkMixSweepDense100k: the O(n)-per-size reference, n=10⁵.
func BenchmarkMixSweepDense100k(b *testing.B) { benchMixSweep(b, 100_000, false) }

// BenchmarkMixSweepSparse1M: the sparse sweep at n=10⁶ (skipped with
// -short; graph generation dominates setup).
func BenchmarkMixSweepSparse1M(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-vertex benchmark skipped in short mode")
	}
	benchMixSweep(b, 1_000_000, true)
}

// BenchmarkMixSweepDense1M: the reference at n=10⁶ (skipped with -short).
func BenchmarkMixSweepDense1M(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-vertex benchmark skipped in short mode")
	}
	benchMixSweep(b, 1_000_000, false)
}

// benchDetectStep measures the full detection step — walk step plus whole
// mixing-set ladder — over the first 3 lengths of a point-source walk,
// reporting ns/step. This is the paper's Algorithm 1 inner loop; the
// acceptance bar for the sparse sweep is ≥3× over the reference twin at
// n=10⁵.
func benchDetectStep(b *testing.B, n int, sparse bool) {
	g := benchWalkGraph(b, n)
	eng := NewWalkEngine(g)
	minSize := benchMinSize(n)
	if err := eng.Reset(0); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.LargestMixingSet(minSize, MixOptions{}); err != nil {
		b.Fatal(err) // warm the degree index outside the timer
	}
	const steps = 3
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := eng.Reset(i % n); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for s := 0; s < steps; s++ {
			eng.Step()
			var err error
			if sparse {
				_, err = eng.LargestMixingSet(minSize, MixOptions{})
			} else {
				_, err = LargestMixingSet(g, eng.Dist(), minSize)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
}

// BenchmarkDetectStepSparse100k: hybrid step + sparse sweep, n=10⁵.
func BenchmarkDetectStepSparse100k(b *testing.B) { benchDetectStep(b, 100_000, true) }

// BenchmarkDetectStepDense100k: hybrid step + reference sweep, n=10⁵.
func BenchmarkDetectStepDense100k(b *testing.B) { benchDetectStep(b, 100_000, false) }

// BenchmarkDetectStepSparse1M: the full sparse detection step at n=10⁶
// (skipped with -short).
func BenchmarkDetectStepSparse1M(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-vertex benchmark skipped in short mode")
	}
	benchDetectStep(b, 1_000_000, true)
}

// BenchmarkSweepKernel1M: one full candidate-size ladder sweep over a
// full-support distribution at n = 10⁶ — the dense regime. reference is the
// O(n)-per-size reference sweep (fresh scratch, per-size x-value
// recomputation); compact is the Sweeper's frontier-compacted path (exact
// support extraction into the degree-sorted index, prefix-summed degrees,
// bracket-and-count selection per size), which is bit-identical by the
// equivalence suites. CI gates compact at ≥ 1.3× faster than reference
// (.github/bench_gate.py), head-only, so the pair needs no baseline.
func BenchmarkSweepKernel1M(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-vertex benchmark skipped in short mode")
	}
	g := benchWalkGraph(b, 1_000_000)
	p := Stationary(g)
	minSize := benchMinSize(g.NumVertices())

	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := LargestMixingSet(g, p, minSize); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/sweep")
	})
	b.Run("compact", func(b *testing.B) {
		sw := NewSweeper(g)
		if _, err := sw.LargestMixingSet(p, nil, minSize, MixOptions{}); err != nil {
			b.Fatal(err) // warm the degree index and retained scratch
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sw.LargestMixingSet(p, nil, minSize, MixOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/sweep")
	})
}
