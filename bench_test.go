// Benchmark harness: one testing.B target per figure and complexity claim
// of the paper (see DESIGN.md's per-experiment index), plus micro-benchmarks
// of the hot substrate paths. Benchmarks run the Quick experiment scale so
// `go test -bench=.` completes on a laptop; `cmd/experiments` regenerates
// the full-size figures.
package cdrw_test

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"cdrw"
	"cdrw/internal/experiments"
)

// benchConfig returns the per-iteration experiment configuration. Seeds are
// varied with i so iterations do not share cached state.
func benchConfig(i int) experiments.Config {
	return experiments.Config{Trials: 1, Seed: uint64(i + 1), Quick: true}
}

// BenchmarkFig1PPMGeneration regenerates the Figure 1 graph (PPM n=1000,
// r=5, p=1/20, q=1/1000) and renders it to DOT.
func BenchmarkFig1PPMGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig1DOT(io.Discard, true, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2GnpAccuracy regenerates Figure 2: CDRW accuracy on Gnp
// graphs across sizes and sparsity levels.
func BenchmarkFig2GnpAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(benchConfig(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3PPMTwoCommunities regenerates Figure 3: the (p,q) sweep on
// two-block PPM graphs.
func BenchmarkFig3PPMTwoCommunities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(benchConfig(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4aVaryCommunities regenerates Figure 4a: accuracy as the
// number of communities grows with fixed community size.
func BenchmarkFig4aVaryCommunities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4a(benchConfig(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4bFixedGraph regenerates Figure 4b: accuracy as the number of
// communities grows with fixed total size.
func BenchmarkFig4bFixedGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4b(benchConfig(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCongestRounds regenerates the Theorem 5 validation: CONGEST
// round/message complexity of one community detection.
func BenchmarkCongestRounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CongestRounds(benchConfig(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMachineScaling regenerates the §III-B validation: k-machine
// rounds as the number of machines grows.
func BenchmarkKMachineScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.KMachineScaling(benchConfig(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineLPA regenerates the §II comparison: CDRW vs Label
// Propagation vs averaging dynamics.
func BenchmarkBaselineLPA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Baselines(benchConfig(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalMixingGap regenerates the local-vs-global mixing time
// comparison (the paper's enabling observation).
func BenchmarkLocalMixingGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LocalMixing(benchConfig(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md §5 design decisions) ---

// BenchmarkAblationThreshold regenerates the mixing-threshold ablation.
func BenchmarkAblationThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationThreshold(benchConfig(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGrowth regenerates the ladder-growth ablation.
func BenchmarkAblationGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationGrowth(benchConfig(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDelta regenerates the stop-slack ablation.
func BenchmarkAblationDelta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationDelta(benchConfig(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPatience regenerates the stop-patience ablation.
func BenchmarkAblationPatience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPatience(benchConfig(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the substrate hot paths ---

func benchPPM(b *testing.B, blockSize int) *cdrw.PPM {
	b.Helper()
	s := float64(blockSize)
	cfg := cdrw.PPMConfig{N: 2 * blockSize, R: 2, P: 0.02, Q: 0.1 / s}
	ppm, err := cdrw.NewPPM(cfg, cdrw.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	return ppm
}

// BenchmarkPPMGeneration measures the geometric-skip sampler on a sparse
// 8192-vertex planted partition graph.
func BenchmarkPPMGeneration(b *testing.B) {
	cfg := cdrw.PPMConfig{N: 8192, R: 8, P: 0.01, Q: 0.0001}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cdrw.NewPPM(cfg, cdrw.NewRNG(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWalkStep measures one probability-flooding step (the per-round
// cost of Algorithm 1 lines 9–11).
func BenchmarkWalkStep(b *testing.B) {
	ppm := benchPPM(b, 2048)
	d, err := cdrw.Walk(ppm.Graph, 0, 3)
	if err != nil {
		b.Fatal(err)
	}
	_ = d
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cdrw.Walk(ppm.Graph, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWalkGraph samples a 10-block PPM with average intra-degree ~20 —
// the sparse regime (m = Θ(n log n)-ish) where the paper's local-mixing
// analysis says the early walk steps dominate.
func benchWalkGraph(b *testing.B, n int) *cdrw.Graph {
	b.Helper()
	blocks := 10
	bs := float64(n / blocks)
	cfg := cdrw.PPMConfig{N: n, R: blocks, P: 20 / bs, Q: 0.2 / bs}
	ppm, err := cdrw.NewPPM(cfg, cdrw.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	return ppm.Graph
}

// benchWalkEngine measures the early steps of a point-source walk — the
// regime the hybrid engine's sparse frontier targets — and reports ns/step.
// forceDense pins the engine to the legacy dense kernel as the baseline.
// Reset runs outside the timer: its cost is asymmetric between the kernels
// (O(support) sparse, O(n) dense) and the metric compares stepping alone.
func benchWalkEngine(b *testing.B, n, steps int, forceDense bool) {
	g := benchWalkGraph(b, n)
	eng := cdrw.NewWalkEngine(g)
	if forceDense {
		eng.SetDenseThreshold(0)
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

// BenchmarkLargestMixingSet measures one full candidate-size sweep
// (Algorithm 1 lines 12–17) on a mixed distribution.
func BenchmarkLargestMixingSet(b *testing.B) {
	ppm := benchPPM(b, 2048)
	d, err := cdrw.Walk(ppm.Graph, 0, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cdrw.LargestMixingSet(ppm.Graph, d, 12); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sparse-regime sweep benchmarks ---
//
// CI's bench job gates these: any benchmark whose name contains "Sparse"
// fails the job if its ns/step (or sec/op) regresses by more than 20%
// against the base ref. The Dense twins are the O(n·ladder) reference the
// speedup claims are measured against.

// benchMinSize mirrors core's default initial candidate size R = ⌈log₂ n⌉.
func benchMinSize(n int) int {
	r := int(math.Ceil(math.Log2(float64(n + 1))))
	if r < 1 {
		r = 1
	}
	return r
}

// benchMixSweep measures one full candidate-size ladder sweep over a walk
// distribution after 3 early steps — the sparse regime, where the support is
// a small ball around the source. sparse=false runs the dense reference
// sweep on the identical distribution; both report ns/sweep.
func benchMixSweep(b *testing.B, n int, sparse bool) {
	g := benchWalkGraph(b, n)
	eng := cdrw.NewWalkEngine(g)
	if err := eng.Reset(0); err != nil {
		b.Fatal(err)
	}
	eng.Advance(3)
	minSize := benchMinSize(n)
	if _, err := eng.LargestMixingSet(minSize, cdrw.MixOptions{}); err != nil {
		b.Fatal(err) // also warms the lazily built degree index
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if sparse {
			_, err = eng.LargestMixingSet(minSize, cdrw.MixOptions{})
		} else {
			_, err = cdrw.LargestMixingSet(g, eng.Dist(), minSize)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/sweep")
}

// BenchmarkMixSweepSparse100k: the sparse O(support)-per-size sweep, n=10⁵.
func BenchmarkMixSweepSparse100k(b *testing.B) { benchMixSweep(b, 100_000, true) }

// BenchmarkMixSweepDense100k: the dense O(n)-per-size reference, n=10⁵.
func BenchmarkMixSweepDense100k(b *testing.B) { benchMixSweep(b, 100_000, false) }

// BenchmarkMixSweepSparse1M: the sparse sweep at n=10⁶ (skipped with
// -short; graph generation dominates setup).
func BenchmarkMixSweepSparse1M(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-vertex benchmark skipped in short mode")
	}
	benchMixSweep(b, 1_000_000, true)
}

// BenchmarkMixSweepDense1M: the dense reference at n=10⁶ (skipped with
// -short).
func BenchmarkMixSweepDense1M(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-vertex benchmark skipped in short mode")
	}
	benchMixSweep(b, 1_000_000, false)
}

// BenchmarkMixSweepCompact2k: one full candidate-size ladder sweep on the
// sweeper's compact dense path (nil support, the path a walk takes once its
// support passes n/8) at serving size: community-cold's graph family, PPM
// n = 2048, r = 4, p = 2·log₂(b)/b, q = 0.1/b. After 3 walk steps the
// support is about the source's block; after 6 it is about the whole graph.
// Reports ns/sweep and allocs/op (0 in steady state). The name carries
// "MixSweep", so CI's bench gate holds it to the relative bound.
func BenchmarkMixSweepCompact2k(b *testing.B) {
	const n, blocks = 2048, 4
	bs := float64(n / blocks)
	cfg := cdrw.PPMConfig{N: n, R: blocks, P: 2 * math.Log2(bs) / bs, Q: 0.1 / bs}
	ppm, err := cdrw.NewPPM(cfg, cdrw.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	g := ppm.Graph
	minSize := benchMinSize(n)
	for _, steps := range []int{3, 6} {
		b.Run("steps"+strconv.Itoa(steps), func(b *testing.B) {
			eng := cdrw.NewWalkEngine(g)
			if err := eng.Reset(0); err != nil {
				b.Fatal(err)
			}
			eng.Advance(steps)
			p := eng.Dist()
			sw := cdrw.NewMixSweeper(g)
			if _, err := sw.LargestMixingSet(p, nil, minSize, cdrw.MixOptions{}); err != nil {
				b.Fatal(err) // warm the retained scratch
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sw.LargestMixingSet(p, nil, minSize, cdrw.MixOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/sweep")
		})
	}
}

// benchDetectStep measures the full detection step — walk step plus whole
// mixing-set ladder — over the first 3 lengths of a point-source walk,
// reporting ns/step. This is the paper's Algorithm 1 inner loop; the
// acceptance bar for the sparse sweep is ≥3× over the dense twin at n=10⁵.
func benchDetectStep(b *testing.B, n int, sparse bool) {
	g := benchWalkGraph(b, n)
	eng := cdrw.NewWalkEngine(g)
	minSize := benchMinSize(n)
	if err := eng.Reset(0); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.LargestMixingSet(minSize, cdrw.MixOptions{}); err != nil {
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
				_, err = eng.LargestMixingSet(minSize, cdrw.MixOptions{})
			} else {
				_, err = cdrw.LargestMixingSet(g, eng.Dist(), minSize)
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

// BenchmarkDetectStepDense100k: hybrid step + dense reference sweep, n=10⁵.
func BenchmarkDetectStepDense100k(b *testing.B) { benchDetectStep(b, 100_000, false) }

// BenchmarkDetectStepSparse1M: the full sparse detection step at n=10⁶
// (skipped with -short).
func BenchmarkDetectStepSparse1M(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-vertex benchmark skipped in short mode")
	}
	benchDetectStep(b, 1_000_000, true)
}

// BenchmarkDetectorReuse measures repeat single-seed serving on one
// long-lived Detector — the production pattern the unified API targets: one
// graph, one Detector, a stream of community queries. The engines, degree
// index, sweeper scratch and tracker buffers are retained between calls, so
// steady state must run at 0 allocs/op (CI's bench gate enforces this). The
// workload keeps detection on the sparse kernel by construction: separated
// blocks of n/16 vertices (q = 0), far below the engine's n/8 dense switch,
// with the default δ stopping the walk a step after its block mixes.
func BenchmarkDetectorReuse(b *testing.B) {
	const n = 10_000
	const blocks = 16
	bs := float64(n / blocks)
	cfg := cdrw.PPMConfig{N: n, R: blocks, P: 20 / bs, Q: 0}
	ppm, err := cdrw.NewPPM(cfg, cdrw.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	d, err := cdrw.NewDetector(ppm.Graph)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	// Warm: grow the retained buffers to their steady-state capacity.
	for s := 0; s < n; s += n / blocks {
		if _, _, err := d.DetectCommunity(ctx, s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.DetectCommunity(ctx, (i*701)%n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectorReuseDense is BenchmarkDetectorReuse on blocks of n/8
// vertices: a walk that spreads over its block crosses the engine's n/8
// density threshold, and from then on the walk kernel and the sweep are
// dense — each step extracts the support with one O(n) scan of p before
// the ladder runs. Over the benchmark's first 200 seeds, 374 of 985 steps
// take the dense sweep. Since that path reuses the sweeper's
// index/selection buffers, the 0-allocs/op serving contract extends past
// the sparse regime, and CI's bench gate enforces it absolutely here too.
// Smaller n than the sparse twin — every dense step costs an O(n) scan.
func BenchmarkDetectorReuseDense(b *testing.B) {
	const n = 4096
	const blocks = 8
	bs := float64(n / blocks)
	cfg := cdrw.PPMConfig{N: n, R: blocks, P: 20 / bs, Q: 0}
	ppm, err := cdrw.NewPPM(cfg, cdrw.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	d, err := cdrw.NewDetector(ppm.Graph)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for s := 0; s < n; s += n / blocks {
		if _, _, err := d.DetectCommunity(ctx, s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.DetectCommunity(ctx, (i*701)%n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectorReuseTraceOff is BenchmarkDetectorReuse run under a
// cancellable (non-Background) context carrying no trace — the exact serving
// shape of an untraced request. It pins the flight recorder's disabled-path
// contract: checking the context for a trace and finding none must keep the
// warm path at 0 allocs/op (CI's bench gate enforces this absolutely, like
// the other Reuse benchmarks).
func BenchmarkDetectorReuseTraceOff(b *testing.B) {
	const n = 10_000
	const blocks = 16
	bs := float64(n / blocks)
	cfg := cdrw.PPMConfig{N: n, R: blocks, P: 20 / bs, Q: 0}
	ppm, err := cdrw.NewPPM(cfg, cdrw.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	d, err := cdrw.NewDetector(ppm.Graph)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for s := 0; s < n; s += n / blocks {
		if _, _, err := d.DetectCommunity(ctx, s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.DetectCommunity(ctx, (i*701)%n); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Concurrent serving benchmarks ---
//
// BenchmarkDetectorPoolThroughput measures whole-graph serving requests/s at
// n=2048 across the serving tiers the new subsystem adds. CI's bench gate
// enforces the acceptance bar absolutely: the warm-cache path must serve at
// least 5× the requests/s of per-request Detector construction
// (fresh ns/op ≥ 5 × warm ns/op).

// benchServeGraph samples the n=2048 serving workload (4 blocks, sparse
// regime) shared by every DetectorPoolThroughput tier.
func benchServeGraph(b *testing.B) (*cdrw.Graph, []cdrw.Option) {
	b.Helper()
	const n, blocks = 2048, 4
	bs := float64(n / blocks)
	cfg := cdrw.PPMConfig{N: n, R: blocks, P: 2 * math.Log2(bs) / bs, Q: 0.1 / bs}
	ppm, err := cdrw.NewPPM(cfg, cdrw.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	return ppm.Graph, []cdrw.Option{
		cdrw.WithDelta(cfg.ExpectedConductance()),
		cdrw.WithSeed(7),
	}
}

func reportReqPerSec(b *testing.B) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "req/s")
	}
}

// BenchmarkDetectorPoolThroughput/fresh: the baseline the pool removes —
// every request constructs its own Detector (engines, degree index, sweep
// scratch all rebuilt) and runs a full detection.
func BenchmarkDetectorPoolThroughput(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		g, opts := benchServeGraph(b)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, err := cdrw.NewDetector(g, opts...)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := d.Detect(ctx); err != nil {
				b.Fatal(err)
			}
		}
		reportReqPerSec(b)
	})

	// pooled: uncached serving on warmed pooled handles — the cold tier of
	// the registry (every request recomputes, nothing is rebuilt).
	b.Run("pooled", func(b *testing.B) {
		g, opts := benchServeGraph(b)
		pool, err := cdrw.NewDetectorPool(g, 2, opts...)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		if _, err := pool.Detect(ctx); err != nil {
			b.Fatal(err) // warm the handles' engines
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pool.Detect(ctx); err != nil {
				b.Fatal(err)
			}
		}
		reportReqPerSec(b)
	})

	// pooled-parallel: the same uncached tier under concurrent load — the
	// pool's reason to exist (GOMAXPROCS clients, bounded admission).
	b.Run("pooled-parallel", func(b *testing.B) {
		g, opts := benchServeGraph(b)
		pool, err := cdrw.NewDetectorPool(g, runtime.GOMAXPROCS(0), opts...)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		if _, err := pool.Detect(ctx); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := pool.Detect(ctx); err != nil {
					b.Error(err) // Fatal is not legal off the benchmark goroutine
					return
				}
			}
		})
		reportReqPerSec(b)
	})

	// warm: registry serving with a hot result cache — identical requests
	// answered from the per-(graph, fingerprint) cache.
	b.Run("warm", func(b *testing.B) {
		g, opts := benchServeGraph(b)
		reg := cdrw.NewGraphRegistry(2, nil)
		if err := reg.Register("g", g, opts...); err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		if _, _, _, err := reg.Detect(ctx, "g"); err != nil {
			b.Fatal(err) // populate the cache
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, _, cached, err := reg.Detect(ctx, "g")
			if err != nil {
				b.Fatal(err)
			}
			if !cached || len(res.Detections) == 0 {
				b.Fatal("warm tier missed the cache")
			}
		}
		reportReqPerSec(b)
	})

	// warm-traced: the warm cache tier with a request trace attached per
	// request — the flight recorder's enabled-path cost (trace allocation,
	// context threading, cache-phase clock reads). CI's bench gate bounds
	// the overhead against warm at 5%.
	b.Run("warm-traced", func(b *testing.B) {
		g, opts := benchServeGraph(b)
		reg := cdrw.NewGraphRegistry(2, nil)
		if err := reg.Register("g", g, opts...); err != nil {
			b.Fatal(err)
		}
		base := context.Background()
		if _, _, _, err := reg.Detect(base, "g"); err != nil {
			b.Fatal(err) // populate the cache
		}
		// The ID arrives in a header and the start time is the latency
		// measurement every request pays traced or not, so neither clock
		// read nor mint belongs to tracing's measured overhead.
		id := cdrw.NewTraceID()
		start := time.Now()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr := cdrw.NewTraceAt(id, "bench detect", start)
			ctx := cdrw.ContextWithTrace(base, tr)
			res, _, cached, err := reg.Detect(ctx, "g")
			if err != nil {
				b.Fatal(err)
			}
			if !cached || len(res.Detections) == 0 {
				b.Fatal("warm-traced tier missed the cache")
			}
			tr.Finish(0)
		}
		reportReqPerSec(b)
	})

	// warm-http: the warm tier through the daemon's handler — routing, body
	// decode, the request trace, the registry hit and the writing of the
	// line's stored detections — into a ResponseWriter that discards them,
	// so no socket or client cost enters ns/op and B/op.
	b.Run("warm-http", func(b *testing.B) {
		g, opts := benchServeGraph(b)
		reg := cdrw.NewGraphRegistry(2, nil)
		if err := reg.Register("g", g, opts...); err != nil {
			b.Fatal(err)
		}
		h := cdrw.NewServeHandler(reg, nil)
		w := &discardResponse{header: make(http.Header)}
		serve := func() {
			w.reset()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/graphs/g/detect", strings.NewReader("{}")))
			if w.status != http.StatusOK || w.written == 0 {
				b.Fatalf("warm-http: status %d, %d bytes", w.status, w.written)
			}
		}
		serve() // fill the line and encode its detections
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve()
		}
		reportReqPerSec(b)
	})
}

// discardResponse is an http.ResponseWriter that keeps the status and the
// body's size and drops the body.
type discardResponse struct {
	header  http.Header
	status  int
	written int
}

func (w *discardResponse) reset() {
	clear(w.header)
	w.status, w.written = 0, 0
}

func (w *discardResponse) Header() http.Header { return w.header }

func (w *discardResponse) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *discardResponse) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.written += len(p)
	return len(p), nil
}

// BenchmarkDetectCommunity measures the end-to-end single-seed detection on
// a two-block PPM (the paper's core operation).
func BenchmarkDetectCommunity(b *testing.B) {
	ppm := benchPPM(b, 512)
	delta := ppm.Config.ExpectedConductance()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cdrw.DetectCommunity(ppm.Graph, i%1024, cdrw.WithDelta(delta)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCongestDetectCommunity measures the distributed engine on the
// same two-block PPM at half the size (n = 512, not 1024), including full
// round/message simulation. The sample has an isolated vertex, so no BFS
// tree covers the whole graph.
func BenchmarkCongestDetectCommunity(b *testing.B) {
	ppm := benchPPM(b, 256)
	cfg := cdrw.DefaultCongestConfig(512)
	cfg.Delta = ppm.Config.ExpectedConductance()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw := cdrw.NewCongestNetwork(ppm.Graph)
		if _, _, err := cdrw.CongestDetectCommunity(nw, i%512, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Batched CONGEST + k-machine conversion benchmarks ---
//
// CI's bench job gates these like the sparse-regime set: any benchmark whose
// name contains "CongestBatch" or "KMachineConv" fails the job on a >20%
// regression against the base ref. The Seq twins are the one-seed-at-a-time
// baselines the batching claims are measured against.

// benchCongestPPM samples the batched-CONGEST workload: r well-separated
// blocks in the sparse regime (average intra-degree ~2·log₂ block).
func benchCongestPPM(b *testing.B, n, blocks int) *cdrw.PPM {
	b.Helper()
	bs := float64(n / blocks)
	cfg := cdrw.PPMConfig{N: n, R: blocks, P: 2 * math.Log2(bs) / bs, Q: 0.1 / bs}
	ppm, err := cdrw.NewPPM(cfg, cdrw.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	return ppm
}

// benchCongestWalks measures detecting one community per block — the same
// seed set on both sides — either one seed at a time (the sequential
// flooding loop) or as one DetectBatch sharing communication rounds. Rounds
// per op are reported alongside wall time; per-walk results are
// bit-identical between the two (the conformance suite enforces it), so the
// pair isolates exactly what batching buys.
func benchCongestWalks(b *testing.B, n, blocks int, batched bool) {
	ppm := benchCongestPPM(b, n, blocks)
	cfg := cdrw.DefaultCongestConfig(n)
	cfg.Delta = ppm.Config.ExpectedConductance()
	seeds := make([]int, blocks)
	for i := range seeds {
		seeds[i] = i*(n/blocks) + n/(2*blocks) // one mid-block seed per block
	}
	var rounds int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw := cdrw.NewCongestNetwork(ppm.Graph)
		if batched {
			if _, err := cdrw.CongestDetectBatch(nw, seeds, cfg); err != nil {
				b.Fatal(err)
			}
		} else {
			for _, s := range seeds {
				if _, _, err := cdrw.CongestDetectCommunity(nw, s, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
		rounds += int64(nw.Metrics().Rounds)
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}

// BenchmarkCongestBatchWalksSeq2k: 8 communities one seed at a time, n=2048.
func BenchmarkCongestBatchWalksSeq2k(b *testing.B) { benchCongestWalks(b, 2048, 8, false) }

// BenchmarkCongestBatchWalks2k: the same 8 walks in shared rounds; the
// acceptance bar is fewer rounds/op and lower wall-clock than the Seq twin.
func BenchmarkCongestBatchWalks2k(b *testing.B) { benchCongestWalks(b, 2048, 8, true) }

// BenchmarkCongestBatchWalksSeq10k: the n=10⁴ sequential baseline (skipped
// with -short; one op simulates hundreds of thousands of rounds).
func BenchmarkCongestBatchWalksSeq10k(b *testing.B) {
	if testing.Short() {
		b.Skip("10k-vertex CONGEST benchmark skipped in short mode")
	}
	benchCongestWalks(b, 10_000, 10, false)
}

// BenchmarkCongestBatchWalks10k: the n=10⁴ batched run (skipped with
// -short).
func BenchmarkCongestBatchWalks10k(b *testing.B) {
	if testing.Short() {
		b.Skip("10k-vertex CONGEST benchmark skipped in short mode")
	}
	benchCongestWalks(b, 10_000, 10, true)
}

// kmachineConvWorkload is the CONGEST execution BenchmarkKMachineConvLoads
// converts: 8 seed walks in shared rounds over an n = 1024 PPM.
func kmachineConvWorkload(b *testing.B) (*cdrw.PPM, cdrw.CongestConfig, []int) {
	const n, walks = 1024, 8
	ppm := benchCongestPPM(b, n, 8)
	cfg := cdrw.DefaultCongestConfig(n)
	cfg.Delta = ppm.Config.ExpectedConductance()
	seeds := make([]int, walks)
	for i := range seeds {
		seeds[i] = i * n / walks
	}
	return ppm, cfg, seeds
}

// BenchmarkKMachineConvLoads measures converting one batched CONGEST
// execution (8 seed walks in shared rounds) into k-machine rounds through
// the per-link aggregate load observer.
func BenchmarkKMachineConvLoads(b *testing.B) {
	const k = 8
	ppm, cfg, seeds := kmachineConvWorkload(b)
	assign, err := cdrw.RandomVertexPartition(ppm.Graph.NumVertices(), k, cdrw.NewRNG(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := cdrw.NewKMachineSimulator(assign, 8)
		if err != nil {
			b.Fatal(err)
		}
		nw := cdrw.NewCongestNetwork(ppm.Graph)
		nw.SetLoadObserver(sim.LoadObserver())
		if _, err := cdrw.CongestDetectBatch(nw, seeds, cfg); err != nil {
			b.Fatal(err)
		}
		if sim.Results().Rounds == 0 {
			b.Fatal("conversion saw no rounds")
		}
	}
}

// BenchmarkCongestBatchWalks1k runs BenchmarkKMachineConvLoads' execution —
// same graph, seeds and walks — with no load observer installed: the
// unobserved baseline that prices what observing the run adds.
func BenchmarkCongestBatchWalks1k(b *testing.B) {
	ppm, cfg, seeds := kmachineConvWorkload(b)
	var rounds int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw := cdrw.NewCongestNetwork(ppm.Graph)
		if _, err := cdrw.CongestDetectBatch(nw, seeds, cfg); err != nil {
			b.Fatal(err)
		}
		rounds += int64(nw.Metrics().Rounds)
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}

// BenchmarkBatchWalkEngineReuse pins the rw-layer serving contract behind
// the parallel engine, which retains one WalkEngine per worker and Resets it
// to every seed the worker claims: Reset-ing 4 retained engines and
// advancing each 3 steps, each followed by a sparse sweep, allocates
// nothing in steady state. CI's bench gate enforces 0 allocs/op absolutely.
func BenchmarkBatchWalkEngineReuse(b *testing.B) {
	g := benchWalkGraph(b, 10_000)
	n := g.NumVertices()
	const walks, patterns = 4, 8
	engines := make([]*cdrw.WalkEngine, walks)
	for w := range engines {
		engines[w] = cdrw.NewWalkEngine(g)
	}
	minSize := benchMinSize(n)
	serve := func(i int) {
		for w, e := range engines {
			if err := e.Reset(((i%patterns)*701 + w*2503) % n); err != nil {
				b.Fatal(err)
			}
		}
		for s := 0; s < 3; s++ {
			for _, e := range engines {
				e.Step()
				if _, err := e.LargestMixingSet(minSize, cdrw.MixOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// Warm every source pattern the timed loop will serve, so the retained
	// buffers reach their steady-state capacity.
	for i := 0; i < patterns; i++ {
		serve(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(i)
	}
}

// BenchmarkDetectorReuseParallel measures repeated whole-graph serving on
// one long-lived parallel-engine Detector: the walk engines, trackers
// and overlap-resolution scratch are retained and Reset between runs
// instead of rebuilt. (Unlike single-seed reuse this cannot be
// allocation-free — each run returns fresh Result slices and starts worker
// goroutines — so it is gated on time, not allocations.)
func BenchmarkDetectorReuseParallel(b *testing.B) {
	ppm := benchCongestPPM(b, 4096, 8)
	d, err := cdrw.NewDetector(ppm.Graph,
		cdrw.WithDelta(ppm.Config.ExpectedConductance()),
		cdrw.WithEngine(cdrw.Parallel), cdrw.WithCommunityEstimate(8))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := d.Detect(ctx); err != nil {
		b.Fatal(err) // warm the retained engine and scratch
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Detect(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLPABaseline measures one Label Propagation run on the same
// two-block PPM workload.
func BenchmarkLPABaseline(b *testing.B) {
	ppm := benchPPM(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cdrw.LPA(ppm.Graph, cdrw.LPAConfig{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Memory-hierarchy kernel benchmarks (n = 10⁶, skipped with -short) ---
//
// CI's bench job runs these in a separate non-short invocation and gates
// them head-only (no baseline needed): BenchmarkSweepKernel1M/compact must
// finish a sweep at least 1.3x faster than .../reference, and
// BenchmarkPoolWarmup/solo must allocate at least 4x the bytes/handle of
// .../shared — see .github/bench_gate.py.

// BenchmarkSweepKernel1M: one full candidate-size ladder sweep over a
// full-support distribution at n = 10⁶ — the dense regime. reference is the
// package-level dense sweep (fresh scratch, per-size x-value recomputation);
// compact is the sweeper's frontier-compacted path (exact support extraction
// into the degree-sorted index, prefix-summed degrees, bracket-and-count
// selection per size), which is bit-identical by the equivalence suites.
func BenchmarkSweepKernel1M(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-vertex benchmark skipped in short mode")
	}
	g := benchWalkGraph(b, 1_000_000)
	p := cdrw.Stationary(g)
	minSize := benchMinSize(g.NumVertices())

	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cdrw.LargestMixingSet(g, p, minSize); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/sweep")
	})
	b.Run("compact", func(b *testing.B) {
		sw := cdrw.NewMixSweeper(g)
		if _, err := sw.LargestMixingSet(p, nil, minSize, cdrw.MixOptions{}); err != nil {
			b.Fatal(err) // warm the degree index and retained scratch
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sw.LargestMixingSet(p, nil, minSize, cdrw.MixOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/sweep")
	})
}

// BenchmarkPoolWarmup: warm-up allocation cost per pooled handle at
// n = 10⁶, pool size 8. solo builds and warms 8 independent detectors, each
// with private tables (the pre-shared-index behaviour); shared builds one
// DetectorPool, whose handles share a single warmed index bundle. The
// bytes/handle metric is the total heap allocation of warm-up divided by
// the handle count.
func BenchmarkPoolWarmup(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-vertex benchmark skipped in short mode")
	}
	g := benchWalkGraph(b, 1_000_000)
	const handles = 8
	opts := []cdrw.Option{cdrw.WithSeed(7)}

	measure := func(b *testing.B, build func() error) {
		b.Helper()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := build(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*handles), "bytes/handle")
	}

	b.Run("solo", func(b *testing.B) {
		measure(b, func() error {
			for i := 0; i < handles; i++ {
				d, err := cdrw.NewDetector(g, opts...)
				if err != nil {
					return err
				}
				d.Warm()
			}
			return nil
		})
	})
	b.Run("shared", func(b *testing.B) {
		measure(b, func() error {
			_, err := cdrw.NewDetectorPool(g, handles, opts...)
			return err
		})
	})
}

// --- Streaming mutation benchmarks ---
//
// BenchmarkApplyDelta1M measures a small-delta generation swap at n = 10⁶:
// graph is the bare copy-on-write CSR merge, registry is the full serving
// swap (merge + shared-index delta rebuild + pool recreation + atomic
// install). ns/op here IS the swap latency — re-verification happens after
// the swap and no cache lines exist in this workload. Skipped with -short;
// CI runs it full-size in the 1M kernel step.
func BenchmarkApplyDelta1M(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-vertex benchmark skipped in short mode")
	}
	g := benchWalkGraph(b, 1_000_000)

	// A batch of 16 non-edges to flip on and off: even iterations add the
	// batch, odd iterations remove it, so every iteration applies the same
	// amount of work and the graph returns to its seed state.
	var batch []cdrw.Edge
	for u := 0; len(batch) < 16; u++ {
		for v := u + 2; v < u+40 && len(batch) < 16; v++ {
			if !g.HasEdge(u, v) {
				batch = append(batch, cdrw.Edge{U: u, V: v})
			}
		}
	}
	if len(batch) < 16 {
		b.Fatal("could not assemble a 16-edge delta batch")
	}

	b.Run("graph", func(b *testing.B) {
		cur := g
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if i%2 == 0 {
				cur, err = cur.ApplyDelta(batch, nil)
			} else {
				cur, err = cur.ApplyDelta(nil, batch)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("registry", func(b *testing.B) {
		reg := cdrw.NewGraphRegistry(1, nil)
		if err := reg.Register("g", g, cdrw.WithSeed(7)); err != nil {
			b.Fatal(err)
		}
		if _, _, _, err := reg.Pool("g"); err != nil {
			b.Fatal(err) // materialise the pool + shared index the swap rebuilds
		}
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if i%2 == 0 {
				_, err = reg.ApplyDelta(ctx, "g", batch, nil)
			} else {
				_, err = reg.ApplyDelta(ctx, "g", nil, batch)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIncrementalReverify: promoting a cached community across a delta
// versus recomputing it cold, at n = 10⁵. reverify replays the deterministic
// walk to its frozen length with no per-step sweeps and runs one ladder
// sweep; cold builds a Detector and runs the full detection (per-step
// sweeps throughout). CI's bench gate enforces the acceptance bar
// absolutely: cold must cost at least 10x reverify (see
// .github/bench_gate.py). Skipped with -short; CI runs it full-size in the
// 1M kernel step.
func BenchmarkIncrementalReverify(b *testing.B) {
	if testing.Short() {
		b.Skip("10⁵-vertex benchmark skipped in short mode")
	}
	g := benchWalkGraph(b, 100_000)
	ctx := context.Background()
	const seed = 3
	d, err := cdrw.NewDetector(g)
	if err != nil {
		b.Fatal(err)
	}
	community, stats, err := d.DetectCommunity(ctx, seed)
	if err != nil {
		b.Fatal(err)
	}
	if stats.FrozenAt < 1 {
		b.Fatalf("detection froze no mixing set (FrozenAt=%d)", stats.FrozenAt)
	}
	community = append([]int(nil), community...)

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dc, err := cdrw.NewDetector(g)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := dc.DetectCommunity(ctx, seed); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reverify", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ok, err := d.ReverifyCommunity(ctx, seed, community, stats.FrozenAt)
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				b.Fatal("unchanged community failed to re-verify")
			}
		}
	})
}
