package cluster

import (
	"context"
	"testing"

	"cdrw/internal/core"
)

// BenchmarkClusterRound times a full single-seed detection over an
// in-process 3-shard cluster on loopback sockets and reports the wire story
// next to the time: bytes/round (measured encoded payload per flood round,
// summed over links) and wire-ratio — the measured max per-round link load
// in share words divided by the Conversion-Theorem simulator's predicted
// MaxLinkLoad for the identical placement. The ratio is the CI-gated
// validation that the socket protocol never routes more than the simulated
// per-edge messaging it replaces (bench_gate fails the run if the median
// ratio exceeds 2.0; coalescing keeps it at or below 1.0 in practice), plus
// the two codecs' framing costs: bytes per share word on the shard links
// and coordination bytes per routed advance entry on the driver path.
func BenchmarkClusterRound(b *testing.B) {
	g := clusterTestGraph(b)
	const placementSeed = 42
	tc := startCluster(b, 3, placementSeed)
	tc.register(b, "ppm", g)
	opts := []core.Option{core.WithEngine(core.EngineCongest)}
	ctx := context.Background()
	driver := tc.nodes[0]

	// Resolve once for the predicted side.
	_, _, settings, err := tc.regs[0].Resolve("ppm", opts...)
	if err != nil {
		b.Fatal(err)
	}
	assign, err := hashAssign(g.NumVertices(), 3, placementSeed)
	if err != nil {
		b.Fatal(err)
	}
	predicted, err := PredictCommunity(ctx, g, assign, 0, settings)
	if err != nil {
		b.Fatal(err)
	}
	if predicted.MaxLinkLoad == 0 {
		b.Fatal("simulator predicted zero link load")
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, handled, err := driver.DetectCommunity(ctx, "ppm", 0, opts...); err != nil || !handled {
			b.Fatalf("handled=%v err=%v", handled, err)
		}
	}
	b.StopTimer()

	var totalBytes, totalWords, maxWords int64
	for _, node := range tc.nodes {
		totalBytes += node.Metrics().TotalLinkBytes()
		totalWords += node.Metrics().TotalLinkWords()
		if w := node.Metrics().MaxLinkWords(); w > maxWords {
			maxWords = w
		}
	}
	rounds := driver.Metrics().Rounds()
	if rounds == 0 || maxWords == 0 || totalWords == 0 {
		b.Fatal("no wire traffic measured")
	}
	b.ReportMetric(float64(totalBytes)/float64(rounds), "bytes/round")
	// bytes/word is the codec's framing cost per share word; the binary
	// codec holds it near 9–10 (varint delta + 8 float bytes) where JSON
	// paid ~30. bench_gate fails the run if the median exceeds 12.
	b.ReportMetric(float64(totalBytes)/float64(totalWords), "bytes/word")
	b.ReportMetric(float64(maxWords)/float64(predicted.MaxLinkLoad), "wire-ratio")
	// coord-bytes/entry is the same framing cost on the driver↔shard
	// advance path: coordination bytes per routed walk-state entry. The
	// binary advance codec shares the share codec's layout, so bench_gate
	// holds it to the same ceiling of 12.
	coord := driver.Metrics()
	if coord.CoordWords() == 0 {
		b.Fatal("no advance entries routed")
	}
	b.ReportMetric(float64(coord.CoordBytes())/float64(coord.CoordWords()), "coord-bytes/entry")
}
