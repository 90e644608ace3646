// Cross-engine equivalence and batched-conformance tests live in an external
// test package: the core package imports congest (the unified Detector
// dispatches to it, and runs Algorithm 1's pool loop around its walks), so
// an internal congest test importing core would form a test-only import
// cycle.
package congest_test

import (
	"context"
	"reflect"
	"testing"

	"cdrw/internal/congest"
	"cdrw/internal/core"
	"cdrw/internal/gen"
	"cdrw/internal/graph"
	"cdrw/internal/metrics"
	"cdrw/internal/rng"
)

// walkConfig returns the per-walk parameters a Detector resolves opts to on
// an n-vertex graph.
func walkConfig(t *testing.T, n int, opts ...core.Option) congest.Config {
	t.Helper()
	s, err := core.Resolve(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s.CongestConfig()
}

// detectCongest runs a full Detect on g on the CONGEST engine and returns
// the result and the rounds and messages it consumed.
func detectCongest(t *testing.T, g *graph.Graph, opts ...core.Option) (*core.Result, congest.Metrics) {
	t.Helper()
	d, err := core.NewDetector(g, append([]core.Option{core.WithEngine(core.EngineCongest)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m, ran := d.CongestMetrics()
	if !ran {
		t.Fatal("detector reports no congest run")
	}
	return res, m
}

// checkSoloDetections fails unless the detections' Assigned sets partition
// g's vertices and every detection's community and stats equal a solo
// DetectCommunity of its seed under cfg.
func checkSoloDetections(t *testing.T, name string, g *graph.Graph, res *core.Result, cfg congest.Config) {
	t.Helper()
	seen := make([]bool, g.NumVertices())
	refNW := congest.NewNetwork(g)
	for i, det := range res.Detections {
		for _, v := range det.Assigned {
			if seen[v] {
				t.Fatalf("%s: vertex %d assigned twice", name, v)
			}
			seen[v] = true
		}
		want, wantStats, err := congest.DetectCommunity(refNW, det.Stats.Seed, cfg)
		if err != nil {
			t.Fatalf("%s: solo run of seed %d: %v", name, det.Stats.Seed, err)
		}
		if !reflect.DeepEqual(det.Raw, want) {
			t.Fatalf("%s: detection %d (seed %d): community %v, solo run %v",
				name, i, det.Stats.Seed, det.Raw, want)
		}
		if det.Stats != wantStats.CommunityStats {
			t.Fatalf("%s: detection %d (seed %d): stats %+v, solo run %+v",
				name, i, det.Stats.Seed, det.Stats, wantStats.CommunityStats)
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("%s: vertex %d unassigned", name, v)
		}
	}
}

// TestDetectCommunityMatchesCore: on a connected graph the distributed
// engine returns exactly the reference engine's community and stats, whole
// struct, including walks that the walk-length cap cuts off.
func TestDetectCommunityMatchesCore(t *testing.T) {
	capped := 0
	check := func(g *graph.Graph, delta float64, seed, maxLen int) {
		t.Helper()
		opts := []core.Option{core.WithDelta(delta)}
		if maxLen > 0 {
			opts = append(opts, core.WithMaxWalkLength(maxLen))
		}
		cfg := walkConfig(t, g.NumVertices(), opts...)
		want, wantStats, err := core.DetectCommunity(g, seed, opts...)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := congest.DetectCommunity(congest.NewNetwork(g), seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d cap %d: congest community %v, core %v", seed, maxLen, got, want)
		}
		if stats.CommunityStats != wantStats {
			t.Fatalf("seed %d cap %d: congest stats %+v, core %+v", seed, maxLen, stats.CommunityStats, wantStats)
		}
		if stats.Metrics.Rounds <= 0 || stats.Metrics.Messages <= 0 {
			t.Fatalf("seed %d cap %d: no cost recorded: %+v", seed, maxLen, stats.Metrics)
		}
		if !wantStats.Stopped && wantStats.FrozenAt > 0 {
			capped++
		}
	}

	cfgGen := gen.PPMConfig{N: 512, R: 2, P: 2 * gen.Log2(256) / 256, Q: 0.1 / 256}
	ppm, err := gen.NewPPM(cfgGen, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if !ppm.Graph.IsConnected() {
		t.Skip("sample disconnected; equivalence only defined on connected graphs")
	}
	for _, seed := range []int{0, 77, 300, 511} {
		check(ppm.Graph, cfgGen.ExpectedConductance(), seed, 0)
	}

	// The serving workloads' graph at n = 2048, where walk supports pass
	// the reference sweep's bracket-selection cutoff: the CONGEST bisection
	// is an independent selection of the same cuts.
	cfgGen = gen.PPMConfig{N: 2048, R: 4, P: 2 * gen.Log2(512) / 512, Q: 0.1 / 512}
	ppm, err = gen.NewPPM(cfgGen, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !ppm.Graph.IsConnected() {
		t.Skip("sample disconnected; equivalence only defined on connected graphs")
	}
	for _, seed := range []int{5, 1000, 2047} {
		check(ppm.Graph, cfgGen.ExpectedConductance(), seed, 0)
	}

	// Walk-length caps from 2 steps to past where the stop rule fires, on
	// TestDetectMatchesCore's graph. A capped walk's community is its last
	// mixing set plus the seed, and FinalSetSize counts the seed too.
	cfgGen = gen.PPMConfig{N: 256, R: 2, P: 2 * gen.Log2(128) / 128, Q: 0.1 / 128}
	ppm, err = gen.NewPPM(cfgGen, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if !ppm.Graph.IsConnected() {
		t.Skip("sample disconnected; equivalence only defined on connected graphs")
	}
	for _, maxLen := range []int{2, 3, 4, 6, 8, 12, 16, 24, 32, 40} {
		for _, seed := range []int{0, 31, 64, 100, 128, 170, 211, 255} {
			check(ppm.Graph, cfgGen.ExpectedConductance(), seed, maxLen)
		}
	}
	if capped == 0 {
		t.Fatal("no walk ended at the length cap with a mixing set; the cap path went untested")
	}
}

// TestDetectMatchesCore: on a connected graph the CONGEST engine's full
// Detect emits the reference engine's detections, one by one.
func TestDetectMatchesCore(t *testing.T) {
	cfgGen := gen.PPMConfig{N: 256, R: 2, P: 2 * gen.Log2(128) / 128, Q: 0.1 / 128}
	ppm, err := gen.NewPPM(cfgGen, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if !ppm.Graph.IsConnected() {
		t.Skip("sample disconnected")
	}
	delta := cfgGen.ExpectedConductance()
	want, err := core.Detect(ppm.Graph, core.WithDelta(delta), core.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	got, m := detectCongest(t, ppm.Graph, core.WithDelta(delta), core.WithSeed(5))
	if len(got.Detections) != len(want.Detections) {
		t.Fatalf("congest made %d detections, core %d", len(got.Detections), len(want.Detections))
	}
	for i := range got.Detections {
		a, b := got.Detections[i].Raw, want.Detections[i].Raw
		if len(a) != len(b) {
			t.Fatalf("detection %d sizes: %d vs %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("detection %d differs at %d", i, j)
			}
		}
	}
	if m.Rounds <= 0 {
		t.Fatal("no rounds recorded")
	}
}

// conformanceGraphs samples the batched-conformance property instances: SBM
// graphs (unequal blocks, non-uniform density) and Gnp graphs across seeds.
func conformanceGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	for i, seed := range []uint64{3, 41} {
		in := 2 * gen.Log2(96) / 96
		sbm, err := gen.NewSBM(gen.SBMConfig{
			BlockSizes: []int{96, 128, 160},
			Probs: [][]float64{
				{in, 0.002, 0.001},
				{0.002, in, 0.002},
				{0.001, 0.002, in},
			},
		}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		out[[2]string{"sbm-a", "sbm-b"}[i]] = sbm.Graph
		gnp, err := gen.Gnp(256, 2*gen.Log2(256)/256, rng.New(seed+11))
		if err != nil {
			t.Fatal(err)
		}
		out[[2]string{"gnp-a", "gnp-b"}[i]] = gnp
	}
	return out
}

// TestDetectBatchMatchesSequential is the batched conformance property: on
// SBM and Gnp instances, every walk of a 4-lane DetectBatch run must be
// byte-identical to DetectCommunity of the same seed, a 1-lane batch —
// community, stop statistics, and the walk's own round/message cost — so
// lanes stay independent, while the batch's shared rounds stay strictly
// below the sequential sum and the per-walk message totals sum exactly to
// the sequential total.
func TestDetectBatchMatchesSequential(t *testing.T) {
	for name, g := range conformanceGraphs(t) {
		n := g.NumVertices()
		cfg := walkConfig(t, n, core.WithDelta(0.05))
		seeds := []int{0, n / 3, n / 2, n - 1}

		seqNW := congest.NewNetwork(g)
		type seqRun struct {
			community []int
			stats     congest.CommunityStats
		}
		var seq []seqRun
		for _, s := range seeds {
			community, stats, err := congest.DetectCommunity(seqNW, s, cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, s, err)
			}
			seq = append(seq, seqRun{community: community, stats: stats})
		}
		seqTotal := seqNW.Metrics()

		batchNW := congest.NewNetwork(g)
		dets, err := congest.DetectBatch(batchNW, seeds, cfg)
		if err != nil {
			t.Fatalf("%s: batch: %v", name, err)
		}
		if len(dets) != len(seeds) {
			t.Fatalf("%s: %d detections for %d seeds", name, len(dets), len(seeds))
		}
		var msgSum int64
		for i, det := range dets {
			if !reflect.DeepEqual(det.Community, seq[i].community) {
				t.Fatalf("%s seed %d: batched community %v != sequential %v",
					name, seeds[i], det.Community, seq[i].community)
			}
			if !reflect.DeepEqual(det.Stats, seq[i].stats) {
				t.Fatalf("%s seed %d: batched stats %+v != sequential %+v",
					name, seeds[i], det.Stats, seq[i].stats)
			}
			msgSum += det.Stats.Metrics.Messages
		}
		if msgSum != seqTotal.Messages {
			t.Fatalf("%s: per-walk message totals sum to %d, sequential total %d",
				name, msgSum, seqTotal.Messages)
		}
		got := batchNW.Metrics()
		if got.Messages != seqTotal.Messages {
			t.Fatalf("%s: batched network charged %d messages, sequential %d",
				name, got.Messages, seqTotal.Messages)
		}
		if got.Rounds >= seqTotal.Rounds {
			t.Fatalf("%s: batched rounds %d not below sequential %d",
				name, got.Rounds, seqTotal.Rounds)
		}
	}
}

// TestDetectBatchedPoolConformance: the Detector's pool loop with
// WithCongestBatch(3) emits, for every seed it draws, the community a solo
// DetectCommunity of that seed computes (bit-identical, stats included), its
// Assigned sets still partition the vertex set, and the run is
// deterministic in WithSeed. The pool schedule itself legitimately differs
// from the sequential loop — a super-step removes up to 3 communities at
// once — which is exactly where the round win comes from.
func TestDetectBatchedPoolConformance(t *testing.T) {
	for name, g := range conformanceGraphs(t) {
		opts := []core.Option{core.WithDelta(0.05), core.WithSeed(9), core.WithCongestBatch(3)}
		got, gotM := detectCongest(t, g, opts...)
		checkSoloDetections(t, name, g, got, walkConfig(t, g.NumVertices(), opts...))
		again, againM := detectCongest(t, g, opts...)
		if !reflect.DeepEqual(got, again) || gotM != againM {
			t.Fatalf("%s: batched pool not deterministic", name)
		}
	}
}

// TestDetectBatchedPoolFewerRounds pins the round win on a well-separated
// instance: with clear communities and spread-out speculation, the batched
// pool must finish in strictly fewer shared rounds than the sequential loop.
func TestDetectBatchedPoolFewerRounds(t *testing.T) {
	cfgGen := gen.PPMConfig{N: 512, R: 4, P: 2 * gen.Log2(128) / 128, Q: 0.05 / 128}
	ppm, err := gen.NewPPM(cfgGen, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	delta := core.WithDelta(cfgGen.ExpectedConductance())
	_, seq := detectCongest(t, ppm.Graph, delta)
	_, bat := detectCongest(t, ppm.Graph, delta, core.WithCongestBatch(4))
	if bat.Rounds >= seq.Rounds {
		t.Fatalf("batched pool took %d rounds, sequential %d — no round win",
			bat.Rounds, seq.Rounds)
	}
}

// TestDetectorCongestBatchOption: the unified Detector surface drives the
// batched pool (WithCongestBatch): the run still partitions the graph into
// sensible communities and consumes fewer simulated rounds than the
// sequential engine run on the same instance.
func TestDetectorCongestBatchOption(t *testing.T) {
	cfgGen := gen.PPMConfig{N: 512, R: 4, P: 2 * gen.Log2(128) / 128, Q: 0.1 / 128}
	ppm, err := gen.NewPPM(cfgGen, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	delta := core.WithDelta(cfgGen.ExpectedConductance())
	_, seq := detectCongest(t, ppm.Graph, delta)
	batched, bat := detectCongest(t, ppm.Graph, delta, core.WithCongestBatch(4))
	seen := make([]bool, 512)
	for _, det := range batched.Detections {
		for _, v := range det.Assigned {
			if seen[v] {
				t.Fatalf("vertex %d assigned twice", v)
			}
			seen[v] = true
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("vertex %d unassigned", v)
		}
	}
	if bat.Rounds >= seq.Rounds {
		t.Fatalf("WithCongestBatch(4) took %d rounds, sequential %d", bat.Rounds, seq.Rounds)
	}
}

// cliqueRow builds k disjoint cliques of c vertices each (clique i holds
// vertices [i·c, (i+1)·c)) — the straggler-tail fixture: a pool that is
// small in total but splits into many components.
func cliqueRow(t *testing.T, k, c int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(k * c)
	for blk := 0; blk < k; blk++ {
		base := blk * c
		for u := 0; u < c; u++ {
			for v := u + 1; v < c; v++ {
				b.AddEdge(base+u, base+v)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBatchedPoolComponentTail: when the whole pool sits below the
// batch·R guard but splits into disconnected components, the tail batches
// one seed per component instead of going sequential — every detection
// still bit-identical to a solo run of its seed, the partition complete,
// and the global round count strictly below the sequential loop's.
func TestBatchedPoolComponentTail(t *testing.T) {
	const k, c = 8, 8
	g := cliqueRow(t, k, c)
	delta := core.WithDelta(0.05)
	_, seq := detectCongest(t, g, delta)

	// Batch far above the pool size: every super-step is a tail super-step.
	opts := []core.Option{delta, core.WithCongestBatch(32)}
	bat, batM := detectCongest(t, g, opts...)
	if batM.Rounds >= seq.Rounds {
		t.Fatalf("component tail took %d rounds, sequential %d — no round win",
			batM.Rounds, seq.Rounds)
	}
	checkSoloDetections(t, "clique row", g, bat, walkConfig(t, k*c, opts...))

	again, againM := detectCongest(t, g, opts...)
	if !reflect.DeepEqual(bat, again) || batM != againM {
		t.Fatal("component-tail pool loop not deterministic")
	}
}

// TestDetectAccuracy: the CONGEST engine's full Detect recovers the planted
// blocks of a sparse two-block PPM.
func TestDetectAccuracy(t *testing.T) {
	cfgGen := gen.PPMConfig{N: 256, R: 2, P: 2 * gen.Log2(128) / 128, Q: 0.1 / 128}
	ppm, err := gen.NewPPM(cfgGen, rng.New(29))
	if err != nil {
		t.Fatal(err)
	}
	res, _ := detectCongest(t, ppm.Graph, core.WithDelta(cfgGen.ExpectedConductance()))
	truth := ppm.TruthCommunities()
	var drs []metrics.DetectionResult
	for _, det := range res.Detections {
		drs = append(drs, metrics.DetectionResult{
			Detected: det.Raw,
			Truth:    truth[ppm.Truth[det.Stats.Seed]],
		})
	}
	f, err := metrics.TotalFScore(drs)
	if err != nil {
		t.Fatal(err)
	}
	if f < 0.8 {
		t.Fatalf("distributed detection F-score %v, want ≥0.8", f)
	}
}
