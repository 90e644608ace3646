// Cross-engine equivalence and batched-conformance tests live in an external
// test package: the core package imports congest (the unified Detector
// dispatches to it), so an internal congest test importing core would form a
// test-only import cycle.
package congest_test

import (
	"context"
	"reflect"
	"testing"

	"cdrw/internal/congest"
	"cdrw/internal/core"
	"cdrw/internal/gen"
	"cdrw/internal/graph"
	"cdrw/internal/rng"
)

// TestDetectCommunityMatchesCore: on a connected graph the distributed
// engine returns exactly the reference engine's community and stats, whole
// struct, including walks that the walk-length cap cuts off.
func TestDetectCommunityMatchesCore(t *testing.T) {
	capped := 0
	check := func(g *graph.Graph, delta float64, seed, maxLen int) {
		t.Helper()
		opts := []core.Option{core.WithDelta(delta)}
		cfg := congest.DefaultConfig(g.NumVertices())
		cfg.Delta = delta
		if maxLen > 0 {
			opts = append(opts, core.WithMaxWalkLength(maxLen))
			cfg.MaxWalkLength = maxLen
		}
		want, wantStats, err := core.DetectCommunity(g, seed, opts...)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := congest.DetectCommunity(congest.NewNetwork(g, 1), seed, cfg)
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
	nw := congest.NewNetwork(ppm.Graph, 1)
	cfg := congest.DefaultConfig(256)
	cfg.Delta = delta
	cfg.Seed = 5
	got, err := congest.Detect(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	if got.Metrics.Rounds <= 0 {
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
		cfg := congest.DefaultConfig(n)
		cfg.Delta = 0.05
		seeds := []int{0, n / 3, n / 2, n - 1}

		seqNW := congest.NewNetwork(g, 1)
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

		batchNW := congest.NewNetwork(g, 1)
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

// TestDetectBatchedPoolConformance: the full pool loop with Batch > 1 emits,
// for every seed it draws, the community a sequential DetectCommunity of
// that seed computes (bit-identical, per-walk stats included), its Assigned
// sets still partition the vertex set, and the run is deterministic in the
// config seed. The pool schedule itself legitimately differs from the
// sequential loop — a super-step removes up to Batch communities at once —
// which is exactly where the round win comes from.
func TestDetectBatchedPoolConformance(t *testing.T) {
	for name, g := range conformanceGraphs(t) {
		n := g.NumVertices()
		cfg := congest.DefaultConfig(n)
		cfg.Delta = 0.05
		cfg.Seed = 9
		cfg.Batch = 3
		got, err := congest.Detect(congest.NewNetwork(g, 1), cfg)
		if err != nil {
			t.Fatalf("%s: batched: %v", name, err)
		}
		seen := make([]bool, n)
		refNW := congest.NewNetwork(g, 1)
		for i, det := range got.Detections {
			for _, v := range det.Assigned {
				if seen[v] {
					t.Fatalf("%s: vertex %d assigned twice", name, v)
				}
				seen[v] = true
			}
			want, wantStats, err := congest.DetectCommunity(refNW, det.Stats.Seed, cfg)
			if err != nil {
				t.Fatalf("%s: reference run of seed %d: %v", name, det.Stats.Seed, err)
			}
			if !reflect.DeepEqual(det.Raw, want) {
				t.Fatalf("%s: detection %d (seed %d) differs from a sequential run of the same seed",
					name, i, det.Stats.Seed)
			}
			if !reflect.DeepEqual(det.Stats, wantStats) {
				t.Fatalf("%s: detection %d stats %+v differ from sequential %+v",
					name, i, det.Stats, wantStats)
			}
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("%s: vertex %d unassigned", name, v)
			}
		}
		again, err := congest.Detect(congest.NewNetwork(g, 1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Detections, again.Detections) || got.Metrics != again.Metrics {
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
	cfg := congest.DefaultConfig(512)
	cfg.Delta = cfgGen.ExpectedConductance()
	seq, err := congest.Detect(congest.NewNetwork(ppm.Graph, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Batch = 4
	bat, err := congest.Detect(congest.NewNetwork(ppm.Graph, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bat.Metrics.Rounds >= seq.Metrics.Rounds {
		t.Fatalf("batched pool took %d rounds, sequential %d — no round win",
			bat.Metrics.Rounds, seq.Metrics.Rounds)
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
	delta := cfgGen.ExpectedConductance()
	runRounds := func(opts ...core.Option) (*core.Result, int) {
		t.Helper()
		d, err := core.NewDetector(ppm.Graph, append([]core.Option{
			core.WithEngine(core.EngineCongest), core.WithDelta(delta)}, opts...)...)
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
		return res, m.Rounds
	}
	_, seqRounds := runRounds()
	batched, batRounds := runRounds(core.WithCongestBatch(4))
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
	if batRounds >= seqRounds {
		t.Fatalf("WithCongestBatch(4) took %d rounds, sequential %d", batRounds, seqRounds)
	}
}
