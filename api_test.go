package cdrw_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"cdrw"
)

// TestPublicAPIEndToEnd exercises the exported surface the way a downstream
// user would: generate, detect, score, render.
func TestPublicAPIEndToEnd(t *testing.T) {
	cfg := cdrw.PPMConfig{N: 256, R: 2, P: 0.15, Q: 0.002}
	ppm, err := cdrw.NewPPM(cfg, cdrw.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cdrw.Detect(ppm.Graph,
		cdrw.WithDelta(cfg.ExpectedConductance()),
		cdrw.WithSeed(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	truth := ppm.TruthCommunities()
	var drs []cdrw.DetectionResult
	for _, det := range res.Detections {
		drs = append(drs, cdrw.DetectionResult{
			Detected: det.Raw,
			Truth:    truth[ppm.Truth[det.Stats.Seed]],
		})
	}
	f, err := cdrw.TotalFScore(drs)
	if err != nil {
		t.Fatal(err)
	}
	if f < 0.85 {
		t.Fatalf("public API detection F=%v, want ≥0.85", f)
	}
	var dot bytes.Buffer
	if err := cdrw.WriteDOT(&dot, ppm.Graph, cdrw.VizOptions{Labels: res.Labels(256)}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "graph") {
		t.Fatal("DOT output malformed")
	}
}

// TestPublicAPIWrapperEquivalence pins the api_redesign contract: the
// pre-Detector entry points are thin wrappers over the unified Detector and
// return byte-identical Results for fixed seeds, across all three engines.
func TestPublicAPIWrapperEquivalence(t *testing.T) {
	cfg := cdrw.PPMConfig{N: 256, R: 2, P: 2 * 7.0 / 128, Q: 0.1 / 128}
	ppm, err := cdrw.NewPPM(cfg, cdrw.NewRNG(41))
	if err != nil {
		t.Fatal(err)
	}
	delta := cfg.ExpectedConductance()
	ctx := context.Background()

	// Reference engine: Detect wrapper vs Detector.Detect.
	want, err := cdrw.Detect(ppm.Graph, cdrw.WithDelta(delta), cdrw.WithSeed(43))
	if err != nil {
		t.Fatal(err)
	}
	d, err := cdrw.NewDetector(ppm.Graph, cdrw.WithDelta(delta), cdrw.WithSeed(43))
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Detect wrapper differs from Detector (reference engine)")
	}

	// Parallel engine: DetectParallel wrapper vs Detector with
	// WithEngine(Parallel)+WithCommunityEstimate.
	wantPar, err := cdrw.DetectParallel(ppm.Graph, 2, cdrw.WithDelta(delta), cdrw.WithSeed(43))
	if err != nil {
		t.Fatal(err)
	}
	dp, err := cdrw.NewDetector(ppm.Graph, cdrw.WithDelta(delta), cdrw.WithSeed(43),
		cdrw.WithEngine(cdrw.Parallel), cdrw.WithCommunityEstimate(2))
	if err != nil {
		t.Fatal(err)
	}
	gotPar, err := dp.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPar, wantPar) {
		t.Fatal("DetectParallel wrapper differs from Detector (parallel engine)")
	}

	// Congest engine: the Detect wrapper vs the Detector, and each
	// detection vs CongestDetectCommunity of its seed on a caller-held
	// network, whose metrics must sum to the Detector's.
	congOpts := []cdrw.Option{cdrw.WithDelta(delta), cdrw.WithSeed(43), cdrw.WithEngine(cdrw.Congest)}
	wantCong, err := cdrw.Detect(ppm.Graph, congOpts...)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := cdrw.NewDetector(ppm.Graph, congOpts...)
	if err != nil {
		t.Fatal(err)
	}
	gotCong, err := dc.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotCong, wantCong) {
		t.Fatal("Detect wrapper differs from Detector (congest engine)")
	}
	ccfg := cdrw.DefaultCongestConfig(ppm.Graph.NumVertices())
	ccfg.Delta = delta
	if ccfg != dc.Settings().CongestConfig() {
		t.Fatalf("DefaultCongestConfig %+v, Detector runs %+v", ccfg, dc.Settings().CongestConfig())
	}
	nw := cdrw.NewCongestNetwork(ppm.Graph)
	for i, det := range gotCong.Detections {
		raw, stats, err := cdrw.CongestDetectCommunity(nw, det.Stats.Seed, ccfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(det.Raw, raw) || det.Stats != stats.CommunityStats {
			t.Fatalf("congest detection %d: differs from CongestDetectCommunity of seed %d", i, det.Stats.Seed)
		}
	}
	if m, ok := dc.CongestMetrics(); !ok || m != nw.Metrics() {
		t.Fatalf("detector congest metrics %+v (ok=%v), solo runs sum to %+v", m, ok, nw.Metrics())
	}
}

// TestPublicAPIDetectorStreamAndCancel exercises the streaming iterator and
// context cancellation through the public surface.
func TestPublicAPIDetectorStreamAndCancel(t *testing.T) {
	cfg := cdrw.PPMConfig{N: 256, R: 4, P: 0.2, Q: 0.002}
	ppm, err := cdrw.NewPPM(cfg, cdrw.NewRNG(47))
	if err != nil {
		t.Fatal(err)
	}
	d, err := cdrw.NewDetector(ppm.Graph,
		cdrw.WithDelta(cfg.ExpectedConductance()), cdrw.WithSeed(49))
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var streamed []cdrw.Detection
	for det, err := range d.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, det)
	}
	if !reflect.DeepEqual(streamed, want.Detections) {
		t.Fatal("streamed detections differ from Detect")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.Detect(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Detect returned %v", err)
	}
	if _, err := cdrw.DetectContext(ctx, ppm.Graph); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled DetectContext returned %v", err)
	}
}

func TestPublicAPIGraphRoundTrip(t *testing.T) {
	b := cdrw.NewGraphBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cdrw.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := cdrw.ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != 2 {
		t.Fatalf("round trip lost edges: %d", back.NumEdges())
	}
}

func TestPublicAPIConstants(t *testing.T) {
	if cdrw.MixingThreshold <= 0.18 || cdrw.MixingThreshold >= 0.19 {
		t.Fatalf("MixingThreshold = %v", cdrw.MixingThreshold)
	}
	if cdrw.GrowthFactor <= 1.04 || cdrw.GrowthFactor >= 1.05 {
		t.Fatalf("GrowthFactor = %v", cdrw.GrowthFactor)
	}
}

func TestPublicAPICongestAndKMachine(t *testing.T) {
	g, err := cdrw.Gnp(128, 2*7.0/128, cdrw.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	assign, err := cdrw.RandomVertexPartition(128, 4, cdrw.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := cdrw.NewKMachineSimulator(assign, 1)
	if err != nil {
		t.Fatal(err)
	}
	nw := cdrw.NewCongestNetwork(g)
	nw.SetLoadObserver(sim.LoadObserver())
	com, stats, err := cdrw.CongestDetectCommunity(nw, 0, cdrw.DefaultCongestConfig(128))
	if err != nil {
		t.Fatal(err)
	}
	if len(com) == 0 || stats.Metrics.Rounds == 0 {
		t.Fatalf("distributed run empty: |C|=%d metrics=%+v", len(com), stats.Metrics)
	}
	if sim.Results().Rounds <= 0 {
		t.Fatal("k-machine conversion recorded nothing")
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	cfg := cdrw.PPMConfig{N: 128, R: 2, P: 0.3, Q: 0.01}
	ppm, err := cdrw.NewPPM(cfg, cdrw.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	lpa, err := cdrw.LPA(ppm.Graph, cdrw.LPAConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nmi, err := cdrw.NMI(lpa.Labels, ppm.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if nmi < 0.5 {
		t.Fatalf("LPA NMI = %v on an easy instance", nmi)
	}
	avg, err := cdrw.Averaging(ppm.Graph, cdrw.AveragingConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(avg.Side) != 128 {
		t.Fatalf("averaging output size %d", len(avg.Side))
	}
	if _, err := cdrw.ARI(lpa.Labels, ppm.Truth); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPIWalkPrimitives pins cdrw.LargestMixingSet's whole result —
// the set (by size and checksum), the bits of its sum and the ladder sizes
// checked — on not-found, local and mixed walk distributions. The golden
// values were recorded with the O(n)-per-size reference sweep; the wrapper
// runs the production Sweeper, which must reproduce them bit for bit.
func TestPublicAPIWalkPrimitives(t *testing.T) {
	gnp, err := cdrw.Gnp(128, 0.2, cdrw.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	pi := cdrw.Stationary(gnp)
	if len(pi) != 128 {
		t.Fatalf("stationary length %d", len(pi))
	}
	tm, err := cdrw.MixingTime(gnp, 0, 0.05, 100)
	if err != nil {
		t.Fatal(err)
	}
	if tm != 4 {
		t.Fatalf("mixing time %d, want 4", tm)
	}
	ppm, err := cdrw.NewPPM(cdrw.PPMConfig{N: 2048, R: 4, P: 0.05, Q: 0.001}, cdrw.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name                string
		g                   *cdrw.Graph
		src, steps, minSize int
		size                int
		checksum, sumBits   uint64
		sizesChecked        int
	}{
		{"gnp mixed", gnp, 0, tm, 4, 128, 0x356c6cc8137514a5, 0x3fa14d5f0e6bc2a8, 69},
		{"ppm point", ppm.Graph, 5, 0, 11, 0, 0xcbf29ce484222325, 0, 125},
		{"ppm 1 step", ppm.Graph, 5, 1, 11, 29, 0x4d4903a4f303d01b, 0x3fc682b57c3db572, 125},
		{"ppm 6 steps", ppm.Graph, 5, 6, 11, 676, 0x1353611f14cb0923, 0x3fc60bec3e186410, 125},
		{"ppm 12 steps", ppm.Graph, 5, 12, 11, 0, 0xcbf29ce484222325, 0, 125},
	} {
		d, err := cdrw.Walk(c.g, c.src, c.steps)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := cdrw.LargestMixingSet(c.g, d, c.minSize)
		if err != nil {
			t.Fatal(err)
		}
		if ms.Size() != c.size || vertexChecksum(ms.Vertices) != c.checksum ||
			math.Float64bits(ms.Sum) != c.sumBits || ms.SizesChecked != c.sizesChecked {
			t.Errorf("%s: size %d checksum %#x sum bits %#x sizes %d, want %d %#x %#x %d", c.name,
				ms.Size(), vertexChecksum(ms.Vertices), math.Float64bits(ms.Sum), ms.SizesChecked,
				c.size, c.checksum, c.sumBits, c.sizesChecked)
		}
		// The caller owns the returned set: a later call must not reuse it.
		if ms.Found() {
			ms.Vertices[0] = -1
			again, err := cdrw.LargestMixingSet(c.g, d, c.minSize)
			if err != nil {
				t.Fatal(err)
			}
			if vertexChecksum(again.Vertices) != c.checksum {
				t.Errorf("%s: a second call returned storage the first caller holds", c.name)
			}
		}
	}
}

// vertexChecksum is FNV-1a over the ids, one word each.
func vertexChecksum(vs []int) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vs {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h
}
