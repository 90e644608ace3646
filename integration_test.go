package cdrw_test

import (
	"context"
	"reflect"
	"testing"

	"cdrw"
)

// TestIntegrationDisconnectedBlocks runs the full pipeline on a PPM with
// q = 0: the blocks are separate connected components, the hardest clean
// failure-injection case (walks cannot leave a block, BFS trees cover only
// one component, the pool loop must still terminate with a partition).
func TestIntegrationDisconnectedBlocks(t *testing.T) {
	cfg := cdrw.PPMConfig{N: 512, R: 4, P: 0.2, Q: 0}
	ppm, err := cdrw.NewPPM(cfg, cdrw.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cdrw.Detect(ppm.Graph, cdrw.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	labels := res.Labels(512)
	for v, l := range labels {
		if l < 0 {
			t.Fatalf("vertex %d unassigned", v)
		}
	}
	nmi, err := cdrw.NMI(labels, ppm.Truth)
	if err != nil {
		t.Fatal(err)
	}
	// The mixing condition tolerates candidate sizes up to ≈9% above |C|
	// (the sum stays below 1/2e with that many zero-probability outsiders),
	// so even with q = 0 a detection may absorb a few foreign vertices —
	// the bound is inherent to the paper's localized criterion.
	if nmi < 0.85 {
		t.Fatalf("NMI %v on perfectly separated blocks, want ≳0.9", nmi)
	}
}

// TestIntegrationCongestDisconnected verifies the distributed engine
// terminates and partitions a disconnected input (tree covers only the
// seed's component; mixing sets are restricted to it).
func TestIntegrationCongestDisconnected(t *testing.T) {
	cfg := cdrw.PPMConfig{N: 256, R: 2, P: 0.25, Q: 0}
	ppm, err := cdrw.NewPPM(cfg, cdrw.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	d, err := cdrw.NewDetector(ppm.Graph, cdrw.WithEngine(cdrw.Congest), cdrw.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, 256)
	for _, det := range res.Detections {
		for _, v := range det.Assigned {
			if seen[v] {
				t.Fatalf("vertex %d assigned twice", v)
			}
			seen[v] = true
		}
		// No raw community may span both components.
		blk := ppm.Truth[det.Raw[0]]
		for _, v := range det.Raw {
			if ppm.Truth[v] != blk {
				t.Fatalf("community crosses disconnected blocks at vertex %d", v)
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("vertex %d never assigned", v)
		}
	}
}

// TestIntegrationIsolatedVertices injects degree-0 vertices into a PPM and
// checks the pool loop absorbs them as singletons without errors.
func TestIntegrationIsolatedVertices(t *testing.T) {
	cfg := cdrw.PPMConfig{N: 128, R: 2, P: 0.3, Q: 0.01}
	ppm, err := cdrw.NewPPM(cfg, cdrw.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	// Re-embed the PPM into a larger vertex set with 8 isolated vertices.
	b := cdrw.NewGraphBuilder(136)
	ppm.Graph.Edges(func(u, v int) bool {
		b.AddEdge(u, v)
		return true
	})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := cdrw.Detect(g, cdrw.WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	labels := res.Labels(136)
	for v := 128; v < 136; v++ {
		if labels[v] < 0 {
			t.Fatalf("isolated vertex %d unassigned", v)
		}
	}
}

// TestIntegrationFullPipeline chains every major subsystem on one input:
// generate → detect (core) → detect (congest, must match) → convert to
// k-machine costs → compare against baselines → render a report.
func TestIntegrationFullPipeline(t *testing.T) {
	cfg := cdrw.PPMConfig{N: 256, R: 2, P: 2 * 7.0 / 128, Q: 0.1 / 128}
	ppm, err := cdrw.NewPPM(cfg, cdrw.NewRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	if !ppm.Graph.IsConnected() {
		t.Skip("sample disconnected; engine-equality needs a connected graph")
	}
	delta := cfg.ExpectedConductance()

	coreRes, err := cdrw.Detect(ppm.Graph, cdrw.WithDelta(delta), cdrw.WithSeed(19))
	if err != nil {
		t.Fatal(err)
	}

	assign, err := cdrw.RandomVertexPartition(256, 4, cdrw.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := cdrw.NewKMachineSimulator(assign, 1)
	if err != nil {
		t.Fatal(err)
	}
	congRes, err := cdrw.Detect(ppm.Graph, cdrw.WithDelta(delta), cdrw.WithSeed(19),
		cdrw.WithEngine(cdrw.Congest))
	if err != nil {
		t.Fatal(err)
	}
	// Convert the same execution: a sequential pool's traffic is its seeds'
	// solo walks, one after another.
	nw := cdrw.NewCongestNetwork(ppm.Graph)
	nw.SetLoadObserver(sim.LoadObserver())
	ccfg := cdrw.DefaultCongestConfig(256)
	ccfg.Delta = delta
	for _, det := range congRes.Detections {
		if _, _, err := cdrw.CongestDetectCommunity(nw, det.Stats.Seed, ccfg); err != nil {
			t.Fatal(err)
		}
	}

	// Engines agree detection by detection.
	if len(coreRes.Detections) != len(congRes.Detections) {
		t.Fatalf("core made %d detections, congest %d",
			len(coreRes.Detections), len(congRes.Detections))
	}
	for i := range coreRes.Detections {
		a := coreRes.Detections[i].Raw
		b := congRes.Detections[i].Raw
		if len(a) != len(b) {
			t.Fatalf("detection %d: |core|=%d |congest|=%d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("detection %d differs at %d", i, j)
			}
		}
	}
	if sim.Results().Rounds <= 0 || sim.Results().CrossMessages <= 0 {
		t.Fatalf("k-machine conversion empty: %+v", sim.Results())
	}

	// Score and report.
	truth := ppm.TruthCommunities()
	var drs []cdrw.DetectionResult
	for _, det := range coreRes.Detections {
		drs = append(drs, cdrw.DetectionResult{
			Detected: det.Raw,
			Truth:    truth[ppm.Truth[det.Stats.Seed]],
		})
	}
	rep, err := cdrw.NewReport(drs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalF < 0.8 {
		t.Fatalf("pipeline F-score %v", rep.TotalF)
	}

	// Baselines run on the same instance without error.
	if _, err := cdrw.LPA(ppm.Graph, cdrw.LPAConfig{Seed: 23}); err != nil {
		t.Fatal(err)
	}
	if _, err := cdrw.Averaging(ppm.Graph, cdrw.AveragingConfig{Seed: 23}); err != nil {
		t.Fatal(err)
	}
}

// TestIntegrationDetectParallel exercises the public parallel-detection
// extension end to end.
func TestIntegrationDetectParallel(t *testing.T) {
	cfg := cdrw.PPMConfig{N: 512, R: 4, P: 0.15, Q: 0.001}
	ppm, err := cdrw.NewPPM(cfg, cdrw.NewRNG(29))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cdrw.DetectParallel(ppm.Graph, 4,
		cdrw.WithDelta(cfg.ExpectedConductance()), cdrw.WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	nmi, err := cdrw.NMI(res.Labels(512), ppm.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if nmi < 0.6 {
		t.Fatalf("parallel detection NMI %v", nmi)
	}
}

// TestIntegrationConductanceDrivenDelta runs Detect with δ estimated from
// the graph itself (no ground truth), the paper's "Φ_G computed by a
// distributed algorithm" mode.
func TestIntegrationConductanceDrivenDelta(t *testing.T) {
	cfg := cdrw.PPMConfig{N: 256, R: 2, P: 0.2, Q: 0.004}
	ppm, err := cdrw.NewPPM(cfg, cdrw.NewRNG(33))
	if err != nil {
		t.Fatal(err)
	}
	phi, err := cdrw.EstimateConductance(ppm.Graph, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cdrw.Detect(ppm.Graph, cdrw.WithDelta(phi), cdrw.WithSeed(35))
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
	if f < 0.8 {
		t.Fatalf("estimated-δ detection F=%v", f)
	}
}

// TestIntegrationServingPipeline exercises the public serving surface end to
// end: a registry-backed handler serving a generated graph, pooled Detect
// answers byte-identical to a solo Detector, warm-cache hits, and correct
// accuracy against the PPM ground truth via the metrics layer.
func TestIntegrationServingPipeline(t *testing.T) {
	cfg := cdrw.PPMConfig{N: 512, R: 4, P: 0.2, Q: 0.001}
	ppm, err := cdrw.NewPPM(cfg, cdrw.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	opts := []cdrw.Option{cdrw.WithDelta(cfg.ExpectedConductance()), cdrw.WithSeed(11)}

	solo, err := cdrw.NewDetector(ppm.Graph, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := solo.Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	m := cdrw.NewServeMetrics()
	reg := cdrw.NewGraphRegistry(2, m)
	if err := reg.Register("ppm", ppm.Graph, opts...); err != nil {
		t.Fatal(err)
	}
	got, _, cached, err := reg.Detect(context.Background(), "ppm")
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("cold registry Detect reported cached")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("registry-served result differs from a solo Detector's")
	}
	if _, _, cached, err = reg.Detect(context.Background(), "ppm"); err != nil || !cached {
		t.Fatalf("warm registry Detect: cached=%v err=%v", cached, err)
	}
	if s := m.Snapshot(); s.CacheHits != 1 || s.CacheMisses != 1 {
		t.Fatalf("serve metrics %+v, want 1 hit / 1 miss", s)
	}

	// The served partition scores like the direct one against ground truth.
	truth := ppm.TruthCommunities()
	results := make([]cdrw.DetectionResult, 0, len(got.Detections))
	for _, det := range got.Detections {
		results = append(results, cdrw.DetectionResult{
			Detected: det.Raw,
			Truth:    truth[ppm.Truth[det.Stats.Seed]],
		})
	}
	f, err := cdrw.TotalFScore(results)
	if err != nil {
		t.Fatal(err)
	}
	if f < 0.9 {
		t.Fatalf("served detection F-score %.3f below 0.9 on a clean PPM", f)
	}

	// Pooled single-seed serving through the public DetectorPool.
	pool, err := cdrw.NewDetectorPool(ppm.Graph, 2, opts...)
	if err != nil {
		t.Fatal(err)
	}
	wantComm, _, err := solo.DetectCommunity(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	wantCopy := append([]int(nil), wantComm...)
	gotComm, _, err := pool.DetectCommunity(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotComm, wantCopy) {
		t.Fatal("pooled community differs from the solo Detector's")
	}
}
