package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"cdrw/internal/congest"
	"cdrw/internal/metrics"
)

// TestDetectorReferenceMatchesWrapper: the Detector's reference engine and
// the package-level Detect wrapper return byte-identical results for a
// fixed seed.
func TestDetectorReferenceMatchesWrapper(t *testing.T) {
	ppm := ppmGraph(t, 256, 2, 2, 0.1, 71)
	opts := []Option{WithDelta(ppm.Config.ExpectedConductance()), WithSeed(3)}
	want, err := Detect(ppm.Graph, opts...)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDetector(ppm.Graph, opts...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Detector(reference) differs from Detect wrapper")
	}
	// A second run on the same detector reproduces the result exactly —
	// reused engines and buffers must not leak state across runs.
	again, err := d.Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatal("second Detect run on a reused Detector differs")
	}
}

// TestDetectorCommunityReuse: repeated single-seed serving on one Detector
// matches the one-shot wrapper for every seed, in any order.
func TestDetectorCommunityReuse(t *testing.T) {
	ppm := ppmGraph(t, 192, 3, 2, 0.1, 73)
	delta := ppm.Config.ExpectedConductance()
	d, err := NewDetector(ppm.Graph, WithDelta(delta))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, s := range []int{0, 100, 0, 191, 64, 0} {
		got, gotStats, err := d.DetectCommunity(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		got = append([]int(nil), got...) // detector owns the buffer
		want, wantStats, err := DetectCommunity(ppm.Graph, s, WithDelta(delta))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || gotStats != wantStats {
			t.Fatalf("seed %d: reused detector differs from one-shot wrapper", s)
		}
	}
}

// TestDetectorParallelMatchesWrapper: Detector with EngineParallel equals
// the DetectParallel wrapper.
func TestDetectorParallelMatchesWrapper(t *testing.T) {
	ppm := ppmGraph(t, 256, 4, 2, 0.1, 79)
	opts := []Option{WithDelta(ppm.Config.ExpectedConductance()), WithSeed(5)}
	want, err := DetectParallel(ppm.Graph, 4, opts...)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDetector(ppm.Graph,
		append(opts, WithEngine(EngineParallel), WithCommunityEstimate(4))...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Detector(parallel) differs from DetectParallel wrapper")
	}
	for i, det := range got.Detections {
		if cap(det.Assigned) != len(det.Assigned) {
			t.Fatalf("detection %d: assigned piece has cap %d for %d vertices", i, cap(det.Assigned), len(det.Assigned))
		}
	}
}

// TestDetectorCongestMatchesSoloRuns: the CONGEST engine's pool loop draws
// the reference engine's seeds for the same WithSeed, each detection is
// what congest.DetectCommunity computes for its seed alone (community and
// stats), the Assigned pieces partition the graph, and the run's reported
// rounds and messages are exactly the sum of those solo runs.
func TestDetectorCongestMatchesSoloRuns(t *testing.T) {
	ppm := ppmGraph(t, 128, 2, 2.5, 0.1, 83)
	opts := []Option{WithDelta(ppm.Config.ExpectedConductance()), WithSeed(7)}
	ref, err := Detect(ppm.Graph, opts...)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDetector(ppm.Graph, append(opts, WithEngine(EngineCongest))...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Detections) < 2 {
		t.Fatalf("%d detections; the pool loop never iterated", len(got.Detections))
	}
	nw := congest.NewNetwork(ppm.Graph)
	cfg := d.Settings().CongestConfig()
	seen := make([]bool, ppm.Graph.NumVertices())
	if len(got.Detections) != len(ref.Detections) {
		t.Fatalf("%d detections, reference engine %d", len(got.Detections), len(ref.Detections))
	}
	for i, det := range got.Detections {
		if det.Stats.Seed != ref.Detections[i].Stats.Seed {
			t.Fatalf("detection %d: seed %d, reference engine drew %d", i, det.Stats.Seed, ref.Detections[i].Stats.Seed)
		}
		want, wantStats, err := congest.DetectCommunity(nw, det.Stats.Seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(det.Raw, want) || det.Stats != wantStats.CommunityStats {
			t.Fatalf("detection %d (seed %d) differs from a solo run: stats %+v vs %+v",
				i, det.Stats.Seed, det.Stats, wantStats.CommunityStats)
		}
		if cap(det.Assigned) != len(det.Assigned) {
			t.Fatalf("detection %d: assigned piece has cap %d for %d vertices", i, cap(det.Assigned), len(det.Assigned))
		}
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
	m, ok := d.CongestMetrics()
	if !ok || m != nw.Metrics() {
		t.Fatalf("congest metrics %+v (ok=%v), solo runs sum to %+v", m, ok, nw.Metrics())
	}
}

// TestDetectorStream: Stream yields exactly Detect's detections in order,
// the detection observer sees them too, and breaking out stops the run.
func TestDetectorStream(t *testing.T) {
	ppm := ppmGraph(t, 256, 4, 2, 0.1, 89)
	opts := []Option{WithDelta(ppm.Config.ExpectedConductance()), WithSeed(9)}
	want, err := Detect(ppm.Graph, opts...)
	if err != nil {
		t.Fatal(err)
	}

	var observed []Detection
	d, err := NewDetector(ppm.Graph,
		append(opts, WithDetectionObserver(func(det Detection) { observed = append(observed, det) }))...)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []Detection
	for det, err := range d.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, det)
	}
	if !reflect.DeepEqual(streamed, want.Detections) {
		t.Fatal("streamed detections differ from Detect")
	}
	if !reflect.DeepEqual(observed, want.Detections) {
		t.Fatal("observer detections differ from Detect")
	}

	// Early break stops the pool loop without error.
	seen := 0
	for _, err := range d.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		seen++
		break
	}
	if seen != 1 {
		t.Fatalf("saw %d detections after break", seen)
	}
}

// TestDetectorStreamCongest: streaming works on the distributed engine too.
func TestDetectorStreamCongest(t *testing.T) {
	ppm := ppmGraph(t, 128, 2, 2.5, 0.1, 97)
	d, err := NewDetector(ppm.Graph,
		WithEngine(EngineCongest),
		WithDelta(ppm.Config.ExpectedConductance()), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for det, err := range d.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		if len(det.Raw) == 0 {
			t.Fatal("empty streamed detection")
		}
		count++
	}
	if count == 0 {
		t.Fatal("congest stream yielded nothing")
	}
}

// TestDetectorStreamCongestBatched: a batched CONGEST run emits each
// super-step's detections as soon as the super-step completes, so breaking
// out of Stream after the first detection stops the run early — fewer
// rounds than a full run with the same options — and the detection that
// arrived is the full run's first.
func TestDetectorStreamCongestBatched(t *testing.T) {
	ppm := ppmGraph(t, 128, 4, 2, 0.1, 13)
	opts := []Option{WithEngine(EngineCongest), WithCongestBatch(4),
		WithDelta(ppm.Config.ExpectedConductance())}
	full, err := NewDetector(ppm.Graph, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fullM, _ := full.CongestMetrics()

	d, err := NewDetector(ppm.Graph, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var got []Detection
	for det, err := range d.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, det)
		break
	}
	m, ok := d.CongestMetrics()
	if !ok || m.Rounds >= fullM.Rounds {
		t.Fatalf("stopped stream took %d rounds (ran=%v), full run %d", m.Rounds, ok, fullM.Rounds)
	}
	if len(got) != 1 || !reflect.DeepEqual(got, want.Detections[:1]) {
		t.Fatalf("streamed %+v, full run's first detection %+v", got, want.Detections[0])
	}
}

// TestDetectorCancellation: an already-cancelled context aborts all three
// engines with context.Canceled before any detection completes.
func TestDetectorCancellation(t *testing.T) {
	ppm := ppmGraph(t, 256, 2, 2, 0.1, 101)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, engOpts := range [][]Option{
		{WithEngine(EngineReference)},
		{WithEngine(EngineParallel), WithCommunityEstimate(2)},
		{WithEngine(EngineCongest)},
	} {
		d, err := NewDetector(ppm.Graph, engOpts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Detect(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: Detect error %v, want context.Canceled", d.Engine(), err)
		}
		if _, _, err := d.DetectCommunity(ctx, 0); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: DetectCommunity error %v, want context.Canceled", d.Engine(), err)
		}
	}
}

// TestDetectorMidRunCancellation: cancelling from inside a step observer
// lands mid-run (between steps or ladder sizes) and surfaces
// context.Canceled, on the solo loop and the parallel engine's workers.
func TestDetectorMidRunCancellation(t *testing.T) {
	ppm := ppmGraph(t, 256, 2, 2, 0.1, 103)
	for _, parallel := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		steps := 0
		opts := []Option{
			WithDelta(ppm.Config.ExpectedConductance()),
			WithStepObserver(SynchronizedObserver(func(StepTiming) {
				if steps++; steps == 3 {
					cancel()
				}
			})),
		}
		if parallel {
			opts = append(opts, WithEngine(EngineParallel), WithCommunityEstimate(2))
		}
		d, err := NewDetector(ppm.Graph, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Detect(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel=%v: error %v, want context.Canceled", parallel, err)
		}
		cancel()
	}
}

// TestDetectorEngineAgreement: on a connected PPM all three engines agree
// on the partition (NMI 1.0 against each other is too strict across
// models, but each must score the planted truth equally well).
func TestDetectorEngineAgreement(t *testing.T) {
	ppm := ppmGraph(t, 256, 2, 2.5, 0.1, 107)
	if !ppm.Graph.IsConnected() {
		t.Skip("sample disconnected")
	}
	delta := ppm.Config.ExpectedConductance()
	ref, err := Detect(ppm.Graph, WithDelta(delta), WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	cong, err := Detect(ppm.Graph, WithDelta(delta), WithSeed(13), WithEngine(EngineCongest))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Partition(), cong.Partition()) {
		t.Fatal("reference and congest engines partition differently on a connected graph")
	}
	par, err := Detect(ppm.Graph, WithDelta(delta), WithSeed(13),
		WithEngine(EngineParallel), WithCommunityEstimate(2))
	if err != nil {
		t.Fatal(err)
	}
	nmi, err := metrics.NMI(par.Labels(ppm.Graph.NumVertices()), ppm.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if nmi < 0.6 {
		t.Fatalf("parallel engine NMI %v", nmi)
	}
}

// TestSettingsCongestTranslation: the shared options translate into every
// field of congest.Config, while the pool's seed and batch stay in the
// settings.
func TestSettingsCongestTranslation(t *testing.T) {
	s, err := Resolve(1000,
		WithDelta(0.25), WithMinCommunitySize(7), WithMaxWalkLength(33),
		WithPatience(2), WithSeed(99),
		WithTreeDepthLimit(12), WithMixingThreshold(0.2), WithGrowthFactor(1.5),
		WithCongestBatch(6))
	if err != nil {
		t.Fatal(err)
	}
	got := s.CongestConfig()
	want := congest.Config{
		Delta: 0.25, MinCommunitySize: 7, MaxWalkLength: 33, Patience: 2,
		TreeDepthLimit: 12, MixingThreshold: 0.2, GrowthFactor: 1.5,
	}
	if got != want {
		t.Fatalf("translated config %+v, want %+v", got, want)
	}
	if s.Seed != 99 || s.CongestBatch != 6 {
		t.Fatalf("pool settings seed=%d batch=%d, want 99, 6", s.Seed, s.CongestBatch)
	}
}

// TestResolveAndFingerprint: defaults resolve to the paper's constants and
// distinct option sets (or engines) produce distinct fingerprints.
func TestResolveAndFingerprint(t *testing.T) {
	a, err := Resolve(1024)
	if err != nil {
		t.Fatal(err)
	}
	if a.Engine != EngineReference || a.Delta != DefaultDelta || a.MixingThreshold <= 0.18 || a.GrowthFactor <= 1 {
		t.Fatalf("unexpected defaults: %+v", a)
	}
	b, err := Resolve(1024, WithEngine(EngineCongest))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("fingerprints do not distinguish engines")
	}
	if _, err := Resolve(8, WithEngine(EngineParallel)); err == nil {
		t.Fatal("parallel engine without a community estimate accepted")
	}
	if _, err := Resolve(8, WithEngine(Engine(42))); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := Resolve(8, WithEngine(EngineCongest), WithCongestBatch(-1)); err == nil {
		t.Fatal("negative congest batch size accepted")
	}
}

// TestParseEngine covers the canonical names and the legacy "core" alias.
func TestParseEngine(t *testing.T) {
	for name, want := range map[string]Engine{
		"reference": EngineReference, "core": EngineReference,
		"Parallel": EngineParallel, "congest": EngineCongest,
	} {
		got, err := ParseEngine(name)
		if err != nil || got != want {
			t.Fatalf("ParseEngine(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseEngine("quantum"); err == nil {
		t.Fatal("unknown engine name accepted")
	}
}
