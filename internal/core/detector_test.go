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
}

// TestDetectorCongestMatchesWrapper: Detector with EngineCongest emits the
// same communities as congest.Detect, converts the stats faithfully, and
// reports the run's round/message metrics.
func TestDetectorCongestMatchesWrapper(t *testing.T) {
	ppm := ppmGraph(t, 128, 2, 2.5, 0.1, 83)
	delta := ppm.Config.ExpectedConductance()

	nw := congest.NewNetwork(ppm.Graph, 1)
	cfg := congest.DefaultConfig(ppm.Graph.NumVertices())
	cfg.Delta = delta
	cfg.Seed = 7
	want, err := congest.Detect(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}

	d, err := NewDetector(ppm.Graph,
		WithEngine(EngineCongest), WithDelta(delta), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Detections) != len(want.Detections) {
		t.Fatalf("detector made %d detections, congest.Detect %d",
			len(got.Detections), len(want.Detections))
	}
	for i := range got.Detections {
		g, w := got.Detections[i], want.Detections[i]
		if !reflect.DeepEqual(g.Raw, w.Raw) || !reflect.DeepEqual(g.Assigned, w.Assigned) {
			t.Fatalf("detection %d: communities differ", i)
		}
		if g.Stats != w.Stats.CommunityStats {
			t.Fatalf("detection %d: stats %+v vs %+v", i, g.Stats, w.Stats.CommunityStats)
		}
	}
	m, ok := d.CongestMetrics()
	if !ok || m.Rounds != want.Metrics.Rounds || m.Messages != want.Metrics.Messages {
		t.Fatalf("congest metrics %+v (ok=%v), want %+v", m, ok, want.Metrics)
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
// context.Canceled, on the solo and the parallel walkers.
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

// TestSettingsCongestTranslation: the shared options translate losslessly
// into congest.Config.
func TestSettingsCongestTranslation(t *testing.T) {
	s, err := Resolve(1000,
		WithDelta(0.25), WithMinCommunitySize(7), WithMaxWalkLength(33),
		WithPatience(2), WithSeed(99), WithCongestWorkers(3),
		WithTreeDepthLimit(12), WithMixingThreshold(0.2), WithGrowthFactor(1.5),
		WithCongestBatch(6))
	if err != nil {
		t.Fatal(err)
	}
	got := s.CongestConfig()
	want := congest.Config{
		Delta: 0.25, MinCommunitySize: 7, MaxWalkLength: 33, Patience: 2,
		Seed: 99, Workers: 3, TreeDepthLimit: 12,
		MixingThreshold: 0.2, GrowthFactor: 1.5, Batch: 6,
	}
	if got != want {
		t.Fatalf("translated config %+v, want %+v", got, want)
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
