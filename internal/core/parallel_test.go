package core

import (
	"context"
	"reflect"
	"testing"

	"cdrw/internal/metrics"
	"cdrw/internal/trace"
)

// TestDetectorParallelReuse: repeat Detect runs on one parallel-engine
// Detector (which Resets its retained walk engines and trackers instead of
// rebuilding them) return results identical to fresh Detectors, and earlier
// Results stay intact after later runs — Raw/Assigned must not alias the
// retained tracker buffers.
func TestDetectorParallelReuse(t *testing.T) {
	ppm := ppmGraph(t, 256, 4, 2, 0.1, 51)
	opts := []Option{
		WithDelta(ppm.Config.ExpectedConductance()), WithSeed(3),
		WithEngine(EngineParallel), WithCommunityEstimate(4),
	}
	d, err := NewDetector(ppm.Graph, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := d.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	eq := func(a, b []Detection) bool {
		if len(a) != len(b) {
			return false
		}
		ints := func(x, y []int) bool {
			if len(x) != len(y) {
				return false
			}
			for i := range x {
				if x[i] != y[i] {
					return false
				}
			}
			return true
		}
		for i := range a {
			if !ints(a[i].Raw, b[i].Raw) || !ints(a[i].Assigned, b[i].Assigned) ||
				!reflect.DeepEqual(a[i].Stats, b[i].Stats) {
				return false
			}
		}
		return true
	}
	snapshot := make([]Detection, len(first.Detections))
	for i, det := range first.Detections {
		snapshot[i] = Detection{
			Raw:      append([]int(nil), det.Raw...),
			Assigned: append([]int(nil), det.Assigned...),
			Stats:    det.Stats,
		}
	}
	for run := 0; run < 3; run++ {
		again, err := d.Detect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := DetectParallel(ppm.Graph, 4, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !eq(again.Detections, fresh.Detections) {
			t.Fatalf("run %d: reused detector diverged from a fresh one", run)
		}
	}
	if !eq(first.Detections, snapshot) {
		t.Fatal("first Result mutated by later runs: tracker buffers leaked into it")
	}
}

func TestDetectParallelPartitions(t *testing.T) {
	ppm := ppmGraph(t, 256, 4, 2, 0.1, 51)
	res, err := DetectParallel(ppm.Graph, 4,
		WithDelta(ppm.Config.ExpectedConductance()), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	n := ppm.Graph.NumVertices()
	seen := make([]bool, n)
	for _, det := range res.Detections {
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
}

func TestDetectParallelAccuracy(t *testing.T) {
	ppm := ppmGraph(t, 256, 4, 2, 0.1, 53)
	res, err := DetectParallel(ppm.Graph, 4,
		WithDelta(ppm.Config.ExpectedConductance()), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	labels := res.Labels(ppm.Graph.NumVertices())
	nmi, err := metrics.NMI(labels, ppm.Truth)
	if err != nil {
		t.Fatal(err)
	}
	// Parallel detection trades some accuracy for speed: seeds can land in
	// the same block and overlap resolution is priority-based, so the bar
	// is lower than for the sequential pool loop.
	if nmi < 0.6 {
		t.Fatalf("parallel detection NMI %v, want ≥0.6", nmi)
	}
}

func TestDetectParallelMatchesSequentialQuality(t *testing.T) {
	ppm := ppmGraph(t, 256, 2, 2, 0.1, 57)
	seq, err := Detect(ppm.Graph, WithDelta(ppm.Config.ExpectedConductance()), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	par, err := DetectParallel(ppm.Graph, 2, WithDelta(ppm.Config.ExpectedConductance()), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	n := ppm.Graph.NumVertices()
	nmiSeq, err := metrics.NMI(seq.Labels(n), ppm.Truth)
	if err != nil {
		t.Fatal(err)
	}
	nmiPar, err := metrics.NMI(par.Labels(n), ppm.Truth)
	if err != nil {
		t.Fatal(err)
	}
	// The parallel variant is a speed/quality trade-off; it must stay in
	// the same quality regime as the sequential pool loop.
	if nmiPar < nmiSeq-0.2 {
		t.Fatalf("parallel NMI %v much worse than sequential %v", nmiPar, nmiSeq)
	}
}

func TestDetectParallelValidation(t *testing.T) {
	ppm := ppmGraph(t, 64, 2, 2, 0.1, 59)
	if _, err := DetectParallel(ppm.Graph, 0); err == nil {
		t.Fatal("r=0 accepted")
	}
	if _, err := DetectParallel(ppm.Graph, 1000); err == nil {
		t.Fatal("r>n accepted")
	}
}

func TestDetectParallelDeterministic(t *testing.T) {
	ppm := ppmGraph(t, 128, 2, 2, 0.1, 61)
	a, err := DetectParallel(ppm.Graph, 2, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := DetectParallel(ppm.Graph, 2, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Detections) != len(b.Detections) {
		t.Fatal("parallel detection count differs across runs")
	}
	la := a.Labels(ppm.Graph.NumVertices())
	lb := b.Labels(ppm.Graph.NumVertices())
	for v := range la {
		if la[v] != lb[v] {
			t.Fatalf("parallel labels differ at %d despite same seed", v)
		}
	}
}

func TestDetectParallelSingleSeed(t *testing.T) {
	g := gnpGraph(t, 256, 63)
	res, err := DetectParallel(g, 1, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	// One seed on an expander: the single community grabs almost all
	// vertices; any stragglers are attached by neighbour majority, so the
	// first detection ends up with everything.
	if len(res.Detections[0].Assigned) < 250 {
		t.Fatalf("single-seed parallel detection assigned %d of 256",
			len(res.Detections[0].Assigned))
	}
}

// TestDetectTracesWalkAndSweep: a traced Detect attributes walk and sweep
// time to the request's trace on both in-memory engines, the parallel
// engine's concurrent workers included.
func TestDetectTracesWalkAndSweep(t *testing.T) {
	ppm := ppmGraph(t, 256, 4, 2, 0.1, 51)
	for _, e := range []Engine{EngineReference, EngineParallel} {
		d, err := NewDetector(ppm.Graph, WithDelta(ppm.Config.ExpectedConductance()),
			WithEngine(e), WithCommunityEstimate(4))
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.New("detect", "detect")
		if _, err := d.Detect(trace.NewContext(context.Background(), tr)); err != nil {
			t.Fatal(err)
		}
		if walk, sweep := tr.PhaseNS(trace.PhaseWalk), tr.PhaseNS(trace.PhaseSweep); walk <= 0 || sweep <= 0 {
			t.Fatalf("%v engine: traced walk %d ns and sweep %d ns, want both positive", e, walk, sweep)
		}
	}
}
