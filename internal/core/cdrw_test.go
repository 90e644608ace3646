package core

import (
	"errors"
	"sort"
	"testing"

	"cdrw/internal/gen"
	"cdrw/internal/graph"
	"cdrw/internal/metrics"
	"cdrw/internal/rng"
)

func gnpGraph(t *testing.T, n int, seed uint64) *graph.Graph {
	t.Helper()
	p := 2 * gen.Log2(n) / float64(n)
	g, err := gen.Gnp(n, p, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func ppmGraph(t *testing.T, blockSize, r int, pFac, qNum float64, seed uint64) *gen.PPM {
	t.Helper()
	s := float64(blockSize)
	cfg := gen.PPMConfig{
		N: blockSize * r,
		R: r,
		P: pFac * gen.Log2(blockSize) / s,
		Q: qNum / s,
	}
	ppm, err := gen.NewPPM(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ppm
}

func TestDetectCommunityGnpFindsWholeGraph(t *testing.T) {
	g := gnpGraph(t, 512, 1)
	com, stats, err := DetectCommunity(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := metrics.Recall(com, allVertices(512))
	if f < 0.97 {
		t.Fatalf("Gnp community covers only %v of the graph", f)
	}
	if stats.WalkLength == 0 || stats.FinalSetSize != len(com) {
		t.Fatalf("stats inconsistent: %+v vs |C|=%d", stats, len(com))
	}
}

func TestDetectCommunityFindsPlantedBlock(t *testing.T) {
	ppm := ppmGraph(t, 512, 2, 2, 0.1, 3)
	truth := ppm.TruthCommunities()
	// Seed in block 1.
	seed := 700
	com, _, err := DetectCommunity(ppm.Graph, seed, WithDelta(ppm.Config.ExpectedConductance()))
	if err != nil {
		t.Fatal(err)
	}
	f := metrics.FScore(com, truth[ppm.Truth[seed]])
	if f < 0.85 {
		t.Fatalf("F-score %v for planted block detection, want ≥0.85", f)
	}
}

func TestDetectCommunitySeedAlwaysIncluded(t *testing.T) {
	ppm := ppmGraph(t, 256, 2, 2, 0.1, 5)
	for _, seed := range []int{0, 100, 300, 511} {
		com, _, err := DetectCommunity(ppm.Graph, seed, WithDelta(ppm.Config.ExpectedConductance()))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, v := range com {
			if v == seed {
				found = true
				break
			}
		}
		if !found {
			// The mixing set is defined around the seed; by the time the
			// walk has mixed on the community the seed must carry roughly
			// stationary mass and be selected. Regression guard.
			t.Fatalf("seed %d missing from its own community (|C|=%d)", seed, len(com))
		}
	}
}

func TestDetectCommunityErrors(t *testing.T) {
	g := gnpGraph(t, 64, 1)
	if _, _, err := DetectCommunity(g, -1); !errors.Is(err, graph.ErrVertexOutOfRange) {
		t.Fatalf("negative seed: %v", err)
	}
	if _, _, err := DetectCommunity(g, 64); !errors.Is(err, graph.ErrVertexOutOfRange) {
		t.Fatalf("overflow seed: %v", err)
	}
	if _, _, err := DetectCommunity(g, 0, WithDelta(-1)); err == nil {
		t.Fatal("negative delta accepted")
	}
	if _, _, err := DetectCommunity(g, 0, WithMaxWalkLength(0)); err == nil {
		t.Fatal("zero walk length accepted")
	}
	if _, _, err := DetectCommunity(g, 0, WithMinCommunitySize(0)); err == nil {
		t.Fatal("zero min size accepted")
	}
	if _, _, err := DetectCommunity(g, 0, WithPatience(0)); err == nil {
		t.Fatal("zero patience accepted")
	}
}

func TestDetectCommunitySingletonFallback(t *testing.T) {
	// A path is so poorly connected that no mixing set of size ≥ 4 exists
	// within the length cap; the algorithm must fall back to {s} rather
	// than fail.
	b := graph.NewBuilder(16)
	for i := 0; i+1 < 16; i++ {
		b.AddEdge(i, i+1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	com, stats, err := DetectCommunity(g, 8, WithMinCommunitySize(8), WithMaxWalkLength(3))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stopped {
		t.Fatal("stop rule fired without any mixing set")
	}
	if len(com) != 1 || com[0] != 8 {
		t.Fatalf("fallback community = %v, want [8]", com)
	}
}

func TestDetectPartitionsGraph(t *testing.T) {
	ppm := ppmGraph(t, 256, 2, 2, 0.1, 7)
	res, err := Detect(ppm.Graph, WithDelta(ppm.Config.ExpectedConductance()), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	n := ppm.Graph.NumVertices()
	seen := make([]bool, n)
	for i, det := range res.Detections {
		// A cached Result retains every piece, so none carries spare
		// capacity.
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
			t.Fatalf("vertex %d never assigned", v)
		}
	}
	labels := res.Labels(n)
	for v, l := range labels {
		if l < 0 {
			t.Fatalf("vertex %d unlabeled", v)
		}
	}
	if got := len(res.Partition()); got != len(res.Detections) {
		t.Fatalf("partition has %d pieces for %d detections", got, len(res.Detections))
	}
}

func TestDetectAccuracyOnPPM(t *testing.T) {
	ppm := ppmGraph(t, 512, 2, 2, 0.1, 13)
	res, err := Detect(ppm.Graph, WithDelta(ppm.Config.ExpectedConductance()), WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}
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
	if f < 0.85 {
		t.Fatalf("total F-score %v on easy PPM, want ≥0.85", f)
	}
}

func TestDetectDeterministicWithSeed(t *testing.T) {
	ppm := ppmGraph(t, 128, 2, 2, 0.1, 19)
	r1, err := Detect(ppm.Graph, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Detect(ppm.Graph, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Detections) != len(r2.Detections) {
		t.Fatal("same seed produced different detection counts")
	}
	for i := range r1.Detections {
		a, b := r1.Detections[i].Raw, r2.Detections[i].Raw
		if len(a) != len(b) {
			t.Fatalf("detection %d sizes differ", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("detection %d differs at %d", i, j)
			}
		}
	}
}

func TestDetectRawSorted(t *testing.T) {
	ppm := ppmGraph(t, 128, 2, 2, 0.1, 23)
	res, err := Detect(ppm.Graph, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, det := range res.Detections {
		if len(det.Raw) > 1 && !sort.IntsAreSorted(det.Raw) {
			t.Fatalf("detection %d raw set not sorted", i)
		}
	}
}

func TestDetectGnpSingleCommunityDominates(t *testing.T) {
	g := gnpGraph(t, 512, 29)
	res, err := Detect(g, WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	// The first detection should grab (nearly) the whole graph; stragglers
	// may form tiny extra communities.
	if len(res.Detections[0].Assigned) < 480 {
		t.Fatalf("first community has %d of 512 vertices", len(res.Detections[0].Assigned))
	}
}

func TestWithPatienceToleratesPlateaus(t *testing.T) {
	ppm := ppmGraph(t, 256, 2, 2, 0.6, 37)
	seed := 10
	com1, _, err := DetectCommunity(ppm.Graph, seed, WithDelta(ppm.Config.ExpectedConductance()), WithPatience(1))
	if err != nil {
		t.Fatal(err)
	}
	com3, _, err := DetectCommunity(ppm.Graph, seed, WithDelta(ppm.Config.ExpectedConductance()), WithPatience(3))
	if err != nil {
		t.Fatal(err)
	}
	// Higher patience can only postpone the stop, so the detected set is at
	// least as large.
	if len(com3) < len(com1) {
		t.Fatalf("patience 3 shrank the community: %d < %d", len(com3), len(com1))
	}
}

func TestDefaultDeltaStopsOnGnp(t *testing.T) {
	// With the default δ the algorithm must terminate on a plain random
	// graph well before the length cap and report the stop rule fired.
	g := gnpGraph(t, 1024, 41)
	_, stats, err := DetectCommunity(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Stopped {
		t.Fatal("stop rule never fired on Gnp")
	}
	if stats.WalkLength > 20 {
		t.Fatalf("walk ran %d steps on an expander, expected early stop", stats.WalkLength)
	}
}

func TestSizesCheckedAccounting(t *testing.T) {
	g := gnpGraph(t, 256, 43)
	_, stats, err := DetectCommunity(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SizesChecked <= 0 {
		t.Fatal("SizesChecked not accounted")
	}
	// Per step at most the full ladder is checked.
	maxPerStep := len(sizeLadderForTest(9, 256)) // minSize=ceil(log2(257))=9
	if stats.SizesChecked > stats.WalkLength*maxPerStep {
		t.Fatalf("SizesChecked %d exceeds %d steps × %d sizes", stats.SizesChecked, stats.WalkLength, maxPerStep)
	}
}

func allVertices(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func sizeLadderForTest(minSize, n int) []int {
	// Mirror of rw.SizeLadder growth for bounds checking.
	var ladder []int
	size := minSize
	for {
		ladder = append(ladder, size)
		if size >= n {
			break
		}
		next := size + size/22 // ≈ size·(1+1/8e) lower bound
		if next <= size {
			next = size + 1
		}
		if next > n {
			next = n
		}
		size = next
	}
	return ladder
}
