package congest

import (
	"testing"

	"cdrw/internal/gen"
	"cdrw/internal/rng"
)

// TestDepthLimitedDetectionMatchesUnbounded: the paper builds the BFS tree
// with depth O(log n) (Algorithm 1 line 5) relying on the PPM's logarithmic
// diameter. On such graphs the depth-limited tree covers everything, so
// detection must be identical to the unbounded-tree run.
func TestDepthLimitedDetectionMatchesUnbounded(t *testing.T) {
	cfgGen := gen.PPMConfig{N: 256, R: 2, P: 2 * gen.Log2(128) / 128, Q: 0.1 / 128}
	ppm, err := gen.NewPPM(cfgGen, rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	if !ppm.Graph.IsConnected() {
		t.Skip("sample disconnected")
	}
	diam := ppm.Graph.Diameter()
	cfg := testConfig(256)
	cfg.Delta = cfgGen.ExpectedConductance()

	unbounded, _, err := DetectCommunity(NewNetwork(ppm.Graph), 7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TreeDepthLimit = diam + 1 // "O(log n)" in the PPM regime
	limited, stats, err := DetectCommunity(NewNetwork(ppm.Graph), 7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TreeDepth > diam {
		t.Fatalf("tree depth %d exceeds diameter %d", stats.TreeDepth, diam)
	}
	if len(limited) != len(unbounded) {
		t.Fatalf("depth-limited |C|=%d, unbounded |C|=%d", len(limited), len(unbounded))
	}
	for i := range limited {
		if limited[i] != unbounded[i] {
			t.Fatalf("communities differ at %d", i)
		}
	}
}

// TestDepthLimitTooSmallStillTerminates: an aggressive depth limit cuts the
// tree short; detection must degrade gracefully (smaller covered set, no
// error, community restricted to covered vertices).
func TestDepthLimitTooSmallStillTerminates(t *testing.T) {
	cfgGen := gen.PPMConfig{N: 256, R: 2, P: 2 * gen.Log2(128) / 128, Q: 0.1 / 128}
	ppm, err := gen.NewPPM(cfgGen, rng.New(47))
	if err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork(ppm.Graph)
	cfg := testConfig(256)
	cfg.Delta = cfgGen.ExpectedConductance()
	cfg.TreeDepthLimit = 1 // only the seed's direct neighbourhood
	com, stats, err := DetectCommunity(nw, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TreeDepth > 1 {
		t.Fatalf("tree depth %d with limit 1", stats.TreeDepth)
	}
	covered := 1 + ppm.Graph.Degree(0)
	if len(com) > covered {
		t.Fatalf("community (%d) larger than covered set (%d)", len(com), covered)
	}
}
