package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"cdrw/internal/gen"
	"cdrw/internal/rng"
	"cdrw/internal/rw"
)

// legacyDetectCommunity is the pre-engine reference implementation of the
// Algorithm 1 single-seed loop: a plain dense rw.Step walk feeding the same
// stop rule. It pins down the behaviour DetectCommunity had before the
// hybrid engine so the refactor is provably output-preserving.
func legacyDetectCommunity(t *testing.T, g *gen.PPM, s int, cfg config) ([]int, CommunityStats) {
	t.Helper()
	n := g.Graph.NumVertices()
	stats := CommunityStats{Seed: s}
	p, err := rw.NewPointDist(n, s)
	if err != nil {
		t.Fatal(err)
	}
	next := make(rw.Dist, n)
	var prev rw.MixingSet
	stalled := 0
	for l := 1; l <= cfg.maxLen; l++ {
		stats.WalkLength = l
		p, next = rw.Step(g.Graph, p, next), p
		cur, err := rw.LargestMixingSetOpt(g.Graph, p, cfg.minSize, cfg.mix)
		if err != nil {
			t.Fatal(err)
		}
		stats.SizesChecked += cur.SizesChecked
		if prev.Found() && cur.Found() {
			grown := float64(cur.Size()) >= (1+cfg.delta)*float64(prev.Size())
			if !grown {
				stalled++
				if stalled >= cfg.patience {
					stats.Stopped = true
					out := rw.WithSeed(nil, prev.Vertices, s)
					stats.FinalSetSize = len(out)
					return out, stats
				}
				continue
			}
			stalled = 0
		}
		if cur.Found() {
			prev = cur
			stats.FrozenAt = l
		}
	}
	if prev.Found() {
		stats.FinalSetSize = len(rw.WithSeed(nil, prev.Vertices, s))
		return rw.WithSeed(nil, prev.Vertices, s), stats
	}
	stats.FinalSetSize = 1
	return []int{s}, stats
}

func regressPPM(t testing.TB, seed uint64) *gen.PPM {
	t.Helper()
	r := rng.New(seed)
	cfg := gen.PPMConfig{
		N: 128 + 32*r.Intn(4),
		R: 2 + r.Intn(3),
		P: 0.15 + 0.2*r.Float64(),
		Q: 0.005 * r.Float64(),
	}
	cfg.N -= cfg.N % cfg.R
	ppm, err := gen.NewPPM(cfg, r.Split())
	if err != nil {
		t.Fatalf("PPM(%+v): %v", cfg, err)
	}
	return ppm
}

// TestDetectCommunityMatchesLegacyProperty: for random PPM graphs and seeds,
// the engine-backed DetectCommunity returns exactly the community and stats
// of the legacy dense step loop.
func TestDetectCommunityMatchesLegacyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		ppm := regressPPM(t, seed)
		r := rng.New(seed ^ 0xda942042e4dd58b5)
		s := r.Intn(ppm.Graph.NumVertices())
		delta := ppm.Config.ExpectedConductance()

		cfg := defaultConfig(ppm.Graph.NumVertices())
		cfg.delta = delta
		wantSet, wantStats := legacyDetectCommunity(t, ppm, s, cfg)

		gotSet, gotStats, err := DetectCommunity(ppm.Graph, s, WithDelta(delta))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotSet, wantSet) {
			t.Logf("seed %d source %d: community differs (%d vs %d vertices)", seed, s, len(gotSet), len(wantSet))
			return false
		}
		if gotStats != wantStats {
			t.Logf("seed %d source %d: stats differ: %+v vs %+v", seed, s, gotStats, wantStats)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestDetectParallelMatchesSoloDetections: every detection of the lockstep
// batched DetectParallel equals what DetectCommunity returns for the same
// seed — the batch engine and per-walk trackers change the schedule, never
// the result.
func TestDetectParallelMatchesSoloDetections(t *testing.T) {
	ppm := regressPPM(t, 17)
	delta := ppm.Config.ExpectedConductance()
	res, err := DetectParallel(ppm.Graph, ppm.Config.R, WithDelta(delta), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, det := range res.Detections {
		if len(det.Raw) == 1 && det.Stats.WalkLength == 0 {
			continue // singleton filler for an unclaimed vertex, no walk ran
		}
		solo, stats, err := DetectCommunity(ppm.Graph, det.Stats.Seed, WithDelta(delta))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(det.Raw, solo) {
			t.Fatalf("seed %d: batched raw community differs from solo", det.Stats.Seed)
		}
		if det.Stats != stats {
			t.Fatalf("seed %d: batched stats %+v differ from solo %+v", det.Stats.Seed, det.Stats, stats)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no real detections to compare")
	}
}
