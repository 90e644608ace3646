package core

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"cdrw/internal/gen"
	"cdrw/internal/rng"
	"cdrw/internal/rw"
)

// legacyDetectCommunity is the pre-engine reference implementation of the
// Algorithm 1 single-seed loop: a plain dense rw.Step walk, swept on a
// Sweeper's dense path (nil support), feeding the same stop rule. It pins
// down the behaviour DetectCommunity had before the hybrid engine so the
// refactor is provably output-preserving; rw's own tests pin that sweep to
// the O(n)-per-size reference along walk trajectories.
func legacyDetectCommunity(t *testing.T, g *gen.PPM, s int, cfg config) ([]int, CommunityStats) {
	t.Helper()
	n := g.Graph.NumVertices()
	stats := CommunityStats{Seed: s}
	p, next := make(rw.Dist, n), make(rw.Dist, n)
	p[s] = 1
	sw := rw.NewSweeper(g.Graph)
	var prev rw.MixingSet
	stalled := 0
	for l := 1; l <= cfg.maxLen; l++ {
		stats.WalkLength = l
		p, next = rw.Step(g.Graph, p, next), p
		cur, err := sw.LargestMixingSet(p, nil, cfg.minSize, cfg.mix)
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
			// The sweeper's result aliases its storage until the next sweep.
			cur.Vertices = slices.Clone(cur.Vertices)
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

// TestDetectParallelMatchesSoloDetections: the parallel engine's schedule
// never changes a Result, and each walk's detection is the solo one of its
// seed. At GOMAXPROCS 1, 2 and 4 — also with r = 8, more seeds than
// workers, so one worker claims several — the whole Result (Raw, Assigned
// and Stats of every detection) is the same on fresh detectors and on one
// detector reused across the three. Its first r detections equal what
// DetectCommunity returns for their seeds; any further ones are singleton
// fillers for unclaimed vertices.
func TestDetectParallelMatchesSoloDetections(t *testing.T) {
	ppm := regressPPM(t, 17)
	delta := ppm.Config.ExpectedConductance()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, r := range []int{ppm.Config.R, 8} {
		opts := []Option{WithDelta(delta), WithSeed(5)}
		reused, err := NewDetector(ppm.Graph, append(opts, WithEngine(EngineParallel), WithCommunityEstimate(r))...)
		if err != nil {
			t.Fatal(err)
		}
		var want *Result
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			fresh, err := DetectParallel(ppm.Graph, r, opts...)
			if err != nil {
				t.Fatal(err)
			}
			again, err := reused.Detect(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = fresh
			}
			if !reflect.DeepEqual(fresh, want) || !reflect.DeepEqual(again, want) {
				t.Fatalf("r=%d GOMAXPROCS=%d: Result differs from the GOMAXPROCS=1 run", r, procs)
			}
		}
		for i, det := range want.Detections {
			if i >= r {
				v := det.Stats.Seed
				filler := Detection{Raw: []int{v}, Assigned: []int{v}, Stats: CommunityStats{Seed: v, FinalSetSize: 1}}
				if !reflect.DeepEqual(det, filler) {
					t.Fatalf("r=%d detection %d: %+v is no singleton filler", r, i, det)
				}
				continue
			}
			solo, stats, err := DetectCommunity(ppm.Graph, det.Stats.Seed, WithDelta(delta))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(det.Raw, solo) {
				t.Fatalf("r=%d seed %d: parallel raw community differs from solo", r, det.Stats.Seed)
			}
			if det.Stats != stats {
				t.Fatalf("r=%d seed %d: parallel stats %+v differ from solo %+v", r, det.Stats.Seed, det.Stats, stats)
			}
		}
	}
}
