package congest

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cdrw/internal/gen"
	"cdrw/internal/graph"
	"cdrw/internal/rng"
	"cdrw/internal/rw"
)

// settleGoroutines polls until the goroutine count drops back to the
// baseline (cancelled worker pools need a moment to observe ctx and unwind).
// Same pattern as internal/core/leak_test.go.
func settleGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s leaked goroutines: %d running, baseline %d",
				what, runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatchCancellationLeaksNoGoroutines: cancelling mid-batch — from a load
// observer, while the 4-goroutine per-round worker pool is in use — tears
// the batched run down with ctx.Err() and no goroutine leaks, for both
// DetectBatch and the batched pool loop. Cancelling mid-ladder, on 4 ladder
// workers, does the same: a sweep started under a cancelled context stops
// within one broadcast + convergecast pair, and a timer cancels while the
// workers compute.
func TestBatchCancellationLeaksNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfgGen := gen.PPMConfig{N: 512, R: 4, P: 2 * gen.Log2(128) / 128, Q: 0.1 / 128}
	ppm, err := gen.NewPPM(cfgGen, rng.New(211))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(512)
	cfg.Delta = cfgGen.ExpectedConductance()
	cfg.Workers = 4
	base := runtime.NumGoroutine()

	// DetectBatch: cancel once the batch has a few shared rounds in flight.
	{
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		nw := NewNetwork(ppm.Graph, cfg.Workers)
		rounds := 0
		nw.SetLoadObserver(func(int, []LinkLoad) {
			if rounds++; rounds == 3 {
				cancel()
			}
		})
		_, err := DetectBatchContext(ctx, nw, []int{0, 128, 256, 384}, cfg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("DetectBatch: error %v, want context.Canceled", err)
		}
		settleGoroutines(t, base, "DetectBatch cancellation")
	}

	// Batched pool loop: cancel mid-run the same way.
	{
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		nw := NewNetwork(ppm.Graph, cfg.Workers)
		rounds := 0
		nw.SetLoadObserver(func(int, []LinkLoad) {
			if rounds++; rounds == 5 {
				cancel()
			}
		})
		bcfg := cfg
		bcfg.Batch = 4
		_, err := DetectContext(ctx, nw, bcfg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("batched Detect: error %v, want context.Canceled", err)
		}
		settleGoroutines(t, base, "batched pool cancellation")
	}

	// Mid-ladder, a lone sweep inside a one-lane phase under a context
	// cancelled before it starts: the ladder workers abandon their sizes and
	// the replay charges at most one broadcast + convergecast pair.
	{
		ctx, cancel := context.WithCancel(context.Background())
		flood := soloNetwork(ppm.Graph, 1)
		p, next := make(rw.Dist, 512), make(rw.Dist, 512)
		p[0] = 1
		for step := 0; step < 4; step++ {
			p, next = floodOnce(flood, p, next)
		}
		nw := soloNetwork(ppm.Graph, cfg.Workers)
		tree, err := nw.buildTree(0, -1)
		if err != nil {
			t.Fatal(err)
		}
		before := soloMetrics(nw).Rounds
		cancel()
		nw.setContext(ctx)
		ladder := rw.SizeLadder(cfg.MinCommunitySize, 512)
		_, err = nw.largestMixingSet(tree, tree.CoveredVertices(), p, ladder, rw.MixingThreshold)
		nw.setContext(nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled sweep: error %v, want context.Canceled", err)
		}
		if after, limit := soloMetrics(nw).Rounds-before, 2*tree.MaxDepth(); after > limit {
			t.Fatalf("sweep ran %d rounds after the cancellation, want at most %d", after, limit)
		}
		settleGoroutines(t, base, "mid-ladder cancellation")
	}

	// Mid-ladder, while the workers compute: the ladders dominate a
	// detection's time, so timed cancellations land in them.
	for _, d := range []time.Duration{100 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(d, cancel)
		nw := NewNetwork(ppm.Graph, cfg.Workers)
		_, err := DetectBatchContext(ctx, nw, []int{0, 128, 256, 384}, cfg)
		timer.Stop()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("DetectBatch cancelled after %v: error %v, want context.Canceled", d, err)
		}
		settleGoroutines(t, base, "timed cancellation")
	}
}

// TestLadderLoadsMatchSequentialReference: the concurrent ladder charges
// exactly the communication of the sequential sweep it replaced
// (largestMixingSetReference), whose collectives send message by message.
// With a load observer on each of two one-lane networks and 4 ladder
// workers, every walk step's sweep — on the indexed path under a spanning
// tree and on the covered-scan path under a depth-limited one — must return
// the same mixing set and the same metrics, and the observers must see the
// same link loads, round by round.
func TestLadderLoadsMatchSequentialReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfgGen := gen.PPMConfig{N: 256, R: 2, P: 2 * gen.Log2(128) / 128, Q: 0.1 / 128}
	ppm, err := gen.NewPPM(cfgGen, rng.New(37))
	if err != nil {
		t.Fatal(err)
	}
	g := ppm.Graph
	n := g.NumVertices()
	if !g.IsConnected() {
		t.Skip("sample disconnected")
	}
	ladder := rw.SizeLadder(DefaultConfig(n).MinCommunitySize, n)
	for _, depth := range []int{-1, 2} {
		for _, seed := range []int{3, 200} {
			var got, want []observedRound
			nw, ref := soloNetwork(g, 1), soloNetwork(g, 1)
			nw.SetLoadObserver(recordRounds(&got))
			ref.SetLoadObserver(recordRounds(&want))
			tree, err := nw.buildTree(seed, depth)
			if err != nil {
				t.Fatal(err)
			}
			refTree, err := ref.buildTree(seed, depth)
			if err != nil {
				t.Fatal(err)
			}
			covered := tree.CoveredVertices()
			if indexed := len(covered) == n; indexed != (depth < 0) {
				t.Fatalf("depth %d covers %d of %d vertices", depth, len(covered), n)
			}
			flood := soloNetwork(g, 1)
			p, next := make(rw.Dist, n), make(rw.Dist, n)
			p[seed] = 1
			x := make([]float64, n)
			found := 0
			for step := 1; step <= 10; step++ {
				p, next = floodOnce(flood, p, next)
				set, err := nw.largestMixingSet(tree, covered, p, ladder, rw.MixingThreshold)
				if err != nil {
					t.Fatal(err)
				}
				wantSet, err := ref.largestMixingSetReference(refTree, covered, p, x, ladder, rw.MixingThreshold)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(set, wantSet) {
					t.Fatalf("depth %d seed %d step %d: set %v, sequential reference %v", depth, seed, step, set, wantSet)
				}
				if m, refM := soloMetrics(nw), soloMetrics(ref); m != refM {
					t.Fatalf("depth %d seed %d step %d: metrics %+v, sequential reference %+v", depth, seed, step, m, refM)
				}
				if set.Found() {
					found++
				}
			}
			if found == 0 {
				t.Fatalf("depth %d seed %d: no step found a mixing set; the comparison never reached membership", depth, seed)
			}
			if len(got) != len(want) {
				t.Fatalf("depth %d seed %d: observer saw %d rounds, sequential reference %d", depth, seed, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("depth %d seed %d: round %d loads differ: %+v vs %+v", depth, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDetectBatchValidation: bad config and out-of-range seeds are rejected
// before any round is simulated; an empty batch is a no-op.
func TestDetectBatchValidation(t *testing.T) {
	g := pathGraph(t, 8)
	nw := NewNetwork(g, 1)
	cfg := DefaultConfig(8)
	if _, err := DetectBatch(nw, []int{0, 99}, cfg); err == nil {
		t.Fatal("out-of-range batch seed accepted")
	}
	bad := cfg
	bad.Batch = -1
	if _, err := Detect(nw, bad); err == nil {
		t.Fatal("negative batch size accepted")
	}
	dets, err := DetectBatch(nw, nil, cfg)
	if err != nil || dets != nil {
		t.Fatalf("empty batch: dets=%v err=%v", dets, err)
	}
	if nw.Metrics().Rounds != 0 {
		t.Fatalf("validation consumed %d rounds", nw.Metrics().Rounds)
	}
}

// TestBatchObserversSeeAllMessages: on a batched run, the load observer sees
// every message as link words, matching the network's global accounting and
// the per-walk lane totals, and one call per shared round.
func TestBatchObserversSeeAllMessages(t *testing.T) {
	g := gnpGraph(t, 192, 23)
	nw := NewNetwork(g, 1)
	var words int64
	loadRounds, lastRound := 0, 0
	nw.SetLoadObserver(func(round int, loads []LinkLoad) {
		loadRounds++
		if round != lastRound+1 {
			t.Fatalf("load observer saw round %d after %d", round, lastRound)
		}
		lastRound = round
		for _, ld := range loads {
			words += int64(ld.Words)
		}
	})
	cfg := DefaultConfig(192)
	dets, err := DetectBatch(nw, []int{0, 50, 100}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var laneSum int64
	for _, det := range dets {
		laneSum += det.Stats.Metrics.Messages
	}
	m := nw.Metrics()
	if words != m.Messages || laneSum != m.Messages {
		t.Fatalf("observer saw words=%d lanes=%d, metrics say %d", words, laneSum, m.Messages)
	}
	if loadRounds != m.Rounds {
		t.Fatalf("observer saw %d rounds, metrics say %d", loadRounds, m.Rounds)
	}
}

// TestSelectIndexedMatchesScan is the satellite equivalence test for the
// degree-indexed selection: on flooded walk distributions over Gnp graphs,
// selectIndexed must return the same threshold key, the same success flag
// and the same iteration-for-iteration communication cost as the
// covered-scan search, its canonical sum must equal canonicalCoveredSum of
// the scan's threshold, and all of it must equal the sequential indexed
// search it replaced (selectKSmallestIndexedReference).
func TestSelectIndexedMatchesScan(t *testing.T) {
	for _, seed := range []uint64{7, 31} {
		g := gnpGraph(t, 200, seed)
		n := g.NumVertices()
		scanNW := soloNetwork(g, 1)
		idxNW := soloNetwork(g, 1)
		refNW := soloNetwork(g, 1)
		tree, err := scanNW.buildTree(0, -1)
		if err != nil {
			t.Fatal(err)
		}
		if tree.Size() != n {
			t.Skip("sample disconnected; the indexed path needs full coverage")
		}
		tree2, err := idxNW.buildTree(0, -1)
		if err != nil {
			t.Fatal(err)
		}
		tree3, err := refNW.buildTree(0, -1)
		if err != nil {
			t.Fatal(err)
		}
		covered := tree.CoveredVertices()
		p, next := make(rw.Dist, n), make(rw.Dist, n)
		p[0] = 1
		x := make([]float64, n)
		var off rw.OffSupportStream
		for step := 0; step < 6; step++ {
			p, next = floodOnce(scanNW, p, next)
			var support []int32
			for v := 0; v < n; v++ {
				if p[v] != 0 {
					support = append(support, int32(v))
				}
			}
			off.Reset(idxNW.degreeIndex(), support)
			for _, size := range []int{2, 8, 40, 150, 199, 200} {
				muPrime := rw.MuPrime(g, size)
				for u := 0; u < n; u++ {
					x[u] = rw.XValueAt(g, p, u, size, muPrime)
				}
				before := soloMetrics(scanNW)
				scanTh, _, scanOK := scanNW.selectKSmallest(tree, covered, x, size)
				scanCost := soloMetrics(scanNW)
				scanCost.Rounds -= before.Rounds
				scanCost.Messages -= before.Messages

				before = soloMetrics(idxNW)
				idxTh, idxSum, idxOK := idxNW.selectKSmallestIndexed(tree2, p, support, &off, muPrime, size)
				idxCost := soloMetrics(idxNW)
				idxCost.Rounds -= before.Rounds
				idxCost.Messages -= before.Messages

				off.SetMu(muPrime)
				xsup := make([]float64, len(support))
				for i, v := range support {
					xsup[i] = rw.XValueAt(g, p, int(v), size, muPrime)
				}
				before = soloMetrics(refNW)
				refTh, refSum, refOK := refNW.selectKSmallestIndexedReference(tree3, support, xsup, &off, muPrime, size)
				refCost := soloMetrics(refNW)
				refCost.Rounds -= before.Rounds
				refCost.Messages -= before.Messages
				if refTh != idxTh || refSum != idxSum || refOK != idxOK || refCost != idxCost {
					t.Fatalf("seed %d step %d size %d: selection (%+v, %v, %v, %+v), sequential reference (%+v, %v, %v, %+v)",
						seed, step, size, idxTh, idxSum, idxOK, idxCost, refTh, refSum, refOK, refCost)
				}

				if scanOK != idxOK {
					t.Fatalf("seed %d step %d size %d: ok %v vs %v", seed, step, size, scanOK, idxOK)
				}
				if !scanOK {
					continue
				}
				if scanTh != idxTh {
					t.Fatalf("seed %d step %d size %d: threshold %+v vs %+v", seed, step, size, scanTh, idxTh)
				}
				if scanCost != idxCost {
					t.Fatalf("seed %d step %d size %d: cost %+v vs %+v — the searches diverged",
						seed, step, size, scanCost, idxCost)
				}
				wantSum := canonicalCoveredSum(g, p, covered, x, scanTh, muPrime, size)
				if idxSum != wantSum {
					t.Fatalf("seed %d step %d size %d: canonical sum %v vs %v", seed, step, size, idxSum, wantSum)
				}
			}
		}
	}
}

// TestCanonicalSumMatchesSweeper: fed the very same distribution, the
// CONGEST mixing-set search and the in-memory sparse sweep return exactly
// the same set — the two engines now share the statistic (rw.XValueAt) and
// its summation (rw.MixingSum) bit for bit, so every per-size threshold
// decision coincides.
func TestCanonicalSumMatchesSweeper(t *testing.T) {
	g := gnpGraph(t, 128, 3)
	if !g.IsConnected() {
		t.Skip("sample disconnected")
	}
	n := g.NumVertices()
	nw := soloNetwork(g, 1)
	tree, err := nw.buildTree(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	covered := tree.CoveredVertices()
	sweeper := rw.NewSweeper(g)
	const minSize = 6
	ladder := rw.SizeLadder(minSize, n)
	for _, steps := range []int{1, 2, 4, 8} {
		p, err := rw.Walk(g, 0, steps)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sweeper.LargestMixingSet(p, nil, minSize, rw.MixOptions{})
		if err != nil {
			t.Fatal(err)
		}
		set, err := nw.largestMixingSet(tree, covered, p, ladder, rw.MixingThreshold)
		if err != nil {
			t.Fatal(err)
		}
		if want.Found() != set.Found() {
			t.Fatalf("steps %d: engines disagree on finding a set (core %v, congest %v)",
				steps, want.Found(), set.Found())
		}
		if set.SizesChecked != want.SizesChecked {
			t.Fatalf("steps %d: sizes checked differ: congest %d core %d", steps, set.SizesChecked, want.SizesChecked)
		}
		if !set.Found() {
			continue
		}
		if set.Size() != want.Size() {
			t.Fatalf("steps %d: set sizes differ: congest %d core %d", steps, set.Size(), want.Size())
		}
		for i, v := range set.Vertices {
			if v != want.Vertices[i] {
				t.Fatalf("steps %d: sets differ at %d: %d vs %d", steps, i, v, want.Vertices[i])
			}
		}
	}
}

// cliqueRow builds k disjoint cliques of c vertices each (clique i holds
// vertices [i·c, (i+1)·c)) — the straggler-tail fixture: a pool that is
// small in total but splits into many components.
func cliqueRow(t *testing.T, k, c int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(k * c)
	for blk := 0; blk < k; blk++ {
		base := blk * c
		for u := 0; u < c; u++ {
			for v := u + 1; v < c; v++ {
				b.AddEdge(base+u, base+v)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPoolComponents: the tail's component labelling respects the assigned
// mask — assigned vertices neither receive labels nor connect pool pieces.
func TestPoolComponents(t *testing.T) {
	// Path 0-1-2-3-4: assigning the middle vertex splits the pool in two.
	b := graph.NewBuilder(5)
	for v := 0; v < 4; v++ {
		b.AddEdge(v, v+1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	assigned := make([]bool, 5)
	comp := make([]int, 5)
	var queue []int
	if comps := poolComponents(g, []int{0, 1, 2, 3, 4}, assigned, comp, queue); comps != 1 {
		t.Fatalf("intact path: %d components, want 1", comps)
	}
	assigned[2] = true
	pool := []int{0, 1, 3, 4}
	if comps := poolComponents(g, pool, assigned, comp, queue); comps != 2 {
		t.Fatalf("split path: %d components, want 2", comps)
	}
	if comp[0] != comp[1] || comp[3] != comp[4] || comp[0] == comp[3] {
		t.Fatalf("split path labels %v, want {0,1} and {3,4} in distinct components", comp)
	}
}

// TestBatchedPoolComponentTail: when the whole pool sits below the
// Batch·MinCommunitySize guard but splits into disconnected components, the
// tail batches one seed per component instead of going sequential — every
// detection still bit-identical to a solo run of its seed, the partition
// complete, and the global round count strictly below the sequential loop's.
func TestBatchedPoolComponentTail(t *testing.T) {
	const k, c = 8, 8
	g := cliqueRow(t, k, c)
	cfg := DefaultConfig(k * c)
	cfg.Delta = 0.05

	seq, err := Detect(NewNetwork(g, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Batch far above the pool size: every super-step is a tail super-step.
	cfg.Batch = 32
	bat, err := Detect(NewNetwork(g, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bat.Metrics.Rounds >= seq.Metrics.Rounds {
		t.Fatalf("component tail took %d rounds, sequential %d — no round win",
			bat.Metrics.Rounds, seq.Metrics.Rounds)
	}

	seen := make([]bool, k*c)
	refNW := NewNetwork(g, 1)
	for _, det := range bat.Detections {
		for _, v := range det.Assigned {
			if seen[v] {
				t.Fatalf("vertex %d assigned twice", v)
			}
			seen[v] = true
		}
		want, wantStats, err := DetectCommunity(refNW, det.Stats.Seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(det.Raw, want) {
			t.Fatalf("seed %d: tail community %v != sequential %v", det.Stats.Seed, det.Raw, want)
		}
		if !reflect.DeepEqual(det.Stats, wantStats) {
			t.Fatalf("seed %d: tail stats %+v != sequential %+v", det.Stats.Seed, det.Stats, wantStats)
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("vertex %d unassigned", v)
		}
	}

	again, err := Detect(NewNetwork(g, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bat.Detections, again.Detections) || bat.Metrics != again.Metrics {
		t.Fatal("component-tail pool loop not deterministic")
	}
}
