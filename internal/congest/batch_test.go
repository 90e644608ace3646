package congest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"cdrw/internal/gen"
	"cdrw/internal/graph"
	"cdrw/internal/rng"
	"cdrw/internal/rw"
)

// settleGoroutines polls until the goroutine count drops back to the
// baseline (cancelled ladder workers need a moment to observe ctx and
// unwind).
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

// TestBatchCancellationLeaksNoGoroutines: cancelling mid-batch from a load
// observer tears the DetectBatch run down with ctx.Err() and no goroutine
// leaks (core's TestCancellationLeaksNoGoroutines does the same to the
// batched pool loop). Cancelling mid-ladder, on 4 ladder workers, does the
// same: a sweep started under a cancelled context stops within one
// broadcast + convergecast pair, and a timer cancels while the workers
// compute.
func TestBatchCancellationLeaksNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfgGen := gen.PPMConfig{N: 512, R: 4, P: 2 * gen.Log2(128) / 128, Q: 0.1 / 128}
	ppm, err := gen.NewPPM(cfgGen, rng.New(211))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(512)
	cfg.Delta = cfgGen.ExpectedConductance()
	base := runtime.NumGoroutine()

	// DetectBatch: cancel once the batch has a few shared rounds in flight.
	{
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		nw := NewNetwork(ppm.Graph)
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

	// Mid-ladder, a lone sweep inside a one-lane phase under a context
	// cancelled before it starts: the ladder workers abandon their sizes and
	// the replay charges at most one broadcast + convergecast pair.
	{
		ctx, cancel := context.WithCancel(context.Background())
		flood := soloNetwork(ppm.Graph)
		p, next := make(rw.Dist, 512), make(rw.Dist, 512)
		p[0] = 1
		for step := 0; step < 4; step++ {
			p, next = floodOnce(flood, p, next)
		}
		nw := soloNetwork(ppm.Graph)
		tree, err := nw.buildTree(0, -1)
		if err != nil {
			t.Fatal(err)
		}
		before := soloMetrics(nw).Rounds
		cancel()
		nw.setContext(ctx)
		ladder := rw.SizeLadderWithGrowth(cfg.MinCommunitySize, 512, rw.GrowthFactor)
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
		nw := NewNetwork(ppm.Graph)
		_, err := DetectBatchContext(ctx, nw, []int{0, 128, 256, 384}, cfg)
		timer.Stop()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("DetectBatch cancelled after %v: error %v, want context.Canceled", d, err)
		}
		settleGoroutines(t, base, "timed cancellation")
	}
}

// selGraph is one graph of the selection equivalence tests, with the roots
// its BFS trees grow from and the first size of its mixing-set ladder.
// findsPartial marks a graph on which a tree that covers only part of its
// root's component, but at least minSize nodes, still finds a mixing set
// within ten walk steps.
type selGraph struct {
	name         string
	g            *graph.Graph
	roots        []int
	minSize      int
	findsPartial bool
}

// selectionGraphs are graphs on which some BFS trees cover only part of the
// graph even without a depth limit: the n = 512 two-block PPM of
// BenchmarkCongestDetectCommunity, which has an isolated vertex (its first
// root), two disjoint components (a Gnp graph and a clique), an edgeless
// graph, a single vertex, a path and a star. The small graphs' ladders
// start at size 1, so trees that hold only their root find mixing sets too.
func selectionGraphs(t *testing.T) []selGraph {
	t.Helper()
	ppm, err := gen.NewPPM(gen.PPMConfig{N: 512, R: 2, P: 0.02, Q: 0.1 / 256}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	isolated := -1
	for v := 0; v < 512 && isolated < 0; v++ {
		if ppm.Graph.Degree(v) == 0 {
			isolated = v
		}
	}
	if isolated < 0 {
		t.Fatal("the n = 512 PPM sample has no isolated vertex")
	}
	build := func(n int, edges func(b *graph.Builder)) *graph.Graph {
		b := graph.NewBuilder(n)
		edges(b)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	gnp := gnpGraph(t, 64, 3)
	twoComponents := build(76, func(b *graph.Builder) {
		for u := 0; u < 64; u++ {
			for _, w := range gnp.Neighbors(u) {
				if u < int(w) {
					b.AddEdge(u, int(w))
				}
			}
		}
		for u := 64; u < 76; u++ {
			for w := u + 1; w < 76; w++ {
				b.AddEdge(u, w)
			}
		}
	})
	star := build(12, func(b *graph.Builder) {
		for v := 1; v < 12; v++ {
			b.AddEdge(0, v)
		}
	})
	return []selGraph{
		{"ppm512", ppm.Graph, []int{isolated, 0}, testConfig(512).MinCommunitySize, false},
		{"two-components", twoComponents, []int{0, 70}, 1, false},
		{"edgeless", build(8, func(*graph.Builder) {}), []int{0, 5}, 1, false},
		{"single-vertex", build(1, func(*graph.Builder) {}), []int{0}, 1, false},
		{"path", pathGraph(t, 12), []int{0, 5}, 1, false},
		{"star", star, []int{0, 3}, 1, false},
	}
}

// TestLadderLoadsMatchSequentialReference: the concurrent ladder charges
// exactly the communication of the sequential covered-scan sweep
// (largestMixingSetReference), whose collectives send message by message.
// With a load observer on each of two one-lane networks and 4 ladder
// workers, every walk step's sweep must return the same mixing set and the
// same metrics, and the observers must see the same link loads, round by
// round, over ten walk steps. The trees grow without a depth limit and with
// limits 0–3, on a connected PPM and on the selectionGraphs. A tree that
// covers at least the ladder's first size must find a mixing set at some
// step, so that its comparison reaches membership, when it covers its
// root's whole component or grows on the connected PPM (findsPartial). A
// tree that covers a few nodes of a sparse component may never find one.
func TestLadderLoadsMatchSequentialReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfgGen := gen.PPMConfig{N: 256, R: 2, P: 2 * gen.Log2(128) / 128, Q: 0.1 / 128}
	ppm, err := gen.NewPPM(cfgGen, rng.New(37))
	if err != nil {
		t.Fatal(err)
	}
	cases := append([]selGraph{{"ppm256", ppm.Graph, []int{3, 200}, testConfig(256).MinCommunitySize, true}}, selectionGraphs(t)...)
	for _, c := range cases {
		g := c.g
		n := g.NumVertices()
		ladder := rw.SizeLadderWithGrowth(c.minSize, n, rw.GrowthFactor)
		for _, seed := range c.roots {
			component := 0 // set by the unlimited tree, which comes first
			for depth := -1; depth <= 3; depth++ {
				var got, want []observedRound
				nw, ref := soloNetwork(g), soloNetwork(g)
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
				if depth < 0 {
					component = len(covered)
				}
				flood := soloNetwork(g)
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
						t.Fatalf("%s root %d depth %d step %d: set %v, sequential reference %v", c.name, seed, depth, step, set, wantSet)
					}
					if m, refM := soloMetrics(nw), soloMetrics(ref); m != refM {
						t.Fatalf("%s root %d depth %d step %d: metrics %+v, sequential reference %+v", c.name, seed, depth, step, m, refM)
					}
					if !sameRounds(got, want) {
						t.Fatalf("%s root %d depth %d step %d: the observers saw %d and %d rounds, with different loads", c.name, seed, depth, step, len(got), len(want))
					}
					got, want = got[:0], want[:0]
					if set.Found() {
						found++
					}
				}
				mustFind := len(covered) >= ladder[0] && (c.findsPartial || len(covered) == component)
				if found == 0 && mustFind {
					t.Fatalf("%s root %d depth %d: the tree covers %d nodes, but no step found a mixing set; the comparison never reached membership",
						c.name, seed, depth, len(covered))
				}
			}
		}
	}
}

// TestDetectBatchValidation: out-of-range seeds are rejected before any
// round is simulated (core's TestResolveAndFingerprint rejects a negative
// batch size); an empty batch is a no-op.
func TestDetectBatchValidation(t *testing.T) {
	g := pathGraph(t, 8)
	nw := NewNetwork(g)
	cfg := testConfig(8)
	if _, err := DetectBatch(nw, []int{0, 99}, cfg); err == nil {
		t.Fatal("out-of-range batch seed accepted")
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
	nw := NewNetwork(g)
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
	cfg := testConfig(192)
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

// TestSelectIndexedMatchesScan: on flooded walk distributions, the
// degree-indexed selection (selectIndexed) must return the covered-scan
// search's threshold key and success flag at the same communication cost,
// per selection and round by round on the link-load observers, its mixing
// decision must be canonicalCoveredSum of the scan's threshold < 1/2e, with
// that sum's bits wherever the selection computed the sum, and all of it
// must agree with the sequential indexed search
// (selectKSmallestIndexedReference). Every successful selection also runs
// against thresholds one ulp below, at and one ulp above its canonical sum,
// inputs whose sum lies within rounding of the threshold, so the bounds
// leave the test open and the exact pass decides; some selections at 1/2e
// must be decided by the bounds alone. The selection splits the covered
// vertices as evalLadder does (prepareStep: a support table of the vertices
// with mass and a stream listing those without, ResetMembers); the
// sequential search reads a stream that excludes the support and every
// uncovered vertex (Reset). The trees grow without a
// depth limit and with limits 0–3, on Gnp graphs (connected or not) and on
// the selectionGraphs, so the covered sets range from a lone root to the
// whole graph; the sizes are 2, 8, 40, 150, 199 and 200 plus sizes around
// the covered count, from 0 to past it.
func TestSelectIndexedMatchesScan(t *testing.T) {
	cases := selectionGraphs(t)
	for _, seed := range []uint64{7, 31} {
		cases = append(cases, selGraph{fmt.Sprintf("gnp200-%d", seed), gnpGraph(t, 200, seed), []int{0}, 1, false})
	}
	skipped, exact := 0, 0 // selections decided without and with the exact sum
	for _, c := range cases {
		g := c.g
		n := g.NumVertices()
		for _, root := range c.roots {
			for depth := -1; depth <= 3; depth++ {
				var scanLoads, idxLoads, refLoads []observedRound
				scanNW, idxNW, refNW := soloNetwork(g), soloNetwork(g), soloNetwork(g)
				scanNW.SetLoadObserver(recordRounds(&scanLoads))
				idxNW.SetLoadObserver(recordRounds(&idxLoads))
				refNW.SetLoadObserver(recordRounds(&refLoads))
				var trees [3]*Tree
				for i, nw := range []*Network{scanNW, idxNW, refNW} {
					tree, err := nw.buildTree(root, depth)
					if err != nil {
						t.Fatal(err)
					}
					trees[i] = tree
				}
				covered := trees[0].CoveredVertices()
				flood := soloNetwork(g)
				p, next := make(rw.Dist, n), make(rw.Dist, n)
				p[root] = 1
				x := make([]float64, n)
				var refOff rw.OffSupportStream
				for step := 0; step < 6; step++ {
					p, next = floodOnce(flood, p, next)
					// The explicit keys are the covered vertices with mass.
					// The reference's stream excludes them and every
					// uncovered vertex.
					var support, excluded []int32
					for v := 0; v < n; v++ {
						switch {
						case !trees[0].Covered(v):
							excluded = append(excluded, int32(v))
						case p[v] != 0:
							support = append(support, int32(v))
							excluded = append(excluded, int32(v))
						}
					}
					refOff.Reset(idxNW.degreeIndex(), excluded)
					nc := len(covered)
					for _, size := range []int{1, 2, 8, 40, 150, 199, 200, nc / 2, nc - 1, nc, nc + 1, n} {
						at := fmt.Sprintf("%s root %d depth %d step %d size %d", c.name, root, depth, step, size)
						muPrime := rw.MuPrime(g, size)
						for u := 0; u < n; u++ {
							x[u] = rw.XValueAt(g, p, u, size, muPrime)
						}
						before := soloMetrics(scanNW)
						scanTh, _, scanOK := scanNW.selectKSmallest(trees[0], covered, x, size)
						scanCost := soloMetrics(scanNW)
						scanCost.Rounds -= before.Rounds
						scanCost.Messages -= before.Messages

						before = soloMetrics(idxNW)
						idx := idxNW.selectKSmallestIndexed(trees[1], p, covered, muPrime, size)
						idxTh, idxOK := idx.threshold, idx.ok
						idxCost := soloMetrics(idxNW)
						idxCost.Rounds -= before.Rounds
						idxCost.Messages -= before.Messages

						refOff.SetMu(muPrime)
						xsup := make([]float64, len(support))
						for i, v := range support {
							xsup[i] = x[v]
						}
						before = soloMetrics(refNW)
						refTh, refSum, refOK := refNW.selectKSmallestIndexedReference(trees[2], support, xsup, &refOff, muPrime, size)
						refCost := soloMetrics(refNW)
						refCost.Rounds -= before.Rounds
						refCost.Messages -= before.Messages
						if refTh != idxTh || !matchesSum(idx, refSum, rw.MixingThreshold) || refOK != idxOK || refCost != idxCost {
							t.Fatalf("%s: selection (%+v, %+v, %v, %+v), sequential reference (%+v, %v, %v, %+v)",
								at, idxTh, idx, idxOK, idxCost, refTh, refSum, refOK, refCost)
						}
						if idx.ok && !idx.summed {
							skipped++
						}
						if scanOK != idxOK || scanCost != idxCost {
							t.Fatalf("%s: ok %v vs %v, cost %+v vs %+v — the searches diverged", at, scanOK, idxOK, scanCost, idxCost)
						}
						if !scanOK {
							continue
						}
						if scanTh != idxTh {
							t.Fatalf("%s: threshold %+v vs %+v", at, scanTh, idxTh)
						}
						wantSum := canonicalCoveredSum(g, p, covered, x, scanTh, muPrime, size)
						if !matchesSum(idx, wantSum, rw.MixingThreshold) {
							t.Fatalf("%s: selection %+v, canonical sum %v", at, idx, wantSum)
						}
						// A mixing threshold within rounding of the sum
						// leaves the bounds open, so the exact pass decides.
						for _, theta := range []float64{math.Nextafter(wantSum, math.Inf(-1)), wantSum, math.Nextafter(wantSum, math.Inf(1))} {
							r := idxNW.selectIndexed(&selScratch{off: idxNW.off}, idxNW.degreeIndex(), size, muPrime, theta)
							if r.threshold != scanTh || !matchesSum(r, wantSum, theta) {
								t.Fatalf("%s: against threshold %v, selection %+v, canonical sum %v", at, theta, r, wantSum)
							}
							if r.summed {
								exact++
							}
						}
					}
				}
				if !sameRounds(scanLoads, idxLoads) || !sameRounds(refLoads, idxLoads) {
					t.Fatalf("%s root %d depth %d: link loads differ over %d, %d and %d rounds",
						c.name, root, depth, len(scanLoads), len(idxLoads), len(refLoads))
				}
			}
		}
	}
	if skipped == 0 || exact == 0 {
		t.Fatalf("%d selections decided from the bounds alone, %d by the exact sum: want both", skipped, exact)
	}
	t.Logf("%d selections decided from the bounds alone; %d near-threshold ones by the exact sum", skipped, exact)
}

// TestSelectIndexedSplitsOnIDs pins the bisection's id dimension. On a
// star, a complete bipartite graph and a hypercube, one or two flood steps
// leave many support vertices with equal mass and equal degree, hence equal
// x, so for some sizes the k-th and (k+1)-th smallest keys are support keys
// that share their x value, and the search must split them on ids. The test
// asserts that precondition on each input. Then, for every size from 1 to
// the covered count, the selection (selectIndexed over prepareStep's split)
// must return the covered scan's (scanSelect) threshold, success flag,
// leading convergecasts and broadcast + convergecast pairs, the mixing
// decision of canonicalCoveredSum at that threshold (and its bits wherever
// it computed the sum), and replayed communication that the load observers
// see round by round.
func TestSelectIndexedSplitsOnIDs(t *testing.T) {
	build := func(n int, edges func(add func(u, v int))) *graph.Graph {
		b := graph.NewBuilder(n)
		edges(func(u, v int) { b.AddEdge(u, v) })
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	star := build(40, func(add func(u, v int)) {
		for v := 1; v < 40; v++ {
			add(0, v)
		}
	})
	bipartite := build(13, func(add func(u, v int)) { // K(5,8)
		for u := 0; u < 5; u++ {
			for v := 5; v < 13; v++ {
				add(u, v)
			}
		}
	})
	cube := build(32, func(add func(u, v int)) { // the 5-dimensional hypercube
		for u := 0; u < 32; u++ {
			for bit := 1; bit < 32; bit <<= 1 {
				if v := u ^ bit; u < v {
					add(u, v)
				}
			}
		}
	})
	cases := []struct {
		name        string
		g           *graph.Graph
		root, steps int
	}{
		{"star-centre", star, 0, 1},
		{"star-leaf", star, 7, 2},
		{"bipartite", bipartite, 0, 1},
		{"bipartite", bipartite, 0, 2},
		{"hypercube", cube, 0, 1},
		{"hypercube", cube, 0, 2},
	}
	for _, c := range cases {
		g := c.g
		n := g.NumVertices()
		var gotLoads, wantLoads []observedRound
		nw, ref := soloNetwork(g), soloNetwork(g)
		nw.SetLoadObserver(recordRounds(&gotLoads))
		ref.SetLoadObserver(recordRounds(&wantLoads))
		tree, err := nw.buildTree(c.root, -1)
		if err != nil {
			t.Fatal(err)
		}
		refTree, err := ref.buildTree(c.root, -1)
		if err != nil {
			t.Fatal(err)
		}
		covered := tree.CoveredVertices()
		flood := soloNetwork(g)
		p, next := make(rw.Dist, n), make(rw.Dist, n)
		p[c.root] = 1
		for range c.steps {
			p, next = floodOnce(flood, p, next)
		}
		nw.prepareStep(p, covered)
		x := make([]float64, n)
		tied := 0
		for size := 1; size <= len(covered); size++ {
			at := fmt.Sprintf("%s after %d steps, size %d", c.name, c.steps, size)
			muPrime := rw.MuPrime(g, size)
			keys := make([]key, 0, len(covered))
			for _, v := range covered {
				x[v] = rw.XValueAt(g, p, int(v), size, muPrime)
				keys = append(keys, key{x: x[v], id: v})
			}
			slices.SortFunc(keys, func(a, b key) int {
				if keyLess(a, b) {
					return -1
				}
				return 1
			})
			if size < len(keys) {
				a, b := keys[size-1], keys[size]
				if a.x == b.x && p[a.id] != 0 && p[b.id] != 0 {
					tied++
				}
			}
			got := nw.selectIndexed(&selScratch{off: nw.off}, nw.degreeIndex(), size, muPrime, rw.MixingThreshold)
			want := ref.scanSelect(covered, x, size)
			if got.threshold != want.threshold || got.ok != want.ok || got.casts != want.casts || got.pairs != want.pairs {
				t.Fatalf("%s: selection (%+v, ok %v, %d casts, %d pairs), scan (%+v, ok %v, %d casts, %d pairs)",
					at, got.threshold, got.ok, got.casts, got.pairs, want.threshold, want.ok, want.casts, want.pairs)
			}
			if wantSum := canonicalCoveredSum(g, p, covered, x, want.threshold, muPrime, size); !matchesSum(got, wantSum, rw.MixingThreshold) {
				t.Fatalf("%s: selection %+v, canonical sum %v", at, got, wantSum)
			}
			nw.replaySelection(tree, got)
			ref.replaySelection(refTree, want)
		}
		if tied == 0 {
			t.Fatalf("%s after %d steps: no size has its k-th and (k+1)-th smallest keys on two support vertices with equal x", c.name, c.steps)
		}
		if m, refM := soloMetrics(nw), soloMetrics(ref); m != refM || !sameRounds(gotLoads, wantLoads) {
			t.Fatalf("%s after %d steps: metrics %+v vs scan %+v, or the observers saw different loads over %d and %d rounds",
				c.name, c.steps, m, refM, len(gotLoads), len(wantLoads))
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
	nw := soloNetwork(g)
	tree, err := nw.buildTree(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	covered := tree.CoveredVertices()
	sweeper := rw.NewSweeper(g)
	const minSize = 6
	ladder := rw.SizeLadderWithGrowth(minSize, n, rw.GrowthFactor)
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
