package congest

import (
	"errors"
	"math"
	"sort"
	"testing"

	"cdrw/internal/gen"
	"cdrw/internal/graph"
	"cdrw/internal/rng"
	"cdrw/internal/rw"
)

func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func gnpGraph(t *testing.T, n int, seed uint64) *graph.Graph {
	t.Helper()
	p := 2 * gen.Log2(n) / float64(n)
	g, err := gen.Gnp(n, p, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testConfig returns the paper's walk parameters for an n-vertex graph —
// the values the Detector's defaults resolve to (core.Settings.
// CongestConfig, which this package's internal tests cannot import).
func testConfig(n int) Config {
	logN := max(int(math.Ceil(math.Log2(float64(n+1)))), 1)
	return Config{
		Delta:            0.1,
		MinCommunitySize: logN,
		MaxWalkLength:    4*logN + 4,
		Patience:         1,
		TreeDepthLimit:   -1,
		MixingThreshold:  rw.MixingThreshold,
		GrowthFactor:     rw.GrowthFactor,
	}
}

func TestBuildTreeCoversComponent(t *testing.T) {
	g := gnpGraph(t, 256, 1)
	nw := soloNetwork(g)
	tree, err := nw.buildTree(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Size() != 256 {
		t.Fatalf("tree covers %d of 256 vertices", tree.Size())
	}
	// Rounds = number of levels built, plus one final round in which the
	// deepest frontier's announcements discover nothing new.
	if got := soloMetrics(nw).Rounds; got != tree.MaxDepth() && got != tree.MaxDepth()+1 {
		t.Fatalf("BFS took %d rounds for depth %d", got, tree.MaxDepth())
	}
	// Parent depths are consistent.
	for v := 0; v < 256; v++ {
		if v == tree.Root {
			continue
		}
		p := tree.Parent[v]
		if p < 0 || tree.Depth[v] != tree.Depth[p]+1 {
			t.Fatalf("vertex %d: parent %d depth %d vs %d", v, p, tree.Depth[v], tree.Depth[p])
		}
	}
}

func TestBuildTreeDepthLimit(t *testing.T) {
	g := pathGraph(t, 10)
	nw := soloNetwork(g)
	tree, err := nw.buildTree(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Size() != 4 {
		t.Fatalf("depth-3 tree on a path covers %d vertices, want 4", tree.Size())
	}
	if tree.Covered(5) {
		t.Fatal("vertex beyond depth limit covered")
	}
}

func TestBuildTreeBadRoot(t *testing.T) {
	g := pathGraph(t, 4)
	nw := NewNetwork(g)
	if _, err := nw.buildTree(9, -1); !errors.Is(err, graph.ErrVertexOutOfRange) {
		t.Fatalf("got %v", err)
	}
}

func TestBroadcastConvergecastCosts(t *testing.T) {
	g := pathGraph(t, 8) // tree = path, depth 7
	nw := soloNetwork(g)
	tree, err := nw.buildTree(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	base := soloMetrics(nw)
	nw.broadcast(tree)
	afterB := soloMetrics(nw)
	if rounds := afterB.Rounds - base.Rounds; rounds != 7 {
		t.Fatalf("broadcast rounds = %d, want 7", rounds)
	}
	if msgs := afterB.Messages - base.Messages; msgs != 7 {
		t.Fatalf("broadcast messages = %d, want 7 (one per tree edge)", msgs)
	}
	nw.convergecast(tree)
	afterC := soloMetrics(nw)
	if rounds := afterC.Rounds - afterB.Rounds; rounds != 7 {
		t.Fatalf("convergecast rounds = %d, want 7", rounds)
	}
	if msgs := afterC.Messages - afterB.Messages; msgs != 7 {
		t.Fatalf("convergecast messages = %d, want 7", msgs)
	}
}

func TestFloodStepMatchesRWStep(t *testing.T) {
	g := gnpGraph(t, 128, 3)
	nw := soloNetwork(g)
	n := g.NumVertices()
	p := make(rw.Dist, n)
	p[5] = 1
	next := make(rw.Dist, n)
	want, err := rw.NewPointDist(n, 5)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make(rw.Dist, n)
	for step := 0; step < 10; step++ {
		p, next = floodOnce(nw, p, next)
		want, scratch = rw.Step(g, want, scratch), want
		if p.L1(want) > 1e-12 {
			t.Fatalf("flooding diverges from reference at step %d: L1=%v", step+1, p.L1(want))
		}
	}
}

func TestFloodStepMessageAccounting(t *testing.T) {
	g := pathGraph(t, 5)
	nw := soloNetwork(g)
	p := rw.Dist{0, 0, 1, 0, 0}
	floodOnce(nw, p, make(rw.Dist, 5))
	m := soloMetrics(nw)
	if m.Rounds != 1 {
		t.Fatalf("flood step took %d rounds, want 1", m.Rounds)
	}
	// Only vertex 2 is active, degree 2 → 2 messages.
	if m.Messages != 2 {
		t.Fatalf("flood step sent %d messages, want 2", m.Messages)
	}
}

func TestSelectKSmallestMatchesReference(t *testing.T) {
	g := gnpGraph(t, 128, 7)
	nw := soloNetwork(g)
	tree, err := nw.buildTree(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	covered := make([]int32, 0, tree.Size())
	for _, lvl := range tree.Levels {
		for _, v := range lvl {
			covered = append(covered, int32(v))
		}
	}
	r := rng.New(9)
	x := make([]float64, 128)
	for i := range x {
		x[i] = float64(r.Intn(20)) / 20 // deliberately many ties
	}
	for _, k := range []int{1, 2, 7, 64, 127, 128} {
		threshold, sum, ok := nw.selectKSmallest(tree, covered, x, k)
		if !ok {
			t.Fatalf("k=%d: selection failed", k)
		}
		wantSet, wantSum := rw.SmallestK(x, k)
		if math.Abs(sum-wantSum) > 1e-9 {
			t.Fatalf("k=%d: sum %v, want %v", k, sum, wantSum)
		}
		// Membership derived from the threshold matches the reference set.
		var got []int
		for _, v := range covered {
			kk := key{x: x[v], id: v}
			if keyLess(kk, threshold) || kk == threshold {
				got = append(got, int(v))
			}
		}
		sort.Ints(got)
		if len(got) != len(wantSet) {
			t.Fatalf("k=%d: selected %d nodes, want %d", k, len(got), len(wantSet))
		}
		for i := range got {
			if got[i] != wantSet[i] {
				t.Fatalf("k=%d: selection differs at %d: %d vs %d", k, i, got[i], wantSet[i])
			}
		}
	}
}

func TestSelectKSmallestEdgeCases(t *testing.T) {
	g := pathGraph(t, 4)
	nw := soloNetwork(g)
	tree, err := nw.buildTree(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	covered := []int32{0, 1, 2, 3}
	x := []float64{0.4, 0.3, 0.2, 0.1}
	if _, _, ok := nw.selectKSmallest(tree, covered, x, 0); ok {
		t.Fatal("k=0 succeeded")
	}
	if _, _, ok := nw.selectKSmallest(tree, covered, x, 5); ok {
		t.Fatal("k>covered succeeded")
	}
	th, sum, ok := nw.selectKSmallest(tree, covered, x, 4)
	if !ok || math.Abs(sum-1.0) > 1e-12 {
		t.Fatalf("k=n: ok=%v sum=%v", ok, sum)
	}
	if th.id != 0 || th.x != 0.4 {
		t.Fatalf("k=n threshold = %+v, want max key", th)
	}
}

func TestRoundComplexityPolylog(t *testing.T) {
	// Theorem 5: one community costs O(log⁴ n) rounds. Check that measured
	// rounds grow far slower than linearly: quadrupling n should much less
	// than quadruple the rounds.
	rounds := make(map[int]int)
	for _, n := range []int{256, 1024} {
		g := gnpGraph(t, n, 19)
		nw := NewNetwork(g)
		_, stats, err := DetectCommunity(nw, 0, testConfig(n))
		if err != nil {
			t.Fatal(err)
		}
		rounds[n] = stats.Metrics.Rounds
	}
	ratio := float64(rounds[1024]) / float64(rounds[256])
	if ratio > 2.5 {
		t.Fatalf("rounds grew by %vx for 4x vertices: %v — not polylog", ratio, rounds)
	}
}

func TestDetectCommunityConfigValidation(t *testing.T) {
	g := pathGraph(t, 4)
	nw := NewNetwork(g)
	bad := testConfig(4)
	bad.Delta = -1
	if _, _, err := DetectCommunity(nw, 0, bad); err == nil {
		t.Fatal("negative delta accepted")
	}
	bad = testConfig(4)
	bad.Patience = 0
	if _, _, err := DetectCommunity(nw, 0, bad); err == nil {
		t.Fatal("zero patience accepted")
	}
	if _, _, err := DetectCommunity(nw, 99, testConfig(4)); err == nil {
		t.Fatal("out-of-range seed accepted")
	}
}

func TestObserverSeesAllMessages(t *testing.T) {
	g := gnpGraph(t, 128, 23)
	nw := NewNetwork(g)
	var observed int64
	roundsSeen := 0
	nw.SetLoadObserver(func(round int, loads []LinkLoad) {
		roundsSeen++
		for _, ld := range loads {
			if ld.From < 0 || int(ld.From) >= 128 || ld.To < 0 || int(ld.To) >= 128 || ld.Words < 1 {
				t.Fatalf("load with bad endpoints or words: %+v", ld)
			}
			observed += int64(ld.Words)
		}
	})
	_, stats, err := DetectCommunity(nw, 0, testConfig(128))
	if err != nil {
		t.Fatal(err)
	}
	if observed != stats.Metrics.Messages {
		t.Fatalf("observer saw %d words, metrics say %d messages", observed, stats.Metrics.Messages)
	}
	if roundsSeen != stats.Metrics.Rounds {
		t.Fatalf("observer saw %d rounds, metrics say %d", roundsSeen, stats.Metrics.Rounds)
	}
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{Rounds: 2, Messages: 10}
	a.Add(Metrics{Rounds: 3, Messages: 5})
	if a.Rounds != 5 || a.Messages != 15 {
		t.Fatalf("Add gave %+v", a)
	}
}

func TestMidKeyProgress(t *testing.T) {
	// midKey must return a key strictly below hi (or equal to lo) so the
	// binary search always makes progress.
	cases := []struct{ lo, hi key }{
		{key{0, 1}, key{1, 2}},
		{key{0.5, 3}, key{0.5, 9}},
		{key{math.Nextafter(1, 2), 0}, key{math.Nextafter(1, 2), 100}},
		{key{1, 0}, key{math.Nextafter(1, 2), 0}}, // adjacent floats
	}
	for _, tc := range cases {
		mid := midKey(tc.lo, tc.hi)
		if !keyLess(mid, tc.hi) && mid != tc.hi {
			// mid may equal (lo.x, MaxInt32) which can exceed hi only via id;
			// the select loop handles that by shrinking with maxLe. The key
			// requirement is mid.x < hi.x or mid.x == lo.x.
			if mid.x >= tc.hi.x && mid.x != tc.lo.x {
				t.Fatalf("midKey(%+v, %+v) = %+v makes no progress", tc.lo, tc.hi, mid)
			}
		}
	}
}
