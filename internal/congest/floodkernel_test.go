package congest

import (
	"runtime"
	"testing"

	"cdrw/internal/graph"
	"cdrw/internal/rng"
	"cdrw/internal/rw"
)

// raggedGraph builds a random graph with isolated vertices, hubs and leaves,
// so the flood kernels see every degree regime at once.
func raggedGraph(t *testing.T, n int, seed uint64) *graph.Graph {
	t.Helper()
	r := rng.New(seed)
	b := graph.NewDedupBuilder(n)
	for i := 0; i < 3*n; i++ {
		u, v := r.Intn(n), r.Intn(n)
		// Leave the top eighth of the id space mostly isolated.
		if u != v && (u < 7*n/8 || r.Intn(4) == 0) {
			b.AddEdge(u, v)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// floodStepReference is the unblocked one-walk flood kernel batchFlood
// replaced, kept as the equivalence baseline: TestFloodStepMatchesReference
// asserts the two kernels evolve bit-identical distributions, and
// BenchmarkFloodKernel1M measures the blocked kernel's speedup against this
// one. It charges one round of the current lane and runs its gather
// sequentially, one vertex at a time.
func (nw *Network) floodStepReference(p, next rw.Dist, degInv []float64) {
	g := nw.Graph()
	nw.beginRound()
	for v, mass := range p {
		if mass != 0 && g.Degree(v) > 0 {
			nw.sendAllNeighbors(v)
		}
	}
	for u := range next {
		sum := 0.0
		for _, w := range g.Neighbors(u) {
			sum += p[w] * degInv[w]
		}
		if g.Degree(u) == 0 {
			sum = p[u] // isolated nodes keep their mass
		}
		next[u] = sum
	}
}

// TestFloodStepMatchesReference: the blocked kernel, flooding k = 1 or 4
// walks in one batch, evolves every walk's distribution bit-identical to the
// unblocked reference run one walk at a time — same floats, same per-walk
// rounds and messages — on a one-tile graph with isolated vertices, from
// point sources.
func TestFloodStepMatchesReference(t *testing.T) {
	g := raggedGraph(t, 512, 1)
	for _, k := range []int{1, 4} {
		starts := make([]rw.Dist, k)
		for i := range starts {
			starts[i] = make(rw.Dist, g.NumVertices())
			starts[i][3+97*i] = 1
		}
		checkFloodMatchesReference(t, g, starts, 12)
	}
}

// TestFloodTilesMatchReference: on a graph of four flood tiles, the last one
// ragged, the gather runs on 4 goroutines that claim tiles in any order, and
// every walk still evolves bit-identical to the sequential reference. The
// walks start with random mass on every vertex, so every tile and every
// tile boundary carries mass from the first round.
func TestFloodTilesMatchReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := raggedGraph(t, 3*floodTile+77, 5)
	n := g.NumVertices()
	if w := rangeWorkers(n, floodTile); w != 4 {
		t.Fatalf("%d range workers, want 4: the tiled gather would not run in parallel", w)
	}
	r := rng.New(7)
	for _, k := range []int{1, 3} {
		starts := make([]rw.Dist, k)
		for i := range starts {
			starts[i] = make(rw.Dist, n)
			for v := range starts[i] {
				starts[i][v] = r.Float64()
			}
		}
		checkFloodMatchesReference(t, g, starts, 3)
	}
}

// checkFloodMatchesReference floods one walk per start distribution through
// batchFlood for steps rounds and checks, after every round, each walk's
// distribution against floodStepReference run on that walk alone, then each
// walk's rounds and messages against its reference network's and the
// batch's shared total.
func checkFloodMatchesReference(t *testing.T, g *graph.Graph, starts []rw.Dist, steps int) {
	t.Helper()
	n, k := g.NumVertices(), len(starts)
	blocked := NewNetwork(g)
	blocked.beginBatch(k)
	degInv := blocked.degInvTable()
	walks := make([]*batchWalk, k)
	refs := make([]*Network, k)
	refP, refNext := make([]rw.Dist, k), make([]rw.Dist, k)
	for i, start := range starts {
		walks[i] = &batchWalk{p: append(rw.Dist(nil), start...), next: make(rw.Dist, n)}
		refs[i] = soloNetwork(g)
		refP[i], refNext[i] = append(rw.Dist(nil), start...), make(rw.Dist, n)
	}
	counts := make([]int32, n)
	for step := 1; step <= steps; step++ {
		blocked.beginPhase()
		batchFlood(blocked, walks, degInv, counts)
		blocked.endPhase()
		for i, w := range walks {
			refs[i].floodStepReference(refP[i], refNext[i], degInv)
			refP[i], refNext[i] = refNext[i], refP[i]
			for v := range w.p {
				if w.p[v] != refP[i][v] {
					t.Fatalf("n=%d k=%d walk %d step %d vertex %d: blocked %g != reference %g",
						n, k, i, step, v, w.p[v], refP[i][v])
				}
			}
		}
	}
	var messages int64
	for i := range walks {
		mb, mr := blocked.laneMetrics(i), soloMetrics(refs[i])
		if mb != mr {
			t.Fatalf("n=%d k=%d walk %d: blocked accounting %+v != reference %+v", n, k, i, mb, mr)
		}
		messages += mr.Messages
	}
	if m := blocked.Metrics(); m.Rounds != steps || m.Messages != messages {
		t.Fatalf("n=%d k=%d: batch charged %+v, want %d shared rounds and %d messages",
			n, k, m, steps, messages)
	}
}

// TestRangeWorkersCapped: parallelRanges runs min(GOMAXPROCS, tiles)
// workers, so a graph of one tile floods on the calling goroutine. Only the
// count is checked; no goroutine is started.
func TestRangeWorkersCapped(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct{ procs, n, want int }{
		{1, floodTile + 1, 1},
		{1, 32 * floodTile, 1},
		{3, 0, 0},
		{3, 1, 1},
		{3, floodTile, 1},
		{3, floodTile + 1, 2},
		{3, 32 * floodTile, 3},
	} {
		runtime.GOMAXPROCS(c.procs)
		if got := rangeWorkers(c.n, floodTile); got != c.want {
			t.Errorf("GOMAXPROCS=%d n=%d: %d range workers, want %d", c.procs, c.n, got, c.want)
		}
	}
}

// TestNetworkSharedIndexRouting: a network built over a shared bundle reads
// the bundle's tables instead of building private copies, and detection
// results do not change.
func TestNetworkSharedIndexRouting(t *testing.T) {
	g := gnpGraph(t, 256, 9)
	ix := rw.NewSharedIndex(g).Warm()
	shared := NewNetworkWithIndex(g, ix)
	if shared.degreeIndex() != ix.Degree() {
		t.Fatal("network built a private degree index despite the shared bundle")
	}
	if &shared.degInvTable()[0] != &ix.DegInv()[0] {
		t.Fatal("network built a private degInv table despite the shared bundle")
	}

	cfg := testConfig(g.NumVertices())
	want, wantStats, err := DetectCommunity(NewNetwork(g), 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := DetectCommunity(NewNetworkWithIndex(g, ix), 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || gotStats != wantStats {
		t.Fatalf("shared-index detection diverged: %d vertices %+v vs %d vertices %+v",
			len(got), gotStats, len(want), wantStats)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("community vertex %d: shared %d != private %d", i, got[i], want[i])
		}
	}
}
