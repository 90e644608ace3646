package congest

import (
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
// rounds and messages — sequentially and under the tiled parallel executor,
// across graphs with isolated vertices.
func TestFloodStepMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g := raggedGraph(t, 512, uint64(workers))
		n := g.NumVertices()
		for _, k := range []int{1, 4} {
			blocked := NewNetwork(g, workers)
			blocked.beginBatch(k)
			degInv := blocked.degInvTable()
			walks := make([]*batchWalk, k)
			refs := make([]*Network, k)
			refP, refNext := make([]rw.Dist, k), make([]rw.Dist, k)
			for i := range walks {
				src := 3 + 97*i
				walks[i] = &batchWalk{p: make(rw.Dist, n), next: make(rw.Dist, n)}
				walks[i].p[src] = 1
				refs[i] = soloNetwork(g, workers)
				refP[i], refNext[i] = make(rw.Dist, n), make(rw.Dist, n)
				refP[i][src] = 1
			}
			counts := make([]int32, n)
			const steps = 12
			for step := 1; step <= steps; step++ {
				blocked.beginPhase()
				batchFlood(blocked, walks, degInv, counts)
				blocked.endPhase()
				for i, w := range walks {
					refs[i].floodStepReference(refP[i], refNext[i], degInv)
					refP[i], refNext[i] = refNext[i], refP[i]
					for v := range w.p {
						if w.p[v] != refP[i][v] {
							t.Fatalf("workers=%d k=%d walk %d step %d vertex %d: blocked %g != reference %g",
								workers, k, i, step, v, w.p[v], refP[i][v])
						}
					}
				}
			}
			var messages int64
			for i := range walks {
				mb, mr := blocked.laneMetrics(i), soloMetrics(refs[i])
				if mb != mr {
					t.Fatalf("workers=%d k=%d walk %d: blocked accounting %+v != reference %+v",
						workers, k, i, mb, mr)
				}
				messages += mr.Messages
			}
			if m := blocked.Metrics(); m.Rounds != steps || m.Messages != messages {
				t.Fatalf("workers=%d k=%d: batch charged %+v, want %d shared rounds and %d messages",
					workers, k, m, steps, messages)
			}
		}
	}
}

// TestRangeWorkersCapped: parallelRanges starts one goroutine per tile at
// most, whatever worker count the network was built with (congest_workers
// is caller input). Only the count is checked; no goroutine is started.
func TestRangeWorkersCapped(t *testing.T) {
	g := gnpGraph(t, 64, 1)
	huge, three := NewNetwork(g, 1<<40), NewNetwork(g, 3)
	for _, c := range []struct {
		nw      *Network
		n, want int
	}{
		{huge, 0, 0},
		{huge, 1, 1},
		{huge, floodTile, 1},
		{huge, floodTile + 1, 2},
		{huge, 32 * floodTile, 32},
		{three, 32 * floodTile, 3},
	} {
		if got := c.nw.rangeWorkers(c.n, floodTile); got != c.want {
			t.Errorf("workers=%d n=%d: %d range workers, want %d", c.nw.workers, c.n, got, c.want)
		}
	}
}

// TestNetworkSharedIndexRouting: a network built over a shared bundle reads
// the bundle's tables instead of building private copies, and detection
// results do not change.
func TestNetworkSharedIndexRouting(t *testing.T) {
	g := gnpGraph(t, 256, 9)
	ix := rw.NewSharedIndex(g).Warm()
	shared := NewNetworkWithIndex(g, 1, ix)
	if shared.degreeIndex() != ix.Degree() {
		t.Fatal("network built a private degree index despite the shared bundle")
	}
	if &shared.degInvTable()[0] != &ix.DegInv()[0] {
		t.Fatal("network built a private degInv table despite the shared bundle")
	}

	cfg := testConfig(g.NumVertices())
	want, wantStats, err := DetectCommunity(NewNetwork(g, 1), 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := DetectCommunity(NewNetworkWithIndex(g, 1, ix), 4, cfg)
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
