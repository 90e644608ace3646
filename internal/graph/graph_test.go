package graph

import (
	"errors"
	"testing"

	"cdrw/internal/rng"
)

// path returns the path graph 0-1-2-...-(n-1).
func path(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build path: %v", err)
	}
	return g
}

// cycle returns the cycle graph on n vertices.
func cycle(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build cycle: %v", err)
	}
	return g
}

// complete returns the complete graph K_n.
func complete(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build complete: %v", err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	var g Graph
	if g.NumVertices() != 0 || g.NumEdges() != 0 || g.Volume() != 0 {
		t.Fatal("zero Graph is not empty")
	}
	if !g.IsConnected() {
		t.Fatal("empty graph should count as connected")
	}
	if g.MaxDegree() != 0 || g.AverageDegree() != 0 {
		t.Fatal("empty graph degree stats should be zero")
	}
}

func TestBuilderBasics(t *testing.T) {
	g := path(t, 4)
	if g.NumVertices() != 4 {
		t.Fatalf("n = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("m = %d, want 3", g.NumEdges())
	}
	if g.Volume() != 6 {
		t.Fatalf("volume = %d, want 6", g.Volume())
	}
	wantDeg := []int{1, 2, 2, 1}
	for v, want := range wantDeg {
		if got := g.Degree(v); got != want {
			t.Errorf("deg(%d) = %d, want %d", v, got, want)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(1, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestBuilderRejectsDuplicate(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // same undirected edge
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 3)
	_, err := b.Build()
	if !errors.Is(err, ErrVertexOutOfRange) {
		t.Fatalf("got %v, want ErrVertexOutOfRange", err)
	}
}

func TestDedupBuilderDropsBadEdges(t *testing.T) {
	b := NewDedupBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(2, 2)
	b.AddEdge(1, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m = %d, want 2", g.NumEdges())
	}
}

func TestHasEdge(t *testing.T) {
	g := cycle(t, 5)
	for i := 0; i < 5; i++ {
		if !g.HasEdge(i, (i+1)%5) {
			t.Errorf("missing cycle edge %d-%d", i, (i+1)%5)
		}
		if !g.HasEdge((i+1)%5, i) {
			t.Errorf("missing reverse edge %d-%d", (i+1)%5, i)
		}
	}
	if g.HasEdge(0, 2) {
		t.Error("unexpected chord 0-2 in C5")
	}
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(4, 0)
	b.AddEdge(2, 0)
	b.AddEdge(0, 1)
	b.AddEdge(3, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ns := g.Neighbors(0)
	for i := 1; i < len(ns); i++ {
		if ns[i-1] >= ns[i] {
			t.Fatalf("neighbours of 0 not sorted: %v", ns)
		}
	}
}

func TestDegreeStats(t *testing.T) {
	g := complete(t, 5)
	if g.MaxDegree() != 4 {
		t.Fatalf("K5 max degree = %d, want 4", g.MaxDegree())
	}
	if got := g.AverageDegree(); got != 4 {
		t.Fatalf("K5 average degree = %v, want 4", got)
	}
}

func TestEdgesIteration(t *testing.T) {
	g := complete(t, 4)
	count := 0
	g.Edges(func(u, v int) bool {
		if u >= v {
			t.Errorf("edge (%d,%d) not in canonical order", u, v)
		}
		count++
		return true
	})
	if count != 6 {
		t.Fatalf("iterated %d edges, want 6", count)
	}
	// Early stop.
	count = 0
	g.Edges(func(u, v int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop iterated %d edges, want 3", count)
	}
}

func TestBFSOnPath(t *testing.T) {
	g := path(t, 6)
	res := g.BFS(0)
	for v := 0; v < 6; v++ {
		if res.Depth[v] != v {
			t.Errorf("depth(%d) = %d, want %d", v, res.Depth[v], v)
		}
	}
	if res.Parent[0] != -1 {
		t.Errorf("source parent = %d, want -1", res.Parent[0])
	}
	for v := 1; v < 6; v++ {
		if res.Parent[v] != v-1 {
			t.Errorf("parent(%d) = %d, want %d", v, res.Parent[v], v-1)
		}
	}
	if res.MaxDepth() != 5 {
		t.Errorf("max depth = %d, want 5", res.MaxDepth())
	}
}

func TestBFSLimitedDepth(t *testing.T) {
	g := path(t, 10)
	res := g.BFSLimited(0, 3)
	if len(res.Order) != 4 {
		t.Fatalf("reached %d vertices, want 4", len(res.Order))
	}
	if res.Depth[4] >= 0 {
		t.Fatal("vertex 4 reached despite depth limit 3")
	}
	if res.MaxDepth() != 3 {
		t.Fatalf("max depth = %d, want 3", res.MaxDepth())
	}
}

// TestBall: MarkBall2 marks exactly the vertices a depth-2 BFS reaches —
// on a path, where B_2(4) = {2..6}, and on random graphs — and unmarking
// the same ball leaves the mask clear.
func TestBall(t *testing.T) {
	g := path(t, 9)
	mask := make([]bool, 9)
	g.MarkBall2(4, mask, true)
	for v, in := range mask {
		if want := v >= 2 && v <= 6; in != want {
			t.Errorf("vertex %d marked %v, want %v", v, in, want)
		}
	}

	r := rng.New(0xba11)
	for trial := 0; trial < 20; trial++ {
		n := 8 + r.Intn(40)
		b := NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 3/float64(n) {
					b.AddEdge(u, v)
				}
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		mask := make([]bool, n)
		s := r.Intn(n)
		g.MarkBall2(s, mask, true)
		bfs := g.BFSLimited(s, 2)
		for v, in := range mask {
			if want := bfs.Depth[v] >= 0; in != want {
				t.Fatalf("trial %d: vertex %d marked %v, depth %d from %d", trial, v, in, bfs.Depth[v], s)
			}
		}
		g.MarkBall2(s, mask, false)
		for v, in := range mask {
			if in {
				t.Fatalf("trial %d: vertex %d still marked after unmarking", trial, v)
			}
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	// 5 and 6 isolated.
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	labels, count := g.ConnectedComponents()
	if count != 4 {
		t.Fatalf("components = %d, want 4", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("0,1,2 should share a component")
	}
	if labels[3] != labels[4] {
		t.Error("3,4 should share a component")
	}
	if labels[5] == labels[6] {
		t.Error("isolated 5 and 6 should be separate components")
	}
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
}

func TestDiameter(t *testing.T) {
	if d := path(t, 5).Diameter(); d != 4 {
		t.Errorf("path diameter = %d, want 4", d)
	}
	if d := cycle(t, 6).Diameter(); d != 3 {
		t.Errorf("C6 diameter = %d, want 3", d)
	}
	if d := complete(t, 4).Diameter(); d != 1 {
		t.Errorf("K4 diameter = %d, want 1", d)
	}
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if d := g.Diameter(); d != -1 {
		t.Errorf("disconnected diameter = %d, want -1", d)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := path(t, 3)
	// Corrupt: make the adjacency asymmetric by rewriting a neighbour entry.
	g.neigh[0] = 2 // 0's neighbour list becomes [2], but 2 does not list 0... wait deg(0)=1
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted asymmetric adjacency")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild did not panic on invalid input")
		}
	}()
	b := NewBuilder(1)
	b.AddEdge(0, 0)
	b.MustBuild()
}
