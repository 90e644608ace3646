package core

import (
	"testing"

	"cdrw/internal/graph"
)

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
