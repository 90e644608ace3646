package congest

import "sort"

// Tree is a BFS spanning tree rooted at a source node, built by distributed
// flooding (Algorithm 1 line 5). It is the communication backbone for the
// broadcast and convergecast primitives.
type Tree struct {
	Root   int
	Parent []int   // -1 for the root and unreached nodes
	Depth  []int   // hop distance from the root; -1 if unreached
	Levels [][]int // Levels[d] lists the tree nodes at depth d
}

// Covered reports whether v belongs to the tree.
func (t *Tree) Covered(v int) bool { return t.Depth[v] >= 0 }

// Size returns the number of tree nodes (including the root).
func (t *Tree) Size() int {
	n := 0
	for _, lvl := range t.Levels {
		n += len(lvl)
	}
	return n
}

// MaxDepth returns the depth of the deepest tree level.
func (t *Tree) MaxDepth() int { return len(t.Levels) - 1 }

// CoveredVertices returns the tree's nodes sorted ascending — the vertex
// set visible to the root through convergecasts.
func (t *Tree) CoveredVertices() []int32 {
	covered := make([]int32, 0, t.Size())
	for _, lvl := range t.Levels {
		for _, v := range lvl {
			covered = append(covered, int32(v))
		}
	}
	sort.Slice(covered, func(i, j int) bool { return covered[i] < covered[j] })
	return covered
}

// BuildTree constructs a BFS tree of bounded depth from root by distributed
// flooding: in round d every depth-d node announces itself to all
// neighbours; unclaimed neighbours join at depth d+1 and pick the announcer
// with the smallest id as parent (ties are resolved the same way a real
// execution with id-tagged messages would). A negative depthLimit means
// unbounded. Cost: one round per level, with every frontier node messaging
// each neighbour.
func (nw *Network) BuildTree(root, depthLimit int) (*Tree, error) {
	if err := nw.checkVertex(root); err != nil {
		return nil, err
	}
	n := nw.g.NumVertices()
	t := &Tree{
		Root:   root,
		Parent: make([]int, n),
		Depth:  make([]int, n),
	}
	for v := 0; v < n; v++ {
		t.Parent[v] = -1
		t.Depth[v] = -1
	}
	t.Depth[root] = 0
	t.Levels = append(t.Levels, []int{root})

	frontier := []int{root}
	for d := 0; len(frontier) > 0; d++ {
		if err := nw.interrupted(); err != nil {
			return nil, err
		}
		if depthLimit >= 0 && d >= depthLimit {
			break
		}
		round := nw.beginRound()
		var next []int
		for _, u := range frontier {
			nw.sendAllNeighbors(u)
			for _, w := range nw.g.Neighbors(u) {
				v := int(w)
				if t.Depth[v] < 0 {
					t.Depth[v] = d + 1
					t.Parent[v] = u
					next = append(next, v)
				} else if t.Depth[v] == d+1 && u < t.Parent[v] {
					t.Parent[v] = u
				}
			}
		}
		nw.endRound(round)
		if len(next) > 0 {
			t.Levels = append(t.Levels, next)
		}
		frontier = next
	}
	return t, nil
}

// Broadcast models the root sending one O(log n)-bit value down the tree:
// one round per level, one message per tree edge. The simulated value
// delivery is implicit (every protocol below knows the broadcast value);
// only the cost is accounted here. Without a load observer the per-node
// message enumeration is skipped — each level is one round of len(level)
// messages — so a broadcast costs O(depth) simulator work instead of
// O(tree).
func (nw *Network) Broadcast(t *Tree) {
	if nw.loadObs == nil {
		for d := 0; d < len(t.Levels)-1; d++ {
			round := nw.beginRound()
			nw.accountMessages(len(t.Levels[d+1]))
			nw.endRound(round)
		}
		return
	}
	for d := 0; d < len(t.Levels)-1; d++ {
		round := nw.beginRound()
		for _, u := range t.Levels[d+1] {
			// Parent forwards the value to u.
			nw.send(t.Parent[u], u)
		}
		nw.endRound(round)
	}
}

// Convergecast models an aggregation up the tree (min, max, sum, count —
// anything expressible with O(log n)-bit partial aggregates): one round per
// level, one message per tree edge, deepest level first. The caller
// performs the actual aggregation on node values; this method accounts the
// cost, with the same O(depth) fast path as Broadcast when no load observer
// is installed.
func (nw *Network) Convergecast(t *Tree) {
	if nw.loadObs == nil {
		for d := len(t.Levels) - 1; d >= 1; d-- {
			round := nw.beginRound()
			nw.accountMessages(len(t.Levels[d]))
			nw.endRound(round)
		}
		return
	}
	for d := len(t.Levels) - 1; d >= 1; d-- {
		round := nw.beginRound()
		for _, u := range t.Levels[d] {
			nw.send(u, t.Parent[u])
		}
		nw.endRound(round)
	}
}
