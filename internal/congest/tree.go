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

// buildTree constructs a BFS tree of bounded depth from root by distributed
// flooding: in round d every depth-d node announces itself to all
// neighbours; unclaimed neighbours join at depth d+1 and pick the announcer
// with the smallest id as parent (ties are resolved the same way a real
// execution with id-tagged messages would). A negative depthLimit means
// unbounded. Cost: one round of the current lane per level, with every
// frontier node messaging each neighbour.
func (nw *Network) buildTree(root, depthLimit int) (*Tree, error) {
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
		nw.beginRound()
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
		if len(next) > 0 {
			t.Levels = append(t.Levels, next)
		}
		frontier = next
	}
	return t, nil
}

// broadcast models the root sending one O(log n)-bit value down the tree:
// one round per level, one message per tree edge. The simulated value
// delivery is implicit (every protocol below knows the broadcast value);
// only the cost is accounted, in one call: the current lane advances by the
// tree depth and the messages grow by the tree's edge count. With a load
// observer installed, level d's round carries Parent[u]→u for every u in
// Levels[d+1].
func (nw *Network) broadcast(t *Tree) {
	r := nw.chargeCollective(t)
	if nw.loadObs == nil {
		return
	}
	for d := 1; d < len(t.Levels); d++ {
		loads := nw.phaseLoads[r]
		for _, u := range t.Levels[d] {
			loads = append(loads, LinkLoad{From: int32(t.Parent[u]), To: int32(u), Words: 1})
		}
		nw.phaseLoads[r] = loads
		r++
	}
}

// convergecast models an aggregation up the tree (min, max, sum, count —
// anything expressible with O(log n)-bit partial aggregates): one round per
// level, one message per tree edge, deepest level first. The caller
// performs the actual aggregation on node values; this method accounts the
// cost in one call, like broadcast. With a load observer installed, the
// round of level d carries u→Parent[u] for every u in Levels[d].
func (nw *Network) convergecast(t *Tree) {
	r := nw.chargeCollective(t)
	if nw.loadObs == nil {
		return
	}
	for d := len(t.Levels) - 1; d >= 1; d-- {
		loads := nw.phaseLoads[r]
		for _, u := range t.Levels[d] {
			loads = append(loads, LinkLoad{From: int32(u), To: int32(t.Parent[u]), Words: 1})
		}
		nw.phaseLoads[r] = loads
		r++
	}
}

// chargeCollective charges one broadcast or convergecast over t to the
// current lane — MaxDepth rounds, one message per tree edge — and returns
// the phase-relative index of its first round.
func (nw *Network) chargeCollective(t *Tree) int {
	nw.accountMessages(t.Size() - 1)
	return nw.advance(t.MaxDepth())
}
