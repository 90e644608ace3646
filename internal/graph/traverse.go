package graph

// BFSResult holds the outcome of a breadth-first search from a source vertex.
type BFSResult struct {
	Source int
	// Parent[v] is the BFS-tree parent of v, or -1 for the source and for
	// unreached vertices.
	Parent []int
	// Depth[v] is the hop distance from the source, or -1 if unreached.
	Depth []int
	// Order lists reached vertices in visit order (source first).
	Order []int
}

// MaxDepth returns the eccentricity of the source within its component,
// truncated by any depth limit used during the search.
func (r *BFSResult) MaxDepth() int {
	maxD := 0
	for _, v := range r.Order {
		if r.Depth[v] > maxD {
			maxD = r.Depth[v]
		}
	}
	return maxD
}

// BFS runs a breadth-first search from source, visiting the entire component.
func (g *Graph) BFS(source int) *BFSResult {
	return g.BFSLimited(source, -1)
}

// BFSLimited runs a breadth-first search from source, exploring only
// vertices within depthLimit hops. A negative depthLimit means unlimited.
// This mirrors the depth-bounded BFS-tree construction of Algorithm 1
// (depth O(log n)).
func (g *Graph) BFSLimited(source, depthLimit int) *BFSResult {
	n := g.NumVertices()
	res := &BFSResult{
		Source: source,
		Parent: make([]int, n),
		Depth:  make([]int, n),
		Order:  make([]int, 0, n),
	}
	for v := range res.Parent {
		res.Parent[v] = -1
		res.Depth[v] = -1
	}
	res.Depth[source] = 0
	res.Order = append(res.Order, source)
	frontier := []int{source}
	for d := 0; len(frontier) > 0; d++ {
		if depthLimit >= 0 && d >= depthLimit {
			break
		}
		var next []int
		for _, u := range frontier {
			for _, w := range g.Neighbors(u) {
				v := int(w)
				if res.Depth[v] < 0 {
					res.Depth[v] = d + 1
					res.Parent[v] = u
					res.Order = append(res.Order, v)
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return res
}

// MarkBall2 sets mask[u] = v for every vertex u within two hops of source —
// the source, its neighbours and theirs: the B_2 ball of Lemma 1. It
// allocates nothing, so a caller blocks and unblocks balls in one retained
// mask.
func (g *Graph) MarkBall2(source int, mask []bool, v bool) {
	mask[source] = v
	for _, u := range g.Neighbors(source) {
		mask[u] = v
		for _, w := range g.Neighbors(int(u)) {
			mask[w] = v
		}
	}
}

// ConnectedComponents returns a label per vertex (components numbered from 0
// in order of their smallest vertex) and the number of components.
func (g *Graph) ConnectedComponents() (labels []int, count int) {
	n := g.NumVertices()
	labels = make([]int, n)
	for v := range labels {
		labels[v] = -1
	}
	for v := 0; v < n; v++ {
		if labels[v] >= 0 {
			continue
		}
		labels[v] = count
		queue := []int{v}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(u) {
				if labels[w] < 0 {
					labels[w] = count
					queue = append(queue, int(w))
				}
			}
		}
		count++
	}
	return labels, count
}

// IsConnected reports whether the graph has exactly one connected component.
// The empty graph is considered connected.
func (g *Graph) IsConnected() bool {
	if g.NumVertices() == 0 {
		return true
	}
	_, c := g.ConnectedComponents()
	return c == 1
}

// Diameter returns the exact diameter of a connected graph by running a BFS
// from every vertex, or -1 if the graph is disconnected or empty. Intended
// for test fixtures and small experiment graphs; cost is O(n·m).
func (g *Graph) Diameter() int {
	n := g.NumVertices()
	if n == 0 || !g.IsConnected() {
		return -1
	}
	diam := 0
	for v := 0; v < n; v++ {
		if d := g.BFS(v).MaxDepth(); d > diam {
			diam = d
		}
	}
	return diam
}
