// Package graph implements the undirected-graph substrate used throughout
// the repository: adjacency storage, degree/volume accounting, conductance,
// breadth-first search, connected components, and induced subgraphs.
//
// Vertices are dense integers 0..n-1. The representation is a compressed
// adjacency layout (one shared neighbour slice plus per-vertex offsets),
// which keeps memory proportional to the number of edges and makes the hot
// random-walk loop cache friendly.
//
// Graphs are immutable; mutation is copy-on-write. ApplyDelta merges an
// edge delta (adds + dels) into a new Graph in O(n + m), bit-identical to
// rebuilding from scratch, leaving the receiver — and every reader holding
// it — untouched. That is the substrate the serving layer's atomic
// generation swaps are built on.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Graph is an immutable simple undirected graph. Build one with a Builder or
// a generator from internal/gen. The zero value is an empty graph with no
// vertices.
type Graph struct {
	offsets []int32 // len n+1; neighbours of v are neigh[offsets[v]:offsets[v+1]]
	neigh   []int32
	m       int // number of undirected edges
}

// ErrVertexOutOfRange reports a vertex index outside [0, n).
var ErrVertexOutOfRange = errors.New("graph: vertex out of range")

// NumVertices returns the number of vertices n.
func (g *Graph) NumVertices() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of undirected edges m.
func (g *Graph) NumEdges() int { return g.m }

// Volume returns the total volume 2m = sum of all degrees.
func (g *Graph) Volume() int { return 2 * g.m }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the neighbour list of v. The returned slice aliases the
// graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.neigh[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether the undirected edge {u, v} is present. Neighbour
// lists are sorted, so the check is a binary search.
func (g *Graph) HasEdge(u, v int) bool {
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= int32(v) })
	return i < len(ns) && ns[i] == int32(v)
}

// MaxDegree returns the maximum degree ∆ of the graph (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// AverageDegree returns 2m/n, the mean degree (0 for empty graphs).
func (g *Graph) AverageDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(2*g.m) / float64(n)
}

// Edges calls fn for every undirected edge {u, v} with u < v. Iteration stops
// early if fn returns false.
func (g *Graph) Edges(fn func(u, v int) bool) {
	for u := 0; u < g.NumVertices(); u++ {
		for _, w := range g.Neighbors(u) {
			v := int(w)
			if u < v {
				if !fn(u, v) {
					return
				}
			}
		}
	}
}

// Validate checks structural invariants: sorted neighbour lists, no
// self-loops, no duplicate edges, and symmetric adjacency. Generators and
// tests use it as a post-condition.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	half := 0
	for v := 0; v < n; v++ {
		ns := g.Neighbors(v)
		for i, w := range ns {
			if int(w) < 0 || int(w) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbour %d", v, w)
			}
			if int(w) == v {
				return fmt.Errorf("graph: self-loop at vertex %d", v)
			}
			if i > 0 && ns[i-1] >= w {
				return fmt.Errorf("graph: neighbour list of %d not strictly sorted", v)
			}
			if !g.HasEdge(int(w), v) {
				return fmt.Errorf("graph: edge %d->%d has no reverse", v, w)
			}
		}
		half += len(ns)
	}
	if half != 2*g.m {
		return fmt.Errorf("graph: edge count %d inconsistent with adjacency size %d", g.m, half)
	}
	return nil
}

// Builder accumulates edges and produces an immutable Graph. Duplicate edges
// and self-loops are rejected at Build time with an error rather than being
// silently dropped, so generator bugs surface immediately.
type Builder struct {
	n     int
	us    []int32
	vs    []int32
	loose bool // dedupe instead of erroring (used by readers of untrusted input)
	// badU, badV is the first added edge with an endpoint outside [0, n),
	// kept as ints: its int32 copies in us and vs may have wrapped into
	// range.
	badU, badV int
	hasBad     bool
}

// NewBuilder returns a builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// NewDedupBuilder returns a builder that silently drops duplicate edges and
// self-loops instead of failing. Use it when ingesting external edge lists.
func NewDedupBuilder(n int) *Builder {
	return &Builder{n: n, loose: true}
}

// AddEdge records the undirected edge {u, v}. An endpoint outside [0, n)
// is recorded too and makes Build fail.
func (b *Builder) AddEdge(u, v int) {
	if !b.hasBad && (u < 0 || u >= b.n || v < 0 || v >= b.n) {
		b.badU, b.badV, b.hasBad = u, v, true
	}
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
}

// Build validates the accumulated edges and returns the immutable graph.
func (b *Builder) Build() (*Graph, error) {
	if b.hasBad {
		return nil, fmt.Errorf("%w: edge {%d,%d} with n=%d", ErrVertexOutOfRange, b.badU, b.badV, b.n)
	}
	type edge struct{ u, v int32 }
	edges := make([]edge, 0, len(b.us))
	for i := range b.us {
		u, v := b.us[i], b.vs[i]
		if u == v {
			if b.loose {
				continue
			}
			return nil, fmt.Errorf("graph: self-loop {%d,%d}", u, v)
		}
		if u > v {
			u, v = v, u
		}
		edges = append(edges, edge{u, v})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	dedup := edges[:0]
	for i, e := range edges {
		if i > 0 && e == edges[i-1] {
			if b.loose {
				continue
			}
			return nil, fmt.Errorf("graph: duplicate edge {%d,%d}", e.u, e.v)
		}
		dedup = append(dedup, e)
	}
	edges = dedup

	deg := make([]int32, b.n)
	for _, e := range edges {
		deg[e.u]++
		deg[e.v]++
	}
	offsets := make([]int32, b.n+1)
	for v := 0; v < b.n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	neigh := make([]int32, 2*len(edges))
	cursor := make([]int32, b.n)
	copy(cursor, offsets[:b.n])
	for _, e := range edges {
		neigh[cursor[e.u]] = e.v
		cursor[e.u]++
		neigh[cursor[e.v]] = e.u
		cursor[e.v]++
	}
	g := &Graph{offsets: offsets, neigh: neigh, m: len(edges)}
	// Sort each neighbour run (insertion into CSR preserves u-order for the
	// low endpoint but mixes high/low endpoints).
	for v := 0; v < b.n; v++ {
		ns := neigh[offsets[v]:offsets[v+1]]
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	}
	return g, nil
}

// MustBuild is Build but panics on error. Intended for tests and package
// initialisation of fixed fixtures, never for untrusted input.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
