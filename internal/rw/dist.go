// Package rw implements the random-walk machinery CDRW is built on: exact
// evolution of the walk's probability distribution (one flooding round per
// step, as in §III of the paper), stationary distributions, L1 distances,
// mixing times, and — the paper's key primitive — the largest local mixing
// set of a distribution (Definition 2 plus the localised x_u statistic of
// Algorithm 1).
//
// SharedIndex bundles the immutable per-graph tables (degree-sorted sweep
// index, inverse-degree flood table) that detector pools share per graph
// generation; NewSharedIndexDelta rebuilds a bundle across an edge delta
// by patching only the touched vertices, bit-identical to a fresh build.
package rw

import (
	"fmt"
	"math"

	"cdrw/internal/graph"
)

// Dist is a probability distribution over the vertices of a graph.
type Dist []float64

// Clone returns an independent copy of the distribution.
func (d Dist) Clone() Dist {
	c := make(Dist, len(d))
	copy(c, d)
	return c
}

// Sum returns the total mass of the distribution (1 for a proper
// distribution; less when restricted to a subset).
func (d Dist) Sum() float64 {
	s := 0.0
	for _, v := range d {
		s += v
	}
	return s
}

// L1 returns the L1 distance ||d − e||₁.
func (d Dist) L1(e Dist) float64 {
	s := 0.0
	for i := range d {
		s += math.Abs(d[i] - e[i])
	}
	return s
}

// Step advances the distribution by one step of the simple random walk on g:
// p'(u) = Σ_{v∈N(u)} p(v)/d(v). This is exactly the per-round flooding of
// Algorithm 1 lines 9–11. next is overwritten and returned; it must have
// length n and may not alias d. Isolated vertices retain their mass (a walk
// at an isolated vertex has nowhere to go).
func Step(g *graph.Graph, d, next Dist) Dist {
	for i := range next {
		next[i] = 0
	}
	for v, p := range d {
		if p == 0 {
			continue
		}
		deg := g.Degree(v)
		if deg == 0 {
			next[v] += p
			continue
		}
		share := p / float64(deg)
		for _, w := range g.Neighbors(v) {
			next[w] += share
		}
	}
	return next
}

// Walk evolves a point distribution from source for steps steps and returns
// the final distribution. It runs on the hybrid WalkEngine, so early steps
// cost only the walk's support rather than O(n); callers stepping many walks
// should hold a WalkEngine themselves to also amortise the allocations.
func Walk(g *graph.Graph, source, steps int) (Dist, error) {
	e := NewWalkEngine(g)
	if err := e.Reset(source); err != nil {
		return nil, err
	}
	e.Advance(steps)
	return e.Dist().Clone(), nil
}

// Stationary returns the stationary distribution π(v) = d(v)/2m of the
// simple random walk on g. For a graph with no edges it returns the uniform
// distribution (every vertex is absorbing).
func Stationary(g *graph.Graph) Dist {
	n := g.NumVertices()
	d := make(Dist, n)
	vol := float64(g.Volume())
	if vol == 0 {
		if n > 0 {
			u := 1 / float64(n)
			for i := range d {
				d[i] = u
			}
		}
		return d
	}
	for v := 0; v < n; v++ {
		d[v] = float64(g.Degree(v)) / vol
	}
	return d
}

// MixingTime returns the ε-near mixing time from source: the first step t
// at which ||p_t − π||₁ < ε (Definition 1). It returns an error if the walk
// has not mixed after maxSteps (e.g. bipartite graphs never mix).
func MixingTime(g *graph.Graph, source int, eps float64, maxSteps int) (int, error) {
	pi := Stationary(g)
	e := NewWalkEngine(g)
	if err := e.Reset(source); err != nil {
		return 0, err
	}
	for t := 0; t <= maxSteps; t++ {
		if e.Dist().L1(pi) < eps {
			return t, nil
		}
		e.Step()
	}
	return 0, fmt.Errorf("rw: walk from %d not %v-mixed after %d steps", source, eps, maxSteps)
}
