package rw

import (
	"fmt"

	"cdrw/internal/graph"
)

// LocalMixingTime computes the operational local mixing time τ_s(β) of
// Definition 2: the first walk length at which some set of size ≥ n/β
// (and ≥ minSize, the R parameter of Algorithm 1) satisfies the mixing
// condition. It returns the time and the witnessing mixing set. β must be
// ≥ 1; β = 1 asks for mixing on the whole vertex set, recovering the
// ordinary mixing time up to the ε/2e difference in the convergence test.
func LocalMixingTime(g *graph.Graph, source int, beta float64, minSize, maxSteps int) (int, MixingSet, error) {
	n := g.NumVertices()
	if source < 0 || source >= n {
		return 0, MixingSet{}, fmt.Errorf("rw: source %d out of range [0,%d): %w",
			source, n, graph.ErrVertexOutOfRange)
	}
	if beta < 1 {
		return 0, MixingSet{}, fmt.Errorf("rw: beta %v must be ≥ 1", beta)
	}
	if maxSteps < 1 {
		return 0, MixingSet{}, fmt.Errorf("rw: non-positive step budget %d", maxSteps)
	}
	target := int(float64(n) / beta)
	if target < minSize {
		target = minSize
	}
	if target < 1 {
		target = 1
	}
	e := NewWalkEngine(g)
	if err := e.Reset(source); err != nil {
		return 0, MixingSet{}, err
	}
	for t := 1; t <= maxSteps; t++ {
		e.Step()
		ms, err := e.LargestMixingSet(minSize, MixOptions{})
		if err != nil {
			return 0, MixingSet{}, err
		}
		if ms.Found() && ms.Size() >= target {
			return t, ms, nil
		}
	}
	return 0, MixingSet{}, fmt.Errorf("rw: no mixing set of size ≥ %d within %d steps", target, maxSteps)
}
