package congest

import (
	"context"
	"fmt"
	"math"

	"cdrw/internal/rw"
)

// EstimateConductance is the distributed counterpart of
// rw.EstimateConductance: it evolves the walk distribution from source by
// per-round probability flooding and, at every length past the first, sweeps
// the degree-normalised probabilities for the lowest-conductance prefix. The
// sweep itself reuses rw.SweepCutWithin — the same math the reference engine
// runs — restricted to the nodes the BFS tree covers, since only their
// scores ever reach the root; depthLimit therefore genuinely narrows what
// the estimate can see (negative = unbounded, covering the source's whole
// component). While the walk has not spread, almost every covered node has
// score zero, and SweepCutWithin's sparse-aware ordering (rw.sweepSort)
// comparison-sorts only the support — the zero bulk tie-breaks straight
// into id order — so the early per-length sweeps cost O(n + support·log
// support) here too, not O(n log n). The simulator accounts the communication: one flooding round
// per step plus a convergecast (covered nodes ship their p(v)/d(v) scores to
// the root) and a broadcast (the root announces the current best cut) per
// sweep. The paper assumes Φ_G is "given as input, or ... computed using a
// distributed algorithm"; this provides such an estimate in-model so
// Config.Delta can be derived without ground truth.
func EstimateConductance(nw *Network, source, maxSteps, depthLimit int) (float64, error) {
	return EstimateConductanceContext(context.Background(), nw, source, maxSteps, depthLimit)
}

// EstimateConductanceContext is EstimateConductance with cancellation,
// polled once per flooding step like the detection loops.
func EstimateConductanceContext(ctx context.Context, nw *Network, source, maxSteps, depthLimit int) (float64, error) {
	nw.setContext(ctx)
	defer nw.setContext(nil)
	if err := nw.checkVertex(source); err != nil {
		return 0, err
	}
	if maxSteps < 2 {
		return 0, fmt.Errorf("congest: step budget %d below 2, the first sweepable length", maxSteps)
	}
	g := nw.Graph()
	n := g.NumVertices()
	if g.NumEdges() == 0 || n < 2 {
		return 0, fmt.Errorf("congest: conductance undefined without edges")
	}
	// A one-lane batch: the tree build, each flood step and each sweep's
	// convergecast+broadcast pair are one phase each, so the global round
	// count advances exactly as the walk's own protocol does.
	nw.beginBatch(1)
	defer nw.endBatch()
	nw.beginPhase()
	tree, err := nw.buildTree(source, depthLimit)
	nw.endPhase()
	if err != nil {
		return 0, err
	}
	covered32 := tree.CoveredVertices()
	covered := make([]int, len(covered32))
	for i, v := range covered32 {
		covered[i] = int(v)
	}
	w := &batchWalk{p: make(rw.Dist, n), next: make(rw.Dist, n)}
	w.p[source] = 1
	walks := []*batchWalk{w}
	counts := make([]int32, n)

	best := math.Inf(1)
	for t := 1; t <= maxSteps; t++ {
		if err := nw.interrupted(); err != nil {
			return 0, err
		}
		nw.beginPhase()
		batchFlood(nw, walks, counts)
		nw.endPhase()
		if t < 2 {
			continue
		}
		nw.beginPhase()
		nw.convergecast(tree)
		nw.broadcast(tree)
		nw.endPhase()
		if _, phi, err := rw.SweepCutWithin(g, w.p, covered); err == nil && phi < best {
			best = phi
		}
	}
	if math.IsInf(best, 1) {
		return 0, fmt.Errorf("congest: no sweep cut found within %d steps", maxSteps)
	}
	return best, nil
}
