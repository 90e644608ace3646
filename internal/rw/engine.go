package rw

import (
	"fmt"
	"math/bits"

	"cdrw/internal/graph"
)

// DenseSwitchFraction controls the hybrid engine's default regime switch: a
// walk stays on the sparse-frontier kernel while its support holds fewer
// than n/DenseSwitchFraction vertices and moves to the dense kernel past
// that. The sparse kernel costs O(vol(support) + nnz·log nnz) per step, the
// dense one O(n + vol(support)); at nnz ≈ n/8 the bookkeeping of the sparse
// side stops paying for itself on the graphs the paper targets (average
// degree Θ(log n)).
const DenseSwitchFraction = 8

// WalkEngine evolves the probability distribution of a simple random walk
// with a hybrid sparse/dense kernel. While the walk's support is a small
// ball around the source — the regime the paper's local-mixing analysis says
// dominates Algorithm 1 — the engine touches only the frontier and its
// neighbourhood; once the support passes the density threshold it switches
// to the flat dense kernel (Step). Both kernels accumulate neighbour
// contributions in ascending vertex order, so the evolved distribution is
// bit-identical regardless of where the switch happens.
//
// A WalkEngine is not safe for concurrent use; Reset makes one engine
// reusable across many walks without reallocating.
type WalkEngine struct {
	g         *graph.Graph
	p, next   Dist
	frontier  []int32  // support of p, ascending, valid while sparse
	mark      []uint64 // bitmap of the support being built, all-zero between steps
	sparse    bool
	threshold int // support size at which the engine goes dense
	steps     int
	sweeper   *Sweeper // lazily built, or injected sharing a caller's index
}

// NewWalkEngine returns an engine over g with the default density threshold
// max(1, n/DenseSwitchFraction). The engine starts with no walk loaded; call
// Reset before stepping.
func NewWalkEngine(g *graph.Graph) *WalkEngine {
	n := g.NumVertices()
	threshold := n / DenseSwitchFraction
	if threshold < 1 {
		threshold = 1
	}
	return &WalkEngine{
		g:         g,
		p:         make(Dist, n),
		next:      make(Dist, n),
		mark:      make([]uint64, (n+63)/64),
		threshold: threshold,
	}
}

// NewWalkEngineWithIndex is NewWalkEngine with a prebuilt degree index for
// the sparse sweep, so long-lived callers (core.Detector) can share one
// index across every engine they create over the same graph.
func NewWalkEngineWithIndex(g *graph.Graph, idx *DegreeIndex) *WalkEngine {
	e := NewWalkEngine(g)
	e.sweeper = NewSweeperWithIndex(g, idx)
	return e
}

// SetDenseThreshold overrides the support size at which the engine abandons
// the sparse kernel. 0 forces the dense kernel from the first step (the
// legacy behaviour, useful as a benchmark baseline); values > n keep the
// sparse kernel for the walk's whole life.
func (e *WalkEngine) SetDenseThreshold(nnz int) {
	if nnz < 0 {
		nnz = 0
	}
	e.threshold = nnz
}

// Reset loads a fresh point distribution at source (p₀ of Algorithm 1
// line 7), reusing the engine's buffers.
func (e *WalkEngine) Reset(source int) error {
	n := e.g.NumVertices()
	if source < 0 || source >= n {
		return fmt.Errorf("rw: source %d out of range [0,%d): %w", source, n, graph.ErrVertexOutOfRange)
	}
	if e.sparse {
		// Sparse invariant: p is non-zero only on the frontier and next is
		// all zero, so clearing the frontier entries suffices.
		for _, v := range e.frontier {
			e.p[v] = 0
		}
	} else {
		clear(e.p)
		clear(e.next)
	}
	e.sparse = true
	e.frontier = append(e.frontier[:0], int32(source))
	e.p[source] = 1
	e.steps = 0
	return nil
}

// Dist returns the current distribution as a dense vector. The slice aliases
// the engine's state: it is valid until the next Step or Reset and must not
// be modified. Clone it to keep a snapshot.
func (e *WalkEngine) Dist() Dist { return e.p }

// Steps returns how many steps the walk has taken since the last Reset.
func (e *WalkEngine) Steps() int { return e.steps }

// SupportSize returns the number of vertices with non-zero probability while
// the engine is sparse, and -1 once it has switched to the dense kernel (the
// dense kernel does not track support).
func (e *WalkEngine) SupportSize() int {
	if !e.sparse {
		return -1
	}
	return len(e.frontier)
}

// Step advances the walk by one step of the simple random walk, picking the
// kernel by the current support density.
func (e *WalkEngine) Step() {
	if e.maybeDensify(); e.sparse {
		e.sparseStep()
	} else {
		e.denseStep()
	}
}

// maybeDensify retires the frontier once the support reaches the threshold.
// The transition is one-way: support can only shrink on pathological graphs,
// and the dense kernel is correct regardless.
func (e *WalkEngine) maybeDensify() {
	if e.sparse && len(e.frontier) >= e.threshold {
		e.sparse = false
		e.frontier = e.frontier[:0]
	}
}

func (e *WalkEngine) denseStep() {
	e.p, e.next = Step(e.g, e.p, e.next), e.p
	e.steps++
}

// sparseStep pushes mass from the frontier only: p'(w) = Σ_{v∈F∩N(w)}
// p(v)/d(v). Frontier vertices are visited in ascending order, so each
// target accumulates its contributions in exactly the order the dense kernel
// uses. Shares that underflow to zero are skipped — adding +0 is the
// identity, and skipping keeps the frontier free of zero-mass entries. The
// touched vertices are recorded in a bitmap and the new frontier extracted
// from it in one O(n/64 + nnz) scan, already sorted — cheaper than sorting
// an append-order list even for small supports.
func (e *WalkEngine) sparseStep() {
	g := e.g
	mark := e.mark
	for _, vv := range e.frontier {
		v := int(vv)
		pv := e.p[v]
		e.p[v] = 0
		deg := g.Degree(v)
		if deg == 0 {
			mark[uint(v)>>6] |= 1 << (uint(v) & 63)
			e.next[v] += pv
			continue
		}
		share := pv / float64(deg)
		if share == 0 {
			continue
		}
		for _, w := range g.Neighbors(v) {
			mark[uint(w)>>6] |= 1 << (uint(w) & 63)
			e.next[w] += share
		}
	}
	nf := e.frontier[:0]
	for wi, word := range mark {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			nf = append(nf, int32(wi<<6+b))
			word &^= 1 << uint(b)
		}
		mark[wi] = 0
	}
	e.frontier = nf
	e.p, e.next = e.next, e.p
	e.steps++
}

// Advance takes k steps.
func (e *WalkEngine) Advance(k int) {
	for i := 0; i < k; i++ {
		e.Step()
	}
}

// LargestMixingSet runs the Algorithm 1 candidate-size sweep on the walk's
// current distribution. While the engine is on the sparse kernel the
// support is exactly the frontier; after the switch the sweeper's dense
// path first extracts it with one O(n) scan of p. Either way the same
// bracket-and-count ladder then runs over the support, and results are
// bit-identical to the O(n)-per-size reference LargestMixingSetOpt(g,
// e.Dist(), minSize, opt). The zero MixOptions selects the paper's
// constants. The sweeper and its degree index are built lazily on first
// use and reused across Reset.
// On the sparse path the returned Vertices alias sweeper storage and stay
// valid only until this engine's next sweep; copy them to retain a set.
func (e *WalkEngine) LargestMixingSet(minSize int, opt MixOptions) (MixingSet, error) {
	if e.sweeper == nil {
		e.sweeper = NewSweeper(e.g)
	}
	var support []int32
	if e.sparse {
		support = e.frontier
	}
	return e.sweeper.LargestMixingSet(e.p, support, minSize, opt)
}
