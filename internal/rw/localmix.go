package rw

import (
	"math"

	"cdrw/internal/graph"
)

// Constants of Algorithm 1, straight from the paper.
const (
	// MixingThreshold is the bound 1/2e on the sum of the |S| smallest x_u
	// values (line 15 of Algorithm 1).
	MixingThreshold = 1 / (2 * math.E)
	// GrowthFactor is the geometric step 1 + 1/8e of the candidate-size
	// sweep (line 12). The paper grows by this factor instead of doubling
	// so that some candidate size always lands within the tolerance of the
	// true mixing-set size (Lemma 3 of Molla–Pandurangan 2018).
	GrowthFactor = 1 + 1/(8*math.E)
)

// MuPrime returns µ'(S) = (2m/n)·|S|, the average volume of a size-|S|
// vertex set — the normaliser of the x_u statistic (Algorithm 1 line 13).
func MuPrime(g *graph.Graph, size int) float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(g.Volume()) / float64(n) * float64(size)
}

// XValueAt returns the localised deviation statistic of Algorithm 1 line 13
// for a single vertex: x_u = |p(u) − d(u)/µ'(S)| with muPrime = MuPrime(g,
// size). Every sweep (dense, sparse, CONGEST node-local) must use this
// exact division — substituting d·(1/µ') differs in the last ulp, and the
// sweeps are required to be bit-identical to each other and stable across
// releases (CONGEST's distributed binary search even counts rounds off
// these values). On an edgeless graph (muPrime 0) d(u)/µ' is 0/0; the
// target then falls back to uniform mass over the candidate size so the
// statistic stays meaningful.
func XValueAt(g *graph.Graph, p Dist, u, size int, muPrime float64) float64 {
	if muPrime == 0 {
		return math.Abs(p[u] - 1/float64(size))
	}
	return math.Abs(p[u] - float64(g.Degree(u))/muPrime)
}

// MixingSum is the canonical summation of the |S| smallest x_u values that
// every sweep implementation shares: the on-support terms (vertices with
// p(u) ≠ 0) are accumulated individually in ascending vertex order and the
// off-support tail is folded in as one exact integer degree sum divided by
// µ' (off-support vertices have the closed form x_u = d(u)/µ', so their sum
// telescopes to Σd(u)/µ'; integer addition is associative where float
// addition is not, which is what lets the Sweeper use precomputed prefix
// sums and still match the O(n)-per-size reference bit for bit). On an
// edgeless graph (µ' = 0) every off-support value is 1/|S| and the tail
// becomes offCount/|S|. The CONGEST selection folds its distributed
// aggregates through it too, so every sweep — in-memory and distributed —
// decides the mixing condition on bit-identical sums.
func MixingSum(onSum float64, offDeg int64, offCount int, muPrime float64, size int) float64 {
	if offCount == 0 {
		return onSum
	}
	if muPrime == 0 {
		return onSum + float64(offCount)/float64(size)
	}
	return onSum + float64(offDeg)/muPrime
}

// SizeLadderWithGrowth returns the candidate mixing-set sizes of the sweep
// for ladder growth factor growth: R, ⌊R·growth⌋, … capped at n, each size
// strictly larger than the previous (line 12 of Algorithm 1, where growth is
// GrowthFactor). The ablation experiments vary growth to show the paper's
// 1+1/8e choice sits on a plateau (bigger factors risk overshooting the
// community size, smaller ones only add work). growth ≤ 1 selects
// GrowthFactor.
func SizeLadderWithGrowth(minSize, n int, growth float64) []int {
	if minSize < 1 {
		minSize = 1
	}
	if minSize > n {
		return nil
	}
	if growth <= 1 {
		growth = GrowthFactor
	}
	var ladder []int
	size := minSize
	for {
		ladder = append(ladder, size)
		if size >= n {
			break
		}
		next := int(math.Floor(float64(size) * growth))
		if next <= size {
			next = size + 1
		}
		if next > n {
			next = n
		}
		size = next
	}
	return ladder
}

// MixingSet is the outcome of a largest-mixing-set search at one walk length.
type MixingSet struct {
	// Vertices of the mixing set, sorted ascending. Nil if no candidate size
	// satisfied the mixing condition.
	Vertices []int
	// Sum of the |S| smallest x_u values for the accepted size.
	Sum float64
	// SizesChecked counts ladder entries evaluated (complexity accounting).
	SizesChecked int
}

// Found reports whether any mixing set satisfied the condition.
func (m MixingSet) Found() bool { return m.Vertices != nil }

// Size returns |S|, or 0 when no set was found.
func (m MixingSet) Size() int { return len(m.Vertices) }

// MixOptions override the Algorithm 1 constants for ablation studies. Zero
// fields select the paper's values.
type MixOptions struct {
	// Threshold replaces the 1/2e mixing bound.
	Threshold float64
	// Growth replaces the 1+1/8e ladder growth factor.
	Growth float64
	// Interrupt, when non-nil, is polled between candidate sizes of the
	// ladder; a non-nil return aborts the sweep with that error. Detection
	// loops install ctx.Err here so cancellation lands mid-ladder, not just
	// between walk steps. It never changes the values a completed sweep
	// returns.
	Interrupt func() error
}

func (o MixOptions) withDefaults() MixOptions {
	if o.Threshold <= 0 {
		o.Threshold = MixingThreshold
	}
	if o.Growth <= 1 {
		o.Growth = GrowthFactor
	}
	return o
}

// interrupted polls the Interrupt hook (nil-safe).
func (o MixOptions) interrupted() error {
	if o.Interrupt == nil {
		return nil
	}
	return o.Interrupt()
}
